"""The projected-gradient iteration with a noise-indexed denoiser.

One step reads x+ = D(x, sigma_n) - mu A^T (A D(x, sigma_n) - y): the
denoiser acts as a soft projection whose target set sharpens as sigma_n
decreases along a schedule.  With mu = 1 the same update can be written as a
data-fit direction plus a prior direction restricted to the measurement
null space; both forms are provided and agree to rounding.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .lrgmm_prior import LrGmmPrior, denoiser as lrgmm_denoiser
from .model_sets import gap_from_norms
from .sensing_analysis import SensingProblem

SCHEDULE_KINDS = ("geometric", "linear", "cosine", "infinite_geometric")

TRACE_FORMAT_LINE = "# projdiff-trace v1"

# The fixed trace columns, in file order; dist_0 ... dist_{K-1} follow them.
TRACE_COLUMNS = ("n", "sigma", "mse", "residual", "frontier_gap", "weight_entropy")

# Above this ambient dimension full iterates are not kept by default.
RECORD_ITERATES_DIM_LIMIT = 256


@dataclass(frozen=True)
class NoiseSchedule:
    """Noise level sigma_n as a function of the iteration index.

    Finite kinds interpolate from sigma_max at n=0 to sigma_min at
    n=horizon; the infinite_geometric kind decays as sigma_max * a**n and
    has no horizon.
    """

    kind: str
    sigma_max: float
    sigma_min: float = 0.0
    horizon: int = 0
    a: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"kind must be one of {SCHEDULE_KINDS}, got {self.kind!r}")
        if not (self.sigma_max > 0.0 and math.isfinite(self.sigma_max)):
            raise ValueError(f"sigma_max must be positive, got {self.sigma_max}")
        if self.kind == "infinite_geometric":
            if not 0.0 < self.a < 1.0:
                raise ValueError(f"decay factor a must lie in (0, 1), got {self.a}")
        else:
            if not (0.0 < self.sigma_min <= self.sigma_max):
                raise ValueError(
                    f"need 0 < sigma_min <= sigma_max, got {self.sigma_min}, {self.sigma_max}"
                )
            if self.horizon < 1:
                raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    def to_dict(self) -> dict:
        if self.kind == "infinite_geometric":
            return {"kind": self.kind, "sigma_max": self.sigma_max, "a": self.a}
        return {
            "kind": self.kind,
            "sigma_max": self.sigma_max,
            "sigma_min": self.sigma_min,
            "horizon": self.horizon,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NoiseSchedule":
        return cls(
            kind=payload["kind"],
            sigma_max=float(payload["sigma_max"]),
            sigma_min=float(payload.get("sigma_min", 0.0)),
            horizon=int(payload.get("horizon", 0)),
            a=float(payload.get("a", 0.0)),
        )


def schedule_sigma(schedule: NoiseSchedule, n: int) -> float:
    """Evaluate sigma_n; n must lie in the schedule's domain."""
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if schedule.kind == "infinite_geometric":
        return schedule.sigma_max * schedule.a**n
    if n > schedule.horizon:
        raise ValueError(f"n={n} exceeds the schedule horizon {schedule.horizon}")
    frac = n / schedule.horizon
    if schedule.kind == "geometric":
        return schedule.sigma_max * (schedule.sigma_min / schedule.sigma_max) ** frac
    if schedule.kind == "linear":
        lo, hi = schedule.sigma_min**2, schedule.sigma_max**2
        return math.sqrt(hi + frac * (lo - hi))
    # cosine
    half_range = 0.5 * (schedule.sigma_max - schedule.sigma_min)
    return schedule.sigma_min + half_range * (1.0 + math.cos(math.pi * frac))


def gpgd_step(denoise, a: np.ndarray, mu: float, y: np.ndarray,
              x: np.ndarray, sigma: float) -> np.ndarray:
    """x+ = P(x) - mu A^T (A P(x) - y) with P(x) = denoise(x, sigma)."""
    return _data_step(a, mu, y, denoise(x, sigma))


def _data_step(a: np.ndarray, mu: float, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p - mu * (a.T @ (a @ p - y))


def kadkhodaie_step(prior: LrGmmPrior, a: np.ndarray, y: np.ndarray,
                    x: np.ndarray, sigma: float) -> np.ndarray:
    """Unit-step form: x+ = x - (data-fit direction + null-space prior direction).

    The prior direction is the denoiser residual projected onto the
    complement of A^T A; algebraically identical to gpgd_step at mu = 1.
    """
    data_fit = a.T @ (a @ x - y)
    residual = x - lrgmm_denoiser(prior, x, sigma).value
    prior_dir = residual - a.T @ (a @ residual)
    return x - data_fit - prior_dir


@dataclass
class RecoveryTrace:
    """Per-iteration record of a recovery run.

    Row n holds the iterate x_n together with the schedule value sigma_n
    consumed by the step that produces x_{n+1}; the final row is the last
    iterate.  Columns that need unavailable context (mse without x_true,
    weight entropy without a mixture prior) hold NaN.
    """

    n: np.ndarray
    sigma: np.ndarray
    mse: np.ndarray
    residual: np.ndarray
    frontier_gap: np.ndarray
    weight_entropy: np.ndarray
    subspace_distances: np.ndarray = None  # (rows, K) when a union is known
    iterates: np.ndarray = None            # (rows, d) when recorded
    metadata: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.n.shape[0]

    @property
    def final_mse(self) -> float:
        return float(self.mse[-1])

    def column_names(self) -> list:
        names = list(TRACE_COLUMNS)
        if self.subspace_distances is not None:
            names += [f"dist_{k}" for k in range(self.subspace_distances.shape[1])]
        return names

    def write_csv(self, path) -> None:
        """Write the trace; a reader never sees a partly written file at ``path``."""
        cols = [getattr(self, name) for name in TRACE_COLUMNS[1:]]
        if self.subspace_distances is not None:
            cols += [self.subspace_distances[:, k] for k in range(self.subspace_distances.shape[1])]
        lines = [TRACE_FORMAT_LINE, "# " + json.dumps(self.metadata, sort_keys=True)]
        lines.append(",".join(self.column_names()))
        for i in range(self.n_rows):
            lines.append(
                ",".join([str(int(self.n[i]))] + [format(c[i], ".17g") for c in cols])
            )
        tmp = f"{path}.{os.getpid()}.tmp"  # not *.csv, so analyze never picks it up
        try:
            with open(tmp, "w", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def read_csv(cls, path) -> "RecoveryTrace":
        with open(path, "r", newline="") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != TRACE_FORMAT_LINE:
            raise ValueError(f"{path}: not a trace file (missing format line)")
        if len(lines) < 3 or not lines[1].startswith("# "):
            raise ValueError(f"{path}: missing metadata line")
        metadata = json.loads(lines[1][2:])
        if not isinstance(metadata, dict):
            raise ValueError(f"{path}: metadata line is not a JSON object")
        header = lines[2].split(",")
        expected = list(TRACE_COLUMNS)
        if header[: len(expected)] != expected:
            raise ValueError(f"{path}: unexpected columns {header}")
        dist_names = header[len(expected):]
        if dist_names != [f"dist_{k}" for k in range(len(dist_names))]:
            raise ValueError(f"{path}: unexpected distance columns {dist_names}")
        rows = [line.split(",") for line in lines[3:] if line]
        if not rows or any(len(r) != len(header) for r in rows):
            raise ValueError(f"{path}: malformed data rows")
        data = np.array([[float(v) for v in r] for r in rows])
        dists = data[:, len(expected):] if dist_names else None
        fixed = {name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)}
        fixed["n"] = fixed["n"].astype(int)
        return cls(**fixed, subspace_distances=dists, metadata=metadata)


def problem_hash(problem: SensingProblem) -> str:
    digest = hashlib.sha256()
    digest.update(problem.operator.tobytes())
    digest.update(problem.y.tobytes())
    digest.update(format(problem.mu, ".17g").encode())
    return digest.hexdigest()[:16]


def _entropy(w: np.ndarray) -> float:
    positive = w[w > 0.0]
    return float(-np.sum(positive * np.log(positive)))


def run_recovery(problem: SensingProblem, denoise, schedule: NoiseSchedule,
                 x0: np.ndarray = None, n_iters: int = None,
                 record_iterates: bool = None, prior: LrGmmPrior = None,
                 metadata: dict = None) -> RecoveryTrace:
    """Run the iteration for n_iters steps, recording one row per iterate.

    With ``prior``, each row makes one ``denoiser(prior, x_n, sigma_n)``
    evaluation: its value is the step's projection, and the weight-entropy,
    frontier-gap and per-component distance columns come from the same pass.
    ``denoise`` is then never called and may be None.  Without ``prior``,
    ``denoise`` is any callable (x, sigma) -> array and those columns are
    NaN.  There is no early stopping: the run always performs n_iters steps
    unless an iterate leaves the finite range, which raises DivergenceError.
    """
    if denoise is None and prior is None:
        raise ValueError("run_recovery needs a prior or a denoise callable")
    a, y, mu = problem.operator, problem.y, problem.mu
    d = problem.ambient_dim
    if n_iters is None:
        if schedule.kind == "infinite_geometric":
            raise ValueError("n_iters is required for an infinite schedule")
        n_iters = schedule.horizon
    n_iters = int(n_iters)
    if n_iters < 1:
        raise ValueError(f"n_iters must be >= 1, got {n_iters}")
    if schedule.kind != "infinite_geometric" and n_iters > schedule.horizon:
        raise ValueError(
            f"n_iters={n_iters} exceeds the schedule horizon {schedule.horizon}"
        )
    if record_iterates is None:
        record_iterates = d <= RECORD_ITERATES_DIM_LIMIT

    x = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (d,):
        raise ValueError(f"x0 must have shape ({d},), got {x.shape}")

    rows = n_iters + 1
    trace = RecoveryTrace(
        n=np.arange(rows),
        sigma=np.empty(rows),
        mse=np.full(rows, np.nan),
        residual=np.empty(rows),
        frontier_gap=np.full(rows, np.nan),
        weight_entropy=np.full(rows, np.nan),
        subspace_distances=np.empty((rows, prior.union.n_components)) if prior is not None else None,
        iterates=np.empty((rows, d)) if record_iterates else None,
        metadata=dict(metadata or {}),
    )
    trace.metadata.setdefault("format", "projdiff-trace")
    trace.metadata.update(
        problem_hash=problem_hash(problem),
        schedule=schedule.to_dict(),
        mu=mu,
        seed=problem.seed,
    )

    for n in range(rows):
        sigma_n = schedule_sigma(schedule, n)
        trace.sigma[n] = sigma_n
        if problem.x_true is not None:
            diff = x - problem.x_true
            trace.mse[n] = float(diff @ diff) / d
        trace.residual[n] = float(np.linalg.norm(a @ x - y))
        if prior is not None:
            ev = lrgmm_denoiser(prior, x, sigma_n)
            trace.subspace_distances[n] = np.sqrt(ev.sq_out)
            trace.frontier_gap[n] = gap_from_norms(ev.sq_in)
            trace.weight_entropy[n] = _entropy(ev.weights)
        if record_iterates:
            trace.iterates[n] = x
        if n == n_iters:
            break
        p = ev.value if prior is not None else denoise(x, sigma_n)
        x = _data_step(a, mu, y, p)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"iterate left the finite range at iteration {n + 1}", n + 1
            )
    return trace
