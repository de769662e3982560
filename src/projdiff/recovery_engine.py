"""The projected-gradient iteration with a noise-indexed denoiser.

One step reads x+ = D(x, sigma_n) - mu A^T (A D(x, sigma_n) - y): the
denoiser acts as a soft projection whose target set sharpens as sigma_n
decreases along a schedule.  With mu = 1 the same update can be written as a
data-fit direction plus a prior direction restricted to the measurement
null space; both forms are provided and agree to rounding.

The iteration takes D from a model.  A model is any object with these
members (LrGmmPrior and BoxSet have them; this module names neither):

- ``step(x, sigma) -> (value, columns)``: ``value`` is D applied to each
  row of a (B, d) block, row b at sigma[b].  ``columns`` is None, or the
  (B,) frontier gaps, (B,) weight entropies and (B, K) distances of the
  same pass, a trace row's extra columns;
- ``n_components``: K, the distance columns per trace row, and 0 for a
  model whose ``step`` gives no columns;
- ``active_mask``: the coordinates a projection can move, or None for all;
- ``sample(rng)``, a draw from the prior, and ``true_component(x)``, the
  component x lies on or None; ``simulate`` uses these for a run's truth.

``run_recoveries`` is the one implementation of the iteration.  It advances
a (B, d) block of iterates, one row per (problem, schedule) run, each row on
its own sigma_n, with one ``step`` call per trace row; ``run_recovery`` is a
batch of one.  ``simulate`` cuts its runs into one contiguous share per CPU
it may use (``taskset`` restricts that), runs the first share itself and
each other share in a forked worker process, and passes a share's runs in
batches of ``batch_width``: its memory is one BATCH_BYTES batch per worker,
however many runs it has.  A run's trace bytes do not depend on the batch
width, on which runs share the block or on the number of workers, because
no computation mixes rows: sums run along each row's own axis, and every
matrix-vector product is one BLAS gemv per row, never a gemm.

Two things keep the operator work small without giving that up.
``sensing_analysis._matvec`` multiplies a tall matrix MATVEC_ROWS rows at a
time, every row of the block against one slice before the next, so the
slice stays in cache; each output is still one gemv's dot product over one
matrix row, and the slices do not depend on B.  A projection is exactly
zero off its model's ``active_mask``, so ``run_recoveries`` forms A p from
only the FREE_BLOCK-column blocks of A that hold a free coordinate.
Dropping whole blocks keeps each kept column's position modulo FREE_BLOCK,
which leaves every gemv sum unchanged (FREE_BLOCK says where that was
checked, and up to which width), so a box run writes the same bytes as the
same run with ``box_denoiser`` passed as a ``denoise`` callable.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .sensing_analysis import SensingProblem, _matvec

# The fields each schedule kind takes besides ``kind``, in the order that
# ``to_dict`` and a config's [schedule.<name>] section write them.
_FINITE_FIELDS = ("sigma_max", "sigma_min", "horizon")
SCHEDULE_FIELDS = {
    "geometric": _FINITE_FIELDS,
    "linear": _FINITE_FIELDS,
    "cosine": _FINITE_FIELDS,
    "infinite_geometric": ("sigma_max", "a"),
}
SCHEDULE_KINDS = tuple(SCHEDULE_FIELDS)

TRACE_FORMAT_LINE = "# projdiff-trace v1"

# The fixed trace columns, in file order; dist_0 ... dist_{K-1} follow them.
TRACE_COLUMNS = ("n", "sigma", "mse", "residual", "frontier_gap", "weight_entropy")

# simulate splits its runs into batches whose per-run arrays take about this
# many bytes, so its memory does not grow with the number of runs.
BATCH_BYTES = 16 * 2**20

# A box's A p drops the blocks of this many columns of A that hold no free
# coordinate.  Each kept column keeps its position modulo FREE_BLOCK, and on
# OpenBLAS 0.3.31 (SkylakeX kernels) that leaves every gemv sum unchanged to
# the bit.  Past FREE_COLUMNS_MAX_DIM columns the kernel sums a row in
# chunks whose bounds the dropped blocks would move, and the sums change, so
# wider operators are multiplied whole.
FREE_BLOCK = 64
FREE_COLUMNS_MAX_DIM = 2048


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
        return {"kind": self.kind,
                **{key: getattr(self, key) for key in SCHEDULE_FIELDS[self.kind]}}

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


def _forward(a: np.ndarray, model):
    """p -> A p for a (B, d) block of the projections ``model`` makes.

    The FREE_BLOCK-column blocks of A that hold a coordinate of the model's
    ``active_mask`` are gathered once here, and the product equals
    ``_matvec(a, p)`` bit for bit.  With no free coordinate the gathered
    matrix has no columns, and A p is 0.
    """
    d = a.shape[1]
    if model.active_mask is None or d > FREE_COLUMNS_MAX_DIM:
        return lambda p: _matvec(a, p)
    blocks = np.pad(model.active_mask, (0, -d % FREE_BLOCK)).reshape(-1, FREE_BLOCK)
    cols = np.flatnonzero(np.repeat(blocks.any(axis=1), FREE_BLOCK)[:d])
    if cols.size == d:
        return lambda p: _matvec(a, p)
    # np.take returns C-ordered arrays, so each row is contiguous as it is
    # in A; a fancy-indexed copy is column-major and its gemv sums otherwise.
    a_free = np.take(a, cols, axis=1)
    return lambda p: _matvec(a_free, np.take(p, cols, axis=1))


def _row_dots(v: np.ndarray) -> np.ndarray:
    """v_b . v_b for each row of a (B, d) block, one BLAS dot per row."""
    return np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]


def _data_step(a: np.ndarray, mu: float, y: np.ndarray, p: np.ndarray,
               ap: np.ndarray = None) -> np.ndarray:
    """p - mu A^T (A p - y) for one vector p or for each row of a block.

    ``ap`` is A p when the caller has it, else it is computed here.
    """
    if ap is None:
        ap = _matvec(a, p)
    return p - mu * _matvec(a.T, ap - y)


def kadkhodaie_step(prior, a: np.ndarray, y: np.ndarray,
                    x: np.ndarray, sigma: float) -> np.ndarray:
    """Unit-step form: x+ = x - (data-fit direction + null-space prior direction).

    The prior direction is the residual of the model's step at one (d,)
    vector x, projected onto the complement of A^T A; algebraically
    identical to gpgd_step at mu = 1.
    """
    data_fit = a.T @ (a @ x - y)
    residual = x - prior.step(x[None], np.array([sigma]))[0][0]
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
        cols = [getattr(self, name)[:, None] for name in TRACE_COLUMNS[1:]]
        if self.subspace_distances is not None:
            cols.append(self.subspace_distances)
        values = np.hstack(cols)
        row_format = "%d" + ",%.17g" * values.shape[1] + "\n"
        header = [TRACE_FORMAT_LINE, "# " + json.dumps(self.metadata, sort_keys=True),
                  ",".join(self.column_names())]
        tmp = f"{path}.{os.getpid()}.tmp"  # not *.csv, so analyze never picks it up
        try:
            with open(tmp, "w", newline="\n") as fh:
                fh.write("\n".join(header) + "\n")
                fh.writelines(row_format % (n, *row.tolist())
                              for n, row in zip(self.n.tolist(), values))
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
        rows = [line for line in lines[3:] if line]
        try:
            # One C-level parse; it reads each value as float() does, bit for bit.
            data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if rows else None
        except ValueError:
            data = None
        if data is None or data.shape[1] != len(header):
            raise ValueError(f"{path}: malformed data rows")
        dists = data[:, len(expected):] if dist_names else None
        fixed = {name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)}
        fixed["n"] = fixed["n"].astype(int)
        return cls(**fixed, subspace_distances=dists, metadata=metadata)


def _operator_digest(operator: np.ndarray):
    """The sha256 state after the operator's bytes, the prefix of every problem_hash."""
    return hashlib.sha256(operator.tobytes())


def _problem_hash(operator_digest, problem: SensingProblem) -> str:
    digest = operator_digest.copy()
    digest.update(problem.y.tobytes())
    digest.update(format(problem.mu, ".17g").encode())
    return digest.hexdigest()[:16]


def problem_hash(problem: SensingProblem) -> str:
    return _problem_hash(_operator_digest(problem.operator), problem)


def batch_width(model, d: int, n_iters: int) -> int:
    """How many runs of ``n_iters`` steps one ``run_recoveries`` call holds in BATCH_BYTES.

    With K = ``model.n_components``, a run holds its (n_iters + 1, K)
    distance columns and, while an iteration is in flight, K (d,)
    projections and squared residuals, besides a few vectors of length d or
    n_iters + 1.  Iterates are not recorded.  At least one run always fits.
    """
    rows = int(n_iters) + 1
    k = model.n_components
    per_run = 8 * (k * (rows + 2 * d) + 8 * (d + rows))
    return max(1, BATCH_BYTES // per_run)


class _RowwiseModel:
    """A bare ``denoise(x, sigma)`` callable as a model: one call per row, no columns."""

    n_components = 0
    active_mask = None

    def __init__(self, denoise):
        self.denoise = denoise

    def step(self, x: np.ndarray, sigma: np.ndarray):
        return np.array([self.denoise(row, s) for row, s in zip(x, sigma.tolist())]), None


def run_recoveries(problems, schedules, n_iters: int, prior, x0: np.ndarray = None,
                   record_iterates: bool = False, metadata=None) -> list:
    """Run one recovery per (problem, schedule) pair, all of them in lock step.

    ``prior`` is the model whose ``step`` makes every projection.  Each
    iteration is one pass over the (B, d) block of iterates: mse and
    residual, one ``prior.step``, whose columns fill the trace row, and the
    data step.  A model with no columns is not stepped on the last row.  The
    problems must share their operator and mu; their y, x_true and seeds
    are per row.  A finite schedule's horizon may not be below ``n_iters``
    (``schedule_sigma`` raises).  ``x0`` is None (start at zero) or a (B, d)
    block, ``metadata`` None or a list of B dicts.  ``record_iterates``
    keeps each run's (n_iters + 1, d) iterates in its trace, outside what
    ``batch_width`` budgets.

    Returns one entry per run: its RecoveryTrace, or the DivergenceError of
    a run whose iterate left the finite range.  That run leaves the block
    at that iteration; the others go on.
    """
    problems, schedules = list(problems), list(schedules)
    if not problems or len(problems) != len(schedules):
        raise ValueError("need one schedule per problem, and at least one problem")
    a, mu = problems[0].operator, problems[0].mu
    for problem in problems[1:]:
        if problem.mu != mu or not (problem.operator is a or np.array_equal(problem.operator, a)):
            raise ValueError("the runs of one batch must share the operator and mu")
    n_iters = int(n_iters)
    if n_iters < 1:
        raise ValueError(f"n_iters must be >= 1, got {n_iters}")
    b_runs, d = len(problems), a.shape[1]
    forward = _forward(a, prior)
    k = prior.n_components
    x = np.zeros((b_runs, d)) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (b_runs, d):
        raise ValueError(f"x0 must have shape ({b_runs}, {d}), got {x.shape}")

    rows = n_iters + 1
    table = {s: [schedule_sigma(s, n) for n in range(rows)] for s in set(schedules)}
    sigma = np.array([table[s] for s in schedules])
    y = np.array([problem.y for problem in problems])
    truth = np.array([np.full(d, np.nan) if problem.x_true is None else problem.x_true
                      for problem in problems])
    mse = np.empty((b_runs, rows))
    residual = np.empty((b_runs, rows))
    frontier_gap = np.full((b_runs, rows), np.nan)
    weight_entropy = np.full((b_runs, rows), np.nan)
    distances = np.empty((b_runs, rows, k)) if k else None
    iterates = np.empty((b_runs, rows, d)) if record_iterates else None

    results = [None] * b_runs
    live = np.arange(b_runs)  # x, y and truth hold the rows of these runs
    for n in range(rows):
        sigma_n = sigma[live, n]
        mse[live, n] = _row_dots(x - truth) / d
        residual[live, n] = np.sqrt(_row_dots(_matvec(a, x) - y))
        if record_iterates:
            iterates[live, n] = x
        if n == n_iters and not k:
            break
        p, columns = prior.step(x, sigma_n)
        if columns is not None:
            frontier_gap[live, n], weight_entropy[live, n], distances[live, n] = columns
        if n == n_iters:
            break
        x = _data_step(a, mu, y, p, forward(p))
        finite = np.all(np.isfinite(x), axis=1)
        if not finite.all():
            for b in live[~finite]:
                results[b] = DivergenceError(
                    f"iterate left the finite range at iteration {n + 1}", n + 1
                )
            live, x, y, truth = live[finite], x[finite], y[finite], truth[finite]
            if live.size == 0:
                break

    operator_digest = _operator_digest(a)
    for b in live:
        problem = problems[b]
        trace = RecoveryTrace(
            n=np.arange(rows),
            sigma=sigma[b],
            mse=mse[b],
            residual=residual[b],
            frontier_gap=frontier_gap[b],
            weight_entropy=weight_entropy[b],
            subspace_distances=distances[b] if k else None,
            iterates=iterates[b] if record_iterates else None,
            metadata=dict(metadata[b] or {}) if metadata is not None else {},
        )
        trace.metadata.setdefault("format", "projdiff-trace")
        trace.metadata.update(
            problem_hash=(_problem_hash(operator_digest, problem) if problem.operator is a
                          else problem_hash(problem)),
            schedule=schedules[b].to_dict(),
            mu=mu,
            seed=problem.seed,
        )
        results[b] = trace
    return results


def run_recovery(problem: SensingProblem, denoise, schedule: NoiseSchedule,
                 x0: np.ndarray = None, n_iters: int = None,
                 record_iterates: bool = False, prior=None,
                 metadata: dict = None) -> RecoveryTrace:
    """Run the iteration for n_iters steps, recording one row per iterate.

    This is ``run_recoveries`` on a batch of one, so its trace is
    byte-identical to the same run's trace in any batch.  The model
    ``prior`` makes each step, and ``denoise`` may then be None.  Without
    one, ``denoise`` is any callable (x, sigma) -> array, applied row by
    row, and the trace has no mixture columns.  There is no early stopping:
    the run performs n_iters steps unless an iterate leaves the finite
    range, which raises DivergenceError.
    """
    if prior is None:
        if denoise is None:
            raise ValueError("run_recovery needs a prior or a denoise callable")
        prior = _RowwiseModel(denoise)
    if n_iters is None:
        if schedule.kind == "infinite_geometric":
            raise ValueError("n_iters is required for an infinite schedule")
        n_iters = schedule.horizon
    (result,) = run_recoveries([problem], [schedule], n_iters, prior,
                               x0=None if x0 is None else np.asarray(x0, dtype=float)[None],
                               record_iterates=record_iterates,
                               metadata=None if metadata is None else [metadata])
    if isinstance(result, DivergenceError):
        raise result
    return result
