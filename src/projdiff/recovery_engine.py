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
  (B,) frontier gaps, weight entropies and nearest components, and the
  (B, 2) distances to the nearest and the next nearest, of the same pass:
  a trace row's extra columns, the same three whatever K is;
- ``n_components``: K, by which ``batch_width`` sizes a step's
  projections, and 0 for a model whose ``step`` gives no columns;
- ``ambient_dim``: d, the length of a row; ``config.build`` sizes the
  operator by it and ``simulate`` passes it to ``batch_width``;
- ``active_mask``: the coordinates a projection can move, or None for all;
- ``sample(rng)``, a draw from the prior, and ``true_component(x)``, the
  component x lies on or None; ``simulate`` uses these for a run's truth.

``run_recoveries`` is the one implementation of the iteration.  It takes
the operator A and mu once for a batch and advances a (B, d) block of
iterates, one row per run with its own y and sigma_n, with one ``step``
call per trace row; ``run_recovery`` runs one ``SensingProblem``.  Each
run's record is a ``traces.RecoveryTrace`` whose columns are arrays;
``traces`` alone writes and reads the trace file.  A run's
trace bytes do not depend on which runs share the block, and so neither on
``simulate``'s batches nor on its worker processes (``simulate.run``
says how it cuts its runs), because no computation mixes rows: sums run
along each row's own axis, and ``_matvec`` makes every operator product of
a block one gemv per row, whose sums depend on neither the row's position
nor its companions.

Three things keep the operator work small without giving that up.  A step
makes its own residual r = A p - y, and with x+ = p - mu A^T r the next
iterate's residual is A x+ - y = r - mu G r, G = A A^T, so no step
multiplies by A x+: ``run_recoveries`` builds G once and the trace's
residual column is the norm of that carried residual, which agrees with
||A x_n - y|| to rounding.  ``_matvec`` reads a tall matrix in slices of
whole MATVEC_BLOCK-row blocks, which stay in cache, and
``sensing_analysis.spectral_norm`` multiplies through it as well.  A
projection is exactly zero off its model's ``active_mask``, so
``run_recoveries`` forms A p from only the FREE_BLOCK-column blocks of A
that hold a free coordinate.  Each kept column keeps its position modulo
FREE_BLOCK, which leaves every sum unchanged (FREE_BLOCK says where that
was checked, and up to which width), so a box run writes the same bytes as
the same run with ``box_denoiser`` passed as a ``denoise`` callable.
"""

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergenceError
from .traces import RecoveryTrace

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

# simulate splits its runs into batches whose per-run arrays take about this
# many bytes, so its memory does not grow with the number of runs.
BATCH_BYTES = 16 * 2**20

# A box's A p drops the blocks of this many columns of A that hold no free
# coordinate.  Each kept column keeps its position modulo FREE_BLOCK, and on
# OpenBLAS 0.3.31 (SkylakeX, Haswell, Sandybridge and Prescott kernels) that
# leaves every gemv sum unchanged to the bit.  Past FREE_COLUMNS_MAX_DIM
# columns the kernel sums a row in chunks whose bounds the dropped blocks
# would move, and the sums change, so wider operators are multiplied whole.
FREE_BLOCK = 64
FREE_COLUMNS_MAX_DIM = 2048

# _matvec reads a matrix in slices of whole MATVEC_BLOCK-row blocks, as many
# as fit in MATVEC_BYTES (at least one), which stay in cache across the rows
# of a block.
MATVEC_BYTES = 2**20
MATVEC_BLOCK = 128


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
        # The linear schedule and the denoisers square sigma, so sigma_max^2 must be finite.
        if not (self.sigma_max > 0.0 and math.isfinite(self.sigma_max * self.sigma_max)):
            raise ValueError(f"sigma_max must be positive with a finite square, "
                             f"got {self.sigma_max}")
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


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for v of shape (d,) or (B, d): one gemv per row of v, in row slices of a.

    A matrix of more than MATVEC_BLOCK rows is read in slices of whole
    MATVEC_BLOCK-row blocks, as many as fit in MATVEC_BYTES (at least one),
    and every row of v meets one slice before the next slice is read, so the
    slice stays in cache.  Each output is still one gemv's dot product over
    one matrix row, and the slices do not depend on how many rows v has, so
    a row's bytes are the same alone as a (d,) vector and anywhere in a
    block.  A last slice under 8 rows joins the one before it: numpy hands a
    one-row matrix to dot, not gemv, which sums in another order.

    The bytes are those of 128-row slices.  A gemv kernel sums a row through
    one code path or another by where the row sits in its slice: in a run of
    whole groups of rows, or in the tail after them.  Slice bounds on
    multiples of MATVEC_BLOCK keep each row's position modulo MATVEC_BLOCK,
    and so its path.  The slices also keep the bytes off the BLAS thread
    count: at m = 301, d = 2048 a whole-matrix ``a @ v`` changed with
    OPENBLAS_NUM_THREADS and this did not.  Every operator product that
    reaches a trace or mu goes through here.
    """
    rows, cols = a.shape
    step = MATVEC_BLOCK * max(1, MATVEC_BYTES // max(1, MATVEC_BLOCK * cols * a.itemsize))
    starts = range(0, rows - 7, step)
    if len(starts) < 2:
        return np.matmul(a, v[..., None])[..., 0]
    out = np.empty(v.shape[:-1] + a.shape[:1])
    for lo, hi in zip(starts, [*starts[1:], rows]):
        out[..., lo:hi] = np.matmul(a[lo:hi], v[..., None])[..., 0]
    return out


@lru_cache(maxsize=None)
def _openblas_function(name):
    """numpy's bundled OpenBLAS's ``<name>`` function through ctypes, or None without one.

    numpy 2's wheels bundle scipy-openblas, whose symbols carry a
    ``scipy_openblas_`` prefix and a ``64_`` suffix.
    """
    try:
        from numpy._core import _multiarray_umath

        return getattr(ctypes.CDLL(_multiarray_umath.__file__),
                       f"scipy_openblas_{name}64_", None)
    except (ImportError, OSError):
        return None


def _openblas_string(name):
    """What the bundled OpenBLAS's ``get_<name>`` returns, or None without one."""
    getter = _openblas_function(f"get_{name}")
    if getter is None:
        return None
    getter.restype = ctypes.c_char_p
    return getter().decode()


@contextmanager
def _one_blas_thread():
    """Run the block with the bundled OpenBLAS at one thread, then restore its count.

    The products' bytes do not depend on the thread count (see
    ``_matvec``); the pin is for speed.  ``simulate`` runs one worker per
    CPU, and workers that each ran OpenBLAS's own threads would
    oversubscribe the CPUs they split: without this pin and
    ``simulate._run_forked``'s, the benchmark's box ``simulate`` on 2 CPUs took
    0.565 s against 0.528 s (medians of 10, alternating).

    Without the bundled OpenBLAS's thread calls, or at one thread already,
    this does nothing: in a forked child, whose OpenBLAS threads stopped at
    the fork, setting the count starts them again, and they spin beside the
    other workers (that cost a box ``simulate`` 10 to 15 % when it was set
    around every product, and the sparse workload's 24 % when set once per
    ``run_recoveries`` call).
    """
    get, set_ = _openblas_function("get_num_threads"), _openblas_function("set_num_threads")
    if get is None or set_ is None or get() == 1:
        yield
        return
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def gpgd_step(denoise, a: np.ndarray, mu: float, y: np.ndarray,
              x: np.ndarray, sigma: float) -> np.ndarray:
    """x+ = P(x) - mu A^T (A P(x) - y) with P(x) = denoise(x, sigma), at one OpenBLAS thread."""
    p = denoise(x, sigma)
    with _one_blas_thread():
        return p - mu * _matvec(a.T, _matvec(a, p) - y)


def _forward(a: np.ndarray, model):
    """p -> A p for a (B, d) block of the projections ``model`` makes, bit for bit.

    The FREE_BLOCK-column blocks of A that hold a coordinate of the model's
    ``active_mask`` are gathered once here, and the product with them
    equals ``_matvec(a, p)`` bit for bit.  With no free coordinate the
    gathered matrix has no columns, and A p is 0.
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


def _operator_digest(operator: np.ndarray):
    """The sha256 state after the operator's bytes, the prefix of every ``_problem_hash``.

    The bytes are ``operator.tobytes()``, its entries in C order.  A
    C-contiguous operator is hashed from its own buffer, with no copy.
    """
    import hashlib  # here, so that reading traces does not load it

    return hashlib.sha256(np.ascontiguousarray(operator))


def _problem_hash(operator_digest, y: np.ndarray, mu: float) -> str:
    digest = operator_digest.copy()
    digest.update(y.tobytes())
    digest.update(format(mu, ".17g").encode())
    return digest.hexdigest()[:16]


def batch_width(model, d: int, n_iters: int) -> int:
    """How many runs of ``n_iters`` steps one ``run_recoveries`` call holds in BATCH_BYTES.

    A run holds its trace, eight values per row, and, while an iteration
    is in flight, K = ``model.n_components`` (d,) projections and squared
    residuals, besides a few vectors of length d.  Iterates are not
    recorded.  At least one run always fits.
    """
    per_run = 8 * (2 * model.n_components * d + 8 * (d + int(n_iters) + 1))
    return max(1, BATCH_BYTES // per_run)


class _RowwiseModel:
    """A bare ``denoise(x, sigma)`` callable as a model: one call per row, no columns."""

    n_components = 0
    active_mask = None

    def __init__(self, denoise):
        self.denoise = denoise

    def step(self, x: np.ndarray, sigma: np.ndarray):
        return np.array([self.denoise(row, s) for row, s in zip(x, sigma.tolist())]), None


def run_recoveries(a: np.ndarray, mu: float, y: np.ndarray, schedules, n_iters: int, prior,
                   x_true: np.ndarray = None, seeds=None, x0: np.ndarray = None,
                   record_iterates: bool = False, metadata=None) -> list:
    """Run one recovery per schedule, all in lock step on the operator ``a`` and step ``mu``.

    Run b measures row b of the (B, m) block ``y`` and follows
    ``schedules[b]``; ``x_true`` and ``x0`` are None or (B, d) blocks (mse
    is NaN without a truth, and runs start at zero without x0), ``seeds``
    and ``metadata`` None or B values.  ``prior`` is the model whose
    ``step`` makes every projection.  Each iteration is one pass over the
    (B, d) block of iterates: mse and residual, one ``prior.step``, whose
    columns fill the trace row, and the data step, which carries each run's
    residual A x - y forward through G = A A^T (see the module docstring).
    A model with no columns is not stepped on the last row.  A finite
    schedule's horizon may not be below ``n_iters`` (``schedule_sigma``
    raises).  ``record_iterates`` keeps each run's (n_iters + 1, d)
    iterates in its trace, outside what ``batch_width`` budgets.

    Returns one entry per run: its RecoveryTrace, or the DivergenceError of
    a run whose iterate left the finite range.  That run leaves the block
    at that iteration; the others go on.
    """
    schedules, mu, n_iters = list(schedules), float(mu), int(n_iters)
    if not schedules:
        raise ValueError("need at least one run")
    if n_iters < 1:
        raise ValueError(f"n_iters must be >= 1, got {n_iters}")
    b_runs, (m, d) = len(schedules), a.shape
    y = np.array(y, dtype=float)
    truth = np.full((b_runs, d), np.nan) if x_true is None else np.array(x_true, dtype=float)
    x = np.zeros((b_runs, d)) if x0 is None else np.array(x0, dtype=float)
    for name, block, width in (("y", y, m), ("x_true", truth, d), ("x0", x, d)):
        if block.shape != (b_runs, width):
            raise ValueError(f"{name} must have shape ({b_runs}, {width}), got {block.shape}")
    forward = _forward(a, prior)
    k = prior.n_components

    rows = n_iters + 1
    table = {s: [schedule_sigma(s, n) for n in range(rows)] for s in set(schedules)}
    sigma = np.array([table[s] for s in schedules])
    mse = np.empty((b_runs, rows))
    residual = np.empty((b_runs, rows))
    frontier_gap = np.full((b_runs, rows), np.nan)
    weight_entropy = np.full((b_runs, rows), np.nan)
    nearest = np.empty((b_runs, rows), dtype=np.intp) if k else None
    distances = np.empty((b_runs, rows, 2)) if k else None
    iterates = np.empty((b_runs, rows, d)) if record_iterates else None

    results = [None] * b_runs
    live, y_live = np.arange(b_runs), y  # x, r, y_live and truth hold the rows of these runs
    with _one_blas_thread():
        g = _matvec(a, a)  # G = A A^T: A x+ - y = r - mu G r for r = A p - y
        r = _matvec(a, x) - y_live
        for n in range(rows):
            sigma_n = sigma[live, n]
            mse[live, n] = _row_dots(x - truth) / d
            residual[live, n] = np.sqrt(_row_dots(r))
            if record_iterates:
                iterates[live, n] = x
            if n == n_iters and not k:
                break
            p, columns = prior.step(x, sigma_n)
            if columns is not None:
                (frontier_gap[live, n], weight_entropy[live, n],
                 nearest[live, n], distances[live, n]) = columns
            if n == n_iters:
                break
            r = forward(p) - y_live
            x = p - mu * _matvec(a.T, r)
            r = r - mu * _matvec(g, r)
            finite = np.all(np.isfinite(x), axis=1)
            if not finite.all():
                for b in live[~finite]:
                    results[b] = DivergenceError(
                        f"iterate left the finite range at iteration {n + 1}", n + 1
                    )
                live, x, r = live[finite], x[finite], r[finite]
                y_live, truth = y_live[finite], truth[finite]
                if live.size == 0:
                    break

    operator_digest = _operator_digest(a)
    for b in live:
        trace = RecoveryTrace(
            sigma=sigma[b],
            mse=mse[b],
            residual=residual[b],
            frontier_gap=frontier_gap[b],
            weight_entropy=weight_entropy[b],
            nearest=nearest[b] if k else None,
            subspace_distances=distances[b] if k else None,
            iterates=iterates[b] if record_iterates else None,
            metadata=dict(metadata[b] or {}) if metadata is not None else {},
        )
        trace.metadata.setdefault("format", "projdiff-trace")
        trace.metadata.update(
            problem_hash=_problem_hash(operator_digest, y[b], mu),
            schedule=schedules[b].to_dict(),
            mu=mu,
            seed=None if seeds is None else seeds[b],
        )
        results[b] = trace
    return results


@dataclass(frozen=True)
class SensingProblem:
    """One run's measurements y = A x_true with step size mu, checked for ``run_recovery``."""

    operator: np.ndarray
    mu: float
    y: np.ndarray
    x_true: np.ndarray = None
    seed: int = None

    def __post_init__(self):
        a, mu = np.asarray(self.operator, dtype=float), float(self.mu)
        if a.ndim != 2:
            raise ValueError(f"operator must be a matrix, got shape {a.shape}")
        if not (mu > 0.0 and math.isfinite(mu)):
            raise ValueError(f"mu must be positive, got {mu}")
        object.__setattr__(self, "mu", mu)
        names = ("operator", "y") if self.x_true is None else ("operator", "y", "x_true")
        for name, shape in zip(names, (a.shape, a.shape[:1], a.shape[1:])):
            value = np.asarray(getattr(self, name), dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} entries must be finite")
            object.__setattr__(self, name, value)
        if self.x_true is not None:
            misfit = np.linalg.norm(self.y - a @ self.x_true)
            if misfit > 1e-10 * max(np.linalg.norm(self.y), 1e-300):
                raise ValueError(f"x_true does not reproduce y: ||y - A x_true|| = {misfit:.3e}")


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
    (result,) = run_recoveries(
        problem.operator, problem.mu, problem.y[None], [schedule], n_iters, prior,
        x_true=None if problem.x_true is None else problem.x_true[None], seeds=[problem.seed],
        x0=None if x0 is None else np.asarray(x0, dtype=float)[None],
        record_iterates=record_iterates, metadata=None if metadata is None else [metadata])
    if isinstance(result, DivergenceError):
        raise result
    return result
