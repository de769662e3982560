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
call per trace row; ``run_recovery`` runs one ``SensingProblem``.  A run's
trace bytes do not depend on which runs share the block, and so neither on
``simulate``'s batches nor on its worker processes (``cli.cmd_simulate``
says how it cuts its runs), because no computation mixes rows: sums run
along each row's own axis, and ``_matvec`` makes every operator product of
a block either one gemv per row or, on large enough operators, gemm over
whole tiles of TILE rows, zero-padded, in which a row's sums depend on
neither its position nor its companions.  Its docstrings say on which
shapes, kernel sets and thread counts that was checked.

Two things keep the operator work small without giving that up.
``_matvec`` reads a tall matrix in slices of whole MATVEC_BLOCK-row blocks,
which stay in cache, and ``sensing_analysis.spectral_norm`` multiplies
through it as well.  A projection is exactly zero off its model's
``active_mask``, so ``run_recoveries`` forms A p from only the
FREE_BLOCK-column blocks of A that hold a free coordinate.  On the gemv
path each kept column keeps its position modulo FREE_BLOCK, which leaves
every sum unchanged (FREE_BLOCK says where that was checked, and up to
which width), so a box run writes the same bytes as the same run with
``box_denoiser`` passed as a ``denoise`` callable.  On the gemm path that
holds when the free coordinates lie in the first 128 columns, as in the
benchmark's box, and not for scattered ones (see ``_forward``).
"""

import ctypes
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DivergenceError

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

TRACE_FORMAT_LINE = "# projdiff-trace v2"

# A trace's columns in file order: TRACE_COLUMNS, then NEAREST_COLUMNS if it has them.
TRACE_COLUMNS = ("n", "sigma", "mse", "residual", "frontier_gap", "weight_entropy")
NEAREST_COLUMNS = ("nearest", "dist_nearest", "dist_second")

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

# _matvec's gemv path reads a matrix in slices of whole MATVEC_BLOCK-row
# blocks, as many as fit in MATVEC_BYTES (at least one), which stay in cache
# across the rows of a block.  Its gemm path multiplies whole tiles of TILE
# rows of a block, the last zero-padded, by MATVEC_BLOCK-row slices,
# whatever MATVEC_BYTES is.
MATVEC_BYTES = 2**20
MATVEC_BLOCK = 128
TILE = 32


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
    """a @ v for v of shape (d,) or (B, d), with bytes that do not depend on B.

    A (B, d) block meets a matrix of at least MATVEC_BLOCK rows and a
    multiple of TILE columns through gemm (``_tiled_matvec``).  Every other
    product, and every single vector (``spectral_norm``, y = A x*, a 1-D
    ``gpgd_step``), is one gemv per row of v, and a gemm's sums are not a
    gemv's: on a tile shape a row of a block and the same row alone as a
    (d,) vector differ in their last bits.  The gemv path's bytes do not
    change with the BLAS thread count, and the gemm path's are those of
    one thread, which its callers in this module set, so every operator
    product that reaches a trace or mu goes through here.
    """
    if v.ndim == 2 and _tiles(a):
        return _tiled_matvec(a, v)
    return _rowwise_matvec(a, v)


def _tiles(a: np.ndarray) -> bool:
    """Whether ``_matvec`` multiplies a (B, d) block by ``a`` in tiles."""
    return a.shape[0] >= MATVEC_BLOCK and a.shape[1] % TILE == 0


def _rowwise_matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``_matvec``'s gemv path: a @ v as one gemv per row of v, in row slices of a.

    A matrix of more than MATVEC_BLOCK rows is read in slices of whole
    MATVEC_BLOCK-row blocks, as many as fit in MATVEC_BYTES (at least one),
    and every row of v meets one slice before the next slice is read, so the
    slice stays in cache.  Each output is still one gemv's dot product over
    one matrix row, and the slices do not depend on how many rows v has.  A
    last slice under 8 rows joins the one before it: numpy hands a one-row
    matrix to dot, not gemv, which sums in another order.

    The bytes are those of 128-row slices.  A gemv kernel sums a row through
    one code path or another by where the row sits in its slice: in a run of
    whole groups of rows, or in the tail after them.  Slice bounds on
    multiples of MATVEC_BLOCK keep each row's position modulo MATVEC_BLOCK,
    and so its path.  The slices also keep the bytes off the BLAS thread
    count: at m = 301, d = 2048 a whole-matrix ``a @ v`` changed with
    OPENBLAS_NUM_THREADS and this did not.
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


def _tiled_matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v for each row of a (B, d) block: one gemm per tile of rows and per row slice of a.

    The block is zero-padded to whole tiles of TILE rows, and each tile
    meets each MATVEC_BLOCK-row slice of ``a`` (the last slice holds the
    rest) in one gemm.  A slice of ``a`` thus always meets one gemm shape,
    and a row's bytes depend on neither its position in its tile nor the
    other rows there.  That was checked at one OpenBLAS thread, the count
    ``run_recoveries`` and ``gpgd_step`` set around their products, for
    every position in a tile among zero or random rows, 128-row slices
    with tails of 1 to 127 rows, column counts that are multiples of TILE
    up to 4096, and matrices in C and in Fortran order, on the SkylakeX,
    Haswell, Sandybridge and Prescott kernels of OpenBLAS 0.3.31.  Outside
    it the bytes moved: other column counts (129, 301, 1000) with the
    thread count on some kernels, a whole 301-row matrix with the position
    in the tile, and, on SkylakeX, tiles of fewer than TILE rows with the
    tile's width for some slice tails, so none of those is used.  More
    threads than one moved them too, on Prescott's kernels at three or
    four threads, the box's operator among them.  The count is set once
    per call of those two, not per product.

    A tile costs about as much whatever number of its rows are live, so
    the gain over ``_rowwise_matvec`` grows with the rows in a block, and
    a block of a few rows costs more than their gemvs; README says how
    many rows a simulate worker's blocks hold.
    """
    rows, b = a.shape[0], v.shape[0]
    padded = np.zeros((-(-b // TILE) * TILE, a.shape[1]))
    padded[:b] = v
    out = np.empty((padded.shape[0], rows))
    bounds = [*range(0, rows, MATVEC_BLOCK), rows]
    for lo, hi in zip(bounds, bounds[1:]):
        block = a[lo:hi].T
        for t in range(0, padded.shape[0], TILE):
            np.matmul(padded[t:t + TILE], block, out=out[t:t + TILE, lo:hi])
    return out[:b]


def gpgd_step(denoise, a: np.ndarray, mu: float, y: np.ndarray,
              x: np.ndarray, sigma: float) -> np.ndarray:
    """x+ = P(x) - mu A^T (A P(x) - y) with P(x) = denoise(x, sigma), at one OpenBLAS thread."""
    p = denoise(x, sigma)
    with _one_blas_thread():
        return _data_step(a, mu, y, p, _matvec(a, p))


def _forward(a: np.ndarray, model):
    """p -> A p for a (B, d) block of the projections ``model`` makes.

    The FREE_BLOCK-column blocks of A that hold a coordinate of the model's
    ``active_mask`` are gathered once here and multiplied on the path that
    ``_matvec(a, p)`` takes.  On the gemv path the product equals
    ``_matvec(a, p)`` bit for bit.  On the tiled path it does when every
    free coordinate lies in the first 128 columns, as in the benchmark's
    box: gemm sums the columns of A in panels whose bounds depend on the
    column count, and the gathered matrix has fewer.  Wider leading blocks
    (from 192 columns on Prescott's kernels, 320 on Haswell's) and scattered
    blocks change the last bits.  With no free coordinate the gathered
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
    # Where A is tiled, so is a_free: it keeps the rows, and its column
    # count is a multiple of TILE when d is.  Where A is not, a_free is
    # multiplied row by row too, even if its own shape would be tiled.
    product = _matvec if _tiles(a) else _rowwise_matvec
    return lambda p: product(a_free, np.take(p, cols, axis=1))


def _row_dots(v: np.ndarray) -> np.ndarray:
    """v_b . v_b for each row of a (B, d) block, one BLAS dot per row."""
    return np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]


def _data_step(a: np.ndarray, mu: float, y: np.ndarray, p: np.ndarray,
               ap: np.ndarray) -> np.ndarray:
    """p - mu A^T (ap - y), with ap = A p, for one vector p or for each row of a block."""
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
    nearest: np.ndarray = None             # (rows,) when a union is known
    subspace_distances: np.ndarray = None  # (rows, 2): dist_nearest, dist_second
    iterates: np.ndarray = None            # (rows, d) when recorded
    metadata: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.n.shape[0]

    @property
    def final_mse(self) -> float:
        return float(self.mse[-1])

    def write_csv(self, path) -> None:
        """Write the trace; a reader never sees a partly written file at ``path``."""
        names = TRACE_COLUMNS + (NEAREST_COLUMNS if self.nearest is not None else ())
        cols = [getattr(self, name)[:, None] for name in TRACE_COLUMNS[1:]]
        if self.nearest is not None:
            cols += [self.nearest[:, None], self.subspace_distances]
        values = np.hstack(cols)
        row_format = ",".join("%d" if name in ("n", "nearest") else "%.17g" for name in names)
        header = [TRACE_FORMAT_LINE, "# " + json.dumps(self.metadata, sort_keys=True),
                  ",".join(names)]
        tmp = f"{path}.{os.getpid()}.tmp"  # not *.csv, so analyze never picks it up
        try:
            with open(tmp, "w", newline="\n") as fh:
                fh.write("\n".join(header) + "\n")
                fh.writelines(row_format % (n, *row.tolist()) + "\n"
                              for n, row in zip(self.n.tolist(), values))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def read_csv(cls, path) -> "RecoveryTrace":
        with open(path, "r", newline="") as fh:
            lines = fh.read().splitlines()
        if lines and lines[0] == "# projdiff-trace v1":
            raise ValueError(f"{path}: a v1 trace, no longer read; rerun simulate to write v2")
        if not lines or lines[0] != TRACE_FORMAT_LINE:
            raise ValueError(f"{path}: not a trace file (missing format line)")
        if len(lines) < 3 or not lines[1].startswith("# "):
            raise ValueError(f"{path}: missing metadata line")
        metadata = json.loads(lines[1][2:])
        if not isinstance(metadata, dict):
            raise ValueError(f"{path}: metadata line is not a JSON object")
        header = lines[2].split(",")
        if header not in (list(TRACE_COLUMNS), list(TRACE_COLUMNS + NEAREST_COLUMNS)):
            raise ValueError(f"{path}: unexpected columns {header}")
        rows = [line for line in lines[3:] if line]
        try:
            # One C-level parse; it reads each value as float() does, bit for bit.
            data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if rows else None
        except ValueError:
            data = None
        if data is None or data.shape[1] != len(header):
            raise ValueError(f"{path}: malformed data rows")
        n, count = data[:, 0], np.arange(len(data))
        if not np.array_equal(n, count):
            row = int(np.argmax(n != count))
            raise ValueError(f"{path}: malformed data rows: column n holds {float(n[row])!r}, "
                             f"not an iteration number: data row {row} must hold n = {row}")
        fixed = {name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)}
        fixed["n"] = count
        nearest = dists = None
        if len(header) > len(TRACE_COLUMNS):
            nearest, dists = data[:, len(TRACE_COLUMNS)], data[:, len(TRACE_COLUMNS) + 1:]
            if not np.all((nearest >= 0) & (nearest < 2**31) & (nearest == np.floor(nearest))):
                raise ValueError(f"{path}: malformed data rows: column nearest holds a non-index")
            nearest = nearest.astype(np.intp)
        return cls(**fixed, nearest=nearest, subspace_distances=dists, metadata=metadata)


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
    columns fill the trace row, and the data step.  A model with no columns
    is not stepped on the last row.  A finite schedule's horizon may not be
    below ``n_iters`` (``schedule_sigma`` raises).  ``record_iterates``
    keeps each run's (n_iters + 1, d) iterates in its trace, outside what
    ``batch_width`` budgets.

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
    live, y_live = np.arange(b_runs), y  # x, y_live and truth hold the rows of these runs
    # The products' bytes are those of one OpenBLAS thread (see _tiled_matvec).
    with _one_blas_thread():
        for n in range(rows):
            sigma_n = sigma[live, n]
            mse[live, n] = _row_dots(x - truth) / d
            residual[live, n] = np.sqrt(_row_dots(_matvec(a, x) - y_live))
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
            x = _data_step(a, mu, y_live, p, forward(p))
            finite = np.all(np.isfinite(x), axis=1)
            if not finite.all():
                for b in live[~finite]:
                    results[b] = DivergenceError(
                        f"iterate left the finite range at iteration {n + 1}", n + 1
                    )
                live, x, y_live, truth = live[finite], x[finite], y_live[finite], truth[finite]
                if live.size == 0:
                    break

    operator_digest = _operator_digest(a)
    for b in live:
        trace = RecoveryTrace(
            n=np.arange(rows),
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
