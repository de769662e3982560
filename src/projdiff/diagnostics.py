"""Quantitative checks on traces: burn-in detection, rate fits and summary statistics.

This module reads traces only, and loads no numpy: each function takes a
``traces.RecoveryTrace``, with the lists that ``traces.parse_trace`` reads
or the arrays that ``recovery_engine.run_recoveries`` builds as its
columns, and the fits share one pure-Python least-squares line.  ``mean``
and ``median`` give what ``statistics`` gives, bit for bit, without its
import of ``fractions`` and ``decimal``; ``RateFit`` is a namedtuple, not a
dataclass, for the same reason.  The denoiser-vs-projection gap envelope
sits beside the denoiser, in ``lrgmm_prior``.
"""

import math
from collections import namedtuple

from .errors import InsufficientDataError
from .traces import RecoveryTrace, _values

MSE_FLOOR = 1e-28

MIN_FIT_POINTS = 5


def detect_burn_in(trace: RecoveryTrace, true_component: int):
    """First row index from which the nearest component stays the true one.

    A row counts only when the true component is the strict minimiser:
    ``nearest == k`` and ``dist_nearest < dist_second``.  On an exact
    distance tie (the zero start point ties all components) there is no
    nearest component yet.  Returns None when the last row still disagrees,
    and so for a k that is no component's index.  Requires the trace to
    carry the nearest-component columns.
    """
    if trace.nearest is None:
        raise ValueError("trace has no nearest-component columns")
    k = int(true_component)
    first_stable = 0
    for row, (nearest, (dist, second)) in enumerate(zip(_values(trace.nearest),
                                                        _values(trace.subspace_distances)), 1):
        if not (nearest == k and dist < second):
            first_stable = row
    return first_stable if first_stable < trace.n_rows else None


# A namedtuple: iterable, and equal to the tuple (rate, slope, r2, n_points).
RateFit = namedtuple("RateFit", ("rate", "slope", "r2", "n_points"))


def mean(values) -> float:
    """The mean of ``values`` (floats or ints) as ``float(statistics.mean(values))``.

    The finite values are summed exactly, as integers over a common
    denominator, and the sum is divided by the count in one correctly
    rounded int true division.  If any value is inf or nan, the result is
    instead the sum of those values alone, in order, over the count, as in
    ``statistics``: [1e308, 1e308, -inf] gives -inf, not nan.  The result
    is that of ``statistics`` bit for bit, but for the sign of a nan, which
    CPython's float addition does not keep fixed.
    """
    ratios, special = [], []
    for value in values:
        try:
            ratios.append(value.as_integer_ratio())
        except (OverflowError, ValueError):  # inf, nan
            special.append(value)
    count = len(ratios) + len(special)
    if count == 0:
        raise ValueError("mean of no values")
    if special:
        total = 0
        for value in special:
            total += value
        return total / count
    denominator = math.lcm(*[den for _, den in ratios])
    return sum(num * (denominator // den) for num, den in ratios) / (denominator * count)


def median(values):
    """The median of ``values`` as ``statistics.median`` gives it.

    The middle of the sorted values, or the mean (a + b) / 2 of the two in
    the middle.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    half = len(ordered) // 2
    return ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2


def _least_squares_line(xs: list, ys: list):
    """Slope and r2 of the least-squares line through the points (xs, ys).

    The sums are taken about the means, each one correctly rounded
    (``math.fsum``).  Points that share one x have no slope.
    """
    count = len(xs)
    x_mean, y_mean = math.fsum(xs) / count, math.fsum(ys) / count
    dxs = [x - x_mean for x in xs]
    dys = [y - y_mean for y in ys]
    sxx = math.fsum([dx * dx for dx in dxs])
    if sxx == 0.0:
        raise InsufficientDataError(f"all {count} points share x = {xs[0]!r}; a slope needs two")
    slope = math.fsum([dx * dy for dx, dy in zip(dxs, dys)]) / sxx
    ss_res = math.fsum([(dy - slope * dx) ** 2 for dx, dy in zip(dxs, dys)])
    ss_tot = math.fsum([dy * dy for dy in dys])
    # Equal ys lie on a flat line, though their mean, fsum(ys) / count, may
    # miss their value by an ulp and leave ss_res = ss_tot > 0.
    flat = min(ys) == max(ys)
    r2 = 1.0 if flat or ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, r2


def fit_linear_rate(trace: RecoveryTrace, from_n: int = 0) -> RateFit:
    """Per-iteration contraction factor of the root-mse, from a log-linear fit.

    Fits 0.5*log(mse_n) against n from ``from_n`` to the end of the trace,
    stopping before the first entry that is below the float floor of 1e-28
    or not finite.
    """
    from_n = int(from_n)
    if not 0 <= from_n < trace.n_rows:
        raise ValueError(f"from_n {from_n} outside trace rows")
    ys = []
    for mse in _values(trace.mse)[from_n:]:
        if not MSE_FLOOR <= mse < math.inf:  # also stops on NaN
            break
        ys.append(0.5 * math.log(mse))
    if len(ys) < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"only {len(ys)} usable mse points from n={from_n}; need {MIN_FIT_POINTS}"
        )
    ns = [float(n) for n in range(from_n, from_n + len(ys))]
    slope, r2 = _least_squares_line(ns, ys)
    return RateFit(rate=math.exp(slope), slope=slope, r2=r2, n_points=len(ys))


def fit_convex_rate(curve) -> RateFit:
    """Slope of log(gap) against log(sigma * sqrt(log(1/sigma))).

    ``curve`` is a [(sigma, gap)] list as produced by convex_gap_curve.
    Zero gaps carry no information on a log scale and are dropped; at least
    5 positive-gap points must remain.
    """
    pts = [(float(s), float(g)) for s, g in curve if g > 0.0]
    if len(pts) < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"only {len(pts)} positive-gap points; need {MIN_FIT_POINTS}"
        )
    if not all(0.0 < s < 1.0 for s, _ in pts):
        raise ValueError("sigmas must be > 0 and < 1 so that log(1/sigma) is positive")
    xs = [math.log(s * math.sqrt(math.log(1.0 / s))) for s, _ in pts]
    ys = [math.log(g) for _, g in pts]
    slope, r2 = _least_squares_line(xs, ys)
    return RateFit(rate=math.exp(slope), slope=slope, r2=r2, n_points=len(pts))
