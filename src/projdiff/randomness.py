"""Deterministic random draws used throughout the library.

All Gaussian variates are produced by the Box-Muller transform applied to the
uniform stream of a ``numpy.random.Generator``.  Given the same seed this
yields the same floats on every platform, which keeps simulation outputs
byte-identical across machines; ziggurat-style samplers do not give that
guarantee across numpy builds.

The transform runs in place: each step of the textbook form is the same
ufunc on the same contiguous values, its result written over an array the
draw already holds, so the floats are the textbook ones and a draw of n
variates peaks at about 2n floats: the output and its radius and angle
halves.
"""

import numpy as np


def normal_stream(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` independent N(0,1) variates from ``rng``'s uniform stream."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return np.empty(0)
    pairs = (n + 1) // 2
    # radius = sqrt(-2 log(1 - U1)); 1 - U1 lies in (0, 1], so the log is finite.
    radius = rng.random(pairs)
    np.subtract(1.0, radius, out=radius)
    angle = rng.random(pairs)
    np.log(radius, out=radius)
    np.multiply(-2.0, radius, out=radius)
    np.sqrt(radius, out=radius)
    # angle = 2 pi U2; the cosines wait in the output's first half, which the
    # interleave below overwrites only after they are read.
    np.multiply(2.0 * np.pi, angle, out=angle)
    out = np.empty(2 * pairs)
    cosine = np.cos(angle, out=out[:pairs])
    np.sin(angle, out=angle)
    np.multiply(radius, angle, out=angle)
    np.multiply(radius, cosine, out=radius)
    out[0::2] = radius
    out[1::2] = angle
    return out[:n]


def normal_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Matrix of N(0,1) entries, filled row-major from the stream."""
    return normal_stream(rng, rows * cols).reshape(rows, cols)


def categorical(rng: np.random.Generator, probabilities: np.ndarray) -> int:
    """Draw one index from a probability vector using a single uniform."""
    edges = np.cumsum(probabilities)
    u = rng.random() * edges[-1]
    return int(np.searchsorted(edges, u, side="right").clip(0, len(edges) - 1))
