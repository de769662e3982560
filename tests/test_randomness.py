import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from projdiff.randomness import categorical, normal_matrix, normal_stream


def test_normal_stream_deterministic_per_seed():
    a = normal_stream(np.random.default_rng(99), 11)
    b = normal_stream(np.random.default_rng(99), 11)
    assert np.array_equal(a, b)
    assert a.shape == (11,)


def test_normal_stream_consumes_whole_pairs():
    # odd n burns the second half of the last pair, by design
    rng = np.random.default_rng(100)
    first = normal_stream(rng, 3)
    rest = normal_stream(rng, 2)
    fresh = np.random.default_rng(100)
    both = normal_stream(fresh, 4)
    assert np.array_equal(first, np.concatenate([both[:3], normal_stream(fresh, 0)])[:3])
    assert not np.array_equal(rest, both[3:4])  # pair boundary moved on


def test_normal_stream_edge_counts():
    assert normal_stream(np.random.default_rng(1), 0).shape == (0,)
    with pytest.raises(ValueError):
        normal_stream(np.random.default_rng(1), -1)


def _textbook_normal_stream(rng, n):
    """Box-Muller as first written: a new array for every step."""
    pairs = (n + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


@pytest.mark.parametrize("n", [1, 2, 7, 2**18 + 1])
def test_normal_stream_is_the_textbook_transform_bit_for_bit(n):
    rng, reference = np.random.default_rng(n), np.random.default_rng(n)
    assert normal_stream(rng, n).tobytes() == _textbook_normal_stream(reference, n).tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


def test_normal_stream_makes_no_temporaries_beyond_its_halves():
    n = 2**18
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        out = normal_stream(rng, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The output and the radius and angle halves: 2x; the textbook form peaks at 3.5x.
    assert peak <= 2.25 * out.nbytes, peak / out.nbytes


def test_normal_stream_is_standard_normal():
    draws = normal_stream(np.random.default_rng(101), 200_000)
    assert abs(float(np.mean(draws))) <= 4.0 / math.sqrt(draws.size)
    assert float(np.var(draws)) == pytest.approx(1.0, abs=0.02)
    # a distributional check sharper than moments
    ks = stats.kstest(draws[:20_000], "norm")
    assert ks.pvalue > 1e-4


def test_normal_matrix_is_row_major_view_of_the_stream():
    a = normal_matrix(np.random.default_rng(102), 3, 5)
    flat = normal_stream(np.random.default_rng(102), 15)
    assert np.array_equal(a, flat.reshape(3, 5))


def test_categorical_deterministic_and_in_range():
    p = np.array([0.2, 0.5, 0.3])
    a = [categorical(np.random.default_rng(s), p) for s in range(20)]
    b = [categorical(np.random.default_rng(s), p) for s in range(20)]
    assert a == b
    assert all(0 <= k < 3 for k in a)


def test_categorical_frequencies():
    p = np.array([0.2, 0.5, 0.3])
    rng = np.random.default_rng(103)
    counts = np.zeros(3)
    n = 30_000
    for _ in range(n):
        counts[categorical(rng, p)] += 1
    for k in range(3):
        margin = 3.0 * math.sqrt(n * p[k] * (1 - p[k]))
        assert abs(counts[k] - n * p[k]) <= margin


def test_categorical_handles_unnormalised_vectors():
    rng = np.random.default_rng(104)
    draws = {categorical(rng, np.array([2.0, 2.0])) for _ in range(50)}
    assert draws == {0, 1}
