"""Tests for the seeded draw source of the audit and the invariant battery."""
import math

import numpy as np
import pytest

from mweights._draws import Draws


def test_one_seed_gives_one_stream():
    a, b, c = Draws(5), Draws(5), Draws(6)
    for d in (a, b, c):
        d.lognormal(0.0, 2.0, 33)
    first, second, other = (d.integers(-3, 4, size=(4, 8)) for d in (a, b, c))
    assert np.array_equal(first, second)
    assert not np.array_equal(first, other)
    assert np.array_equal(Draws(np.int64(5)).random(16), Draws(5).random(16))


def test_uniforms_lie_on_the_53_bit_grid_of_the_unit_interval():
    d = Draws(1)
    u = np.concatenate([d.random(4096), [d.random() for _ in range(256)]])
    assert np.all((0.0 <= u) & (u < 1.0))
    scaled = u * 2.0**53
    assert np.array_equal(scaled, np.floor(scaled))
    # 53 bits, not fewer: some draw has its lowest bit set
    assert np.any(scaled.astype(np.int64) % 2 == 1)
    v = d.uniform(-0.4, 1.5, 4096)
    assert np.all((-0.4 <= v) & (v < 1.5))


def test_integers_hit_exactly_their_range():
    d = Draws(2)
    assert set(d.integers(-3, 4, size=4096).tolist()) == set(range(-3, 4))
    assert set(d.integers(5, size=1024).tolist()) == set(range(5))
    assert {d.integers(3) for _ in range(256)} == {0, 1, 2}
    assert {d.integers(2, 4) for _ in range(256)} == {2, 3}
    with pytest.raises(ValueError, match="empty range"):
        d.integers(4, 4)


def test_the_log_of_a_lognormal_draw_is_normal():
    n = 2**17
    z = np.log(Draws(3).lognormal(0.0, 2.0, n))
    # five standard errors: sigma / sqrt(n) for the mean, sigma / sqrt(2n)
    # for the standard deviation, sqrt(q (1 - q) / n) for a share q
    assert abs(z.mean()) < 5 * 2.0 / math.sqrt(n)
    assert abs(z.std() - 2.0) < 5 * 2.0 / math.sqrt(2 * n)
    q = math.erf(1.0 / math.sqrt(2.0))  # share within one sigma
    assert abs(np.mean(np.abs(z) < 2.0) - q) < 5 * math.sqrt(q * (1 - q) / n)
    assert np.all(np.isfinite(z))


def test_an_odd_count_of_normals_uses_a_whole_pair():
    a, b = Draws(4), Draws(4)
    odd = a.lognormal(1.0, 0.5, 7)
    even = b.lognormal(1.0, 0.5, 8)
    assert np.array_equal(a.random(3), b.random(3))  # both drew 8 uniforms
    assert odd.shape == (7,) and np.all(odd > 0.0) and np.all(even > 0.0)


def test_scalar_and_shaped_forms_agree_in_kind():
    d = Draws(7)
    for method, args in (
        (d.random, ()),
        (d.uniform, (1.0, 100.0)),
        (d.lognormal, (0.0, 2.0)),
    ):
        assert type(method(*args)) is float
        for size, shape in ((3, (3,)), ((2, 5), (2, 5)), (0, (0,))):
            out = method(*args, size=size)
            assert isinstance(out, np.ndarray) and out.dtype == np.float64
            assert out.shape == shape
    assert type(d.integers(-3, 4)) is int
    steps = d.integers(-3, 4, size=(2, 5))
    assert steps.dtype == np.int64 and steps.shape == (2, 5)


@pytest.mark.parametrize("seed, error, match", [
    (-1, ValueError, "expected non-negative integer"),
    (2.5, TypeError, "integer"),
    (None, TypeError, "integer"),
    ("3", TypeError, "integer"),
])
def test_a_seed_that_numpy_refused_is_refused(seed, error, match):
    # random.Random(-1) would silently give seed 1's stream
    with pytest.raises(error, match=match):
        Draws(seed)
