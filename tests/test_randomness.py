import copy
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from swarmsgd.randomness import (
    derive_seed,
    make_rng,
    polar_normal,
    polar_normals,
    sampling_durations,
    splitmix64,
)

_GOLDEN = 0x9E3779B97F4A7C15


def test_splitmix64_reference_sequence():
    # Published outputs of SplitMix64 seeded with 0; walking the state
    # by the golden-ratio increment reproduces the stream.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(_GOLDEN) == 0x6E789E6AA1B965F4
    assert splitmix64((2 * _GOLDEN) % 2**64) == 0x06C45D188009454F


def test_splitmix64_range_and_determinism():
    for s in (0, 1, 2**63, 2**64 - 1, 123456789):
        v = splitmix64(s)
        assert 0 <= v < 2**64
        assert v == splitmix64(s)


def test_derive_seed_deterministic_and_path_sensitive():
    assert derive_seed(7, 3, 2) == derive_seed(7, 3, 2)
    assert derive_seed(7, 3, 2) != derive_seed(7, 2, 3)
    assert derive_seed(7, 3) != derive_seed(8, 3)
    assert derive_seed(7) != derive_seed(7, 0)


def test_derive_seed_no_collisions_over_grid():
    seen = set()
    for master in range(4):
        for rep in range(64):
            for tag in range(1, 6):
                seen.add(derive_seed(master, rep, tag))
    assert len(seen) == 4 * 64 * 5


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_derive_seed_in_64_bit_range(master):
    assert 0 <= derive_seed(master, 11, 3) < 2**64


def test_make_rng_reproducible():
    a = make_rng(99).random(5)
    b = make_rng(99).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(100).random(5))


def test_polar_normal_moments():
    rng = make_rng(12345)
    n = 200_000
    xs = np.array([polar_normal(rng) for _ in range(20_000)])
    se = 1.0 / np.sqrt(xs.size)
    assert abs(xs.mean()) < 4 * se
    assert abs(xs.var() - 1.0) < 0.05

    ys = polar_normals(make_rng(54321), n)
    assert ys.shape == (n,)
    assert abs(ys.mean()) < 4 / np.sqrt(n)
    assert abs(ys.var() - 1.0) < 0.02


def test_polar_normals_distribution():
    ys = polar_normals(make_rng(777), 100_000)
    stat, p = stats.kstest(ys, "norm")
    assert p > 1e-3


def test_polar_normals_edge_counts():
    assert polar_normals(make_rng(1), 0).shape == (0,)
    assert polar_normals(make_rng(1), 1).shape == (1,)
    assert polar_normals(make_rng(1), 3).shape == (3,)
    with pytest.raises(ValueError):
        polar_normals(make_rng(1), -1)


def test_polar_normals_deterministic():
    assert np.array_equal(polar_normals(make_rng(5), 100), polar_normals(make_rng(5), 100))


def test_polar_normal_is_a_one_variate_polar_normals():
    for seed in range(20):
        rng = make_rng(seed)
        twin = copy.deepcopy(rng)
        assert polar_normal(rng) == polar_normals(twin, 1)[0]
        assert rng.bit_generator.state == twin.bit_generator.state


def test_sampling_durations_redraw_a_zero(zero_first_exponential):
    rng = zero_first_exponential(3)
    durations = sampling_durations(rng, 0.5, 4)
    assert rng.exponential_calls == 2
    assert durations.shape == (4,) and np.all(durations > 0.0)


class _NoDraws:
    def exponential(self, scale, size):
        raise AssertionError("a draw was made")


def test_sampling_durations_refuse_a_mean_that_is_not_positive():
    # Every draw of mean 0 is 0, so the redraw loop would never end; the
    # mean is refused before the first draw.
    for mean in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="mean_time must be positive"):
            sampling_durations(_NoDraws(), mean, 4)
    assert sampling_durations(make_rng(0), 5e-324, 4).min() > 0.0


def _einsum_polar_normals(rng, n):
    """The polar method as first written, over a (pairs, 2) array with an
    einsum norm and a boolean row mask, and the C library's log: the
    reference for its bits."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        pairs = max(8, int((n - filled) * 0.7) + 4)
        v = 2.0 * rng.random((pairs, 2)) - 1.0
        s = np.einsum("ij,ij->i", v, v)
        keep = (s > 0.0) & (s < 1.0)
        sk = s[keep]
        factor = np.sqrt(-2.0 * np.array([math.log(x) for x in sk.tolist()]) / sk)
        accepted = (v[keep] * factor[:, None]).ravel()
        take = min(accepted.size, n - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out


@pytest.mark.parametrize("n", [1, 7, 100, 256, 1000, 1024, 4096])
def test_polar_normals_match_the_einsum_version(n, arithmetic):
    for seed in range(200):
        rng, twin = make_rng(seed), make_rng(seed)
        assert polar_normals(rng, n).tobytes() == _einsum_polar_normals(twin, n).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
