"""Seed derivation, standard normals and exponential sampling durations.

Every stochastic routine in this package draws from a numpy Generator
seeded through ``derive_seed``, so a whole experiment is reproducible
from one master seed plus a documented integer path (replication index,
stream tag).
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One output of the SplitMix64 mixer for the given 64-bit state."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a 64-bit sub-seed from a master seed and an integer path.

    Each path element is folded through SplitMix64, so distinct paths
    land on statistically independent seeds: ``derive_seed(s, r, 1)``
    and ``derive_seed(s, r, 2)`` give unrelated streams for the same
    replication index ``r``.
    """
    seed = splitmix64(master_seed & _MASK64)
    for index in path:
        seed = splitmix64((seed + (index & _MASK64)) & _MASK64)
    return seed


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK64))


def polar_normal(rng: np.random.Generator) -> float:
    """One standard normal: a one-variate call of ``polar_normals``."""
    return float(polar_normals(rng, 1)[0])


def polar_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` standard normals via the vectorized Marsaglia polar method."""
    if n < 0:
        raise ValueError(f"need a nonnegative count, got {n}")
    out = np.empty(n)
    filled = 0
    while filled < n:
        # Acceptance rate is pi/4 and each accepted pair yields two
        # variates, so 0.7x the deficit in candidate pairs usually
        # finishes in one round.
        pairs = max(8, int((n - filled) * 0.7) + 4)
        v = 2.0 * rng.random((pairs, 2)) - 1.0
        s = np.einsum("ij,ij->i", v, v)
        keep = (s > 0.0) & (s < 1.0)
        vk = v[keep]
        sk = s[keep]
        factor = np.sqrt(-2.0 * np.log(sk) / sk)
        accepted = (vk * factor[:, None]).ravel()
        take = min(accepted.size, n - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out


def sampling_durations(rng: np.random.Generator, mean_time: float, n: int) -> np.ndarray:
    """``n`` exponential sampling durations; a draw that is not positive
    is redrawn, so no sample completes instantly."""
    durations = rng.exponential(mean_time, n)
    redraw = np.flatnonzero(durations <= 0.0)
    while redraw.size:
        durations[redraw] = rng.exponential(mean_time, redraw.size)
        redraw = redraw[durations[redraw] <= 0.0]
    return durations
