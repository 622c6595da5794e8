"""Seeded random generation with explicit, replayable streams.

Every random quantity in the library flows from an :class:`RngHandle`,
identified by a (seed, stream) pair plus an optional derivation path.
Identical identities replay identical draw sequences on any platform
(Philox counter-based generator keyed through ``numpy.random.SeedSequence``),
which makes all Monte Carlo acceptance checks reproducible independent of
scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_U64 = 2**64

__all__ = [
    "RngHandle",
    "BandSample",
    "conditioned_column",
    "band_accept_prob",
    "band_acceptance_rate",
    "band_sample",
    "mixture_sample",
]


class RngHandle:
    """A single-owner random stream identified by (seed, stream[, path]).

    The handle owns a stateful generator; constructing a new handle with the
    same identity replays the same sequence.  Use :meth:`derive` to split off
    statistically independent child streams (e.g. one per trial or per
    worker) without coordinating state.  The identity is checked when the
    handle is made, but its generator is seeded on the first read of
    :attr:`gen`, so a handle that is only derived from costs no stream.
    """

    __slots__ = ("seed", "stream", "path", "_gen")

    def __init__(self, seed: int, stream: int = 0, path: tuple[int, ...] = ()):
        seed = int(seed)
        stream = int(stream)
        if not 0 <= seed < _U64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not 0 <= stream < _U64:
            raise ValueError("stream must be an unsigned 64-bit integer")
        self.seed = seed
        self.stream = stream
        self.path = tuple(int(p) for p in path)
        if min(self.path, default=0) < 0:
            raise ValueError("path entries must be nonnegative integers")
        self._gen = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            entropy = (self.seed, self.stream) + self.path
            self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        return self._gen

    def derive(self, *keys: int) -> "RngHandle":
        """Independent child stream for sub-tasks; deterministic in the keys."""
        return RngHandle(self.seed, self.stream, self.path + keys)

    @property
    def key(self) -> str:
        """Compact identity token, e.g. ``7`` or ``7/3`` or ``7/3/0/2``."""
        parts = [self.seed]
        if self.stream or self.path:
            parts.append(self.stream)
        parts.extend(self.path)
        return "/".join(str(p) for p in parts)

    def __repr__(self) -> str:
        return f"RngHandle({self.key})"


@dataclass(frozen=True)
class BandSample:
    """One proposal of the band rejection sampler.

    z = omega*y - x always holds; when `accepted` is set, z lies in [0, nu].
    """

    x: float
    y: float
    z: float
    accepted: bool


def _conditioned_draw(u: np.ndarray, gen: np.random.Generator) -> tuple[float, np.ndarray, int]:
    m = u.shape[0]
    for tries in range(1, 1_000_000):
        vec = gen.standard_normal(m + 1)
        c = float(vec[0])
        a = vec[1:]
        if c - float(u @ a) <= 0.0:
            return c, a, tries
    raise RuntimeError("conditioned draw failed to accept; generator is broken")


def conditioned_column(u, rng: RngHandle) -> tuple[float, np.ndarray]:
    """Draw (c, a) ~ N(0, I_{m+1}) conditioned on c - u @ a <= 0.

    Rejection with acceptance probability exactly 1/2 (the conditioning
    statistic is symmetric about zero); every returned sample satisfies the
    constraint exactly.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("u must be a vector")
    if not (u >= 0.0).all():
        raise ValueError("u must be nonnegative")
    c, a, _ = _conditioned_draw(u, rng.gen)
    return c, a


def _check_band(omega: float, nu: float) -> None:
    """ValueError unless omega >= 0 and nu > 0, which NaN fails."""
    if not omega >= 0.0:
        raise ValueError("omega must be nonnegative")
    if not nu > 0.0:
        raise ValueError("nu must be positive")


def band_accept_prob(omega: float, nu: float, z: float) -> float:
    """Acceptance probability of the band sampler at conditioned value z.

    phi(nu/s) / phi(z/s) for z in [0, nu] with s = sqrt(1 + omega**2),
    and 0 outside the band; a NaN z raises ValueError.
    """
    if not (omega >= 0.0 and nu > 0.0 and z == z):  # one test per draw
        _check_band(omega, nu)
        raise ValueError("z must not be NaN")
    if z < 0.0 or z > nu:
        return 0.0
    s2 = 1.0 + omega * omega
    return math.exp((z * z - nu * nu) / (2.0 * s2))


def band_acceptance_rate(omega: float, nu: float) -> float:
    """Expected acceptance rate 2*nu*phi(nu/s)/s over conditioned draws."""
    _check_band(omega, nu)
    s = math.sqrt(1.0 + omega * omega)
    phi = math.exp(-0.5 * (nu / s) ** 2) / math.sqrt(2.0 * math.pi)
    return 2.0 * nu * phi / s


def band_sample(omega: float, nu: float, rng: RngHandle) -> BandSample:
    """One proposal of the rejection sampler on the band z in [0, nu].

    Draws (x, y) i.i.d. standard normal, resamples until z = omega*y - x >= 0,
    then accepts with probability band_accept_prob(omega, nu, z).  The
    rejected draws are returned with ``accepted=False`` so callers can
    measure the acceptance rate directly.
    """
    _check_band(omega, nu)
    gen = rng.gen
    while True:
        x = float(gen.standard_normal())
        y = float(gen.standard_normal())
        z = omega * y - x
        if z >= 0.0:
            break
    accepted = float(gen.random()) < band_accept_prob(omega, nu, z)
    return BandSample(x=x, y=y, z=z, accepted=accepted)


def mixture_sample(eps: float, rng: RngHandle, size) -> np.ndarray:
    """An array of `size` draws of sqrt(eps)*U + sqrt(1-eps)*Z, U uniform
    on [-sqrt(3), sqrt(3)] and Z standard normal."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    gen = rng.gen
    u = gen.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)
    z = gen.standard_normal(size)
    return math.sqrt(eps) * u + math.sqrt(1.0 - eps) * z
