"""Problem instances: the model, its generation and its b check.

An instance is the data (A, b, c) of the binary program

    max c @ x   s.t.   A @ x <= b,   x in {0,1}^n

with A (m x n) and c drawn with i.i.d. standard normal entries and b chosen
by a :class:`BSpec`.  Instances are immutable after construction and freely
shareable across workers.  :mod:`giplab.fileformat` writes and reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .rng import RngHandle

__all__ = [
    "BSpec",
    "InstanceMeta",
    "Instance",
    "generate",
    "validate_b",
]


@dataclass(frozen=True)
class BSpec:
    """Right-hand-side recipe: zeros, scaled_ones(beta), gaussian, or explicit."""

    kind: str
    values: tuple[float, ...] | None = None

    _KINDS = ("zeros", "gaussian", "scaled_ones", "explicit")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown b_spec kind: {self.kind!r}")
        needs_values = self.kind in ("scaled_ones", "explicit")
        if needs_values and not self.values:
            raise ValueError(f"b_spec {self.kind!r} requires values")
        if not needs_values and self.values is not None:
            raise ValueError(f"b_spec {self.kind!r} takes no values")
        if self.values is not None and not all(np.isfinite(self.values)):
            raise ValueError("b_spec values must be finite")

    @classmethod
    def zeros(cls) -> "BSpec":
        return cls("zeros")

    @classmethod
    def gaussian(cls) -> "BSpec":
        return cls("gaussian")

    @classmethod
    def scaled_ones(cls, beta) -> "BSpec":
        return cls("scaled_ones", tuple(float(v) for v in np.atleast_1d(beta)))

    @classmethod
    def explicit(cls, values) -> "BSpec":
        return cls("explicit", tuple(float(v) for v in np.atleast_1d(values)))

    def descriptor(self) -> str:
        if self.values is None:
            return self.kind
        return self.kind + " " + " ".join(repr(v) for v in self.values)

    @classmethod
    def parse(cls, text: str) -> "BSpec":
        """The recipe a descriptor names; the constructor checks it."""
        parts = text.split()
        if not parts:
            raise ValueError("empty b_spec descriptor")
        try:
            values = tuple(float(tok) for tok in parts[1:])
        except ValueError as exc:
            raise ValueError(f"bad b_spec value: {exc}") from None
        return cls(parts[0], values or None)

    def check_count(self, m: int) -> None:
        """Refuse a recipe whose values do not number m, one per row."""
        if self.values is not None and len(self.values) != m:
            raise ValueError(f"b_spec {self.kind!r} has {len(self.values)} values, expected {m}")

    def build_b(self, m: int, n: int, rng: RngHandle) -> np.ndarray:
        """b for an m x n instance; the Instance checks the value count."""
        if self.kind == "zeros":
            return np.zeros(m)
        if self.kind == "gaussian":
            return rng.gen.standard_normal(m)
        values = np.asarray(self.values, dtype=float)
        if self.kind == "scaled_ones":
            return values * n
        return values.copy()


@dataclass(frozen=True)
class InstanceMeta:
    """Provenance: generator identity token and b recipe descriptor.

    The Instance that holds it checks the descriptor, so what the writer
    writes the reader reads."""

    seed: str | None
    b_spec: str


@dataclass(frozen=True, eq=False)
class Instance:
    m: int
    n: int
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    meta: InstanceMeta

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("instance dimensions must be >= 1")
        BSpec.parse(self.meta.b_spec).check_count(self.m)
        if self.A.shape != (self.m, self.n):
            raise ValueError("A has inconsistent shape")
        if self.b.shape != (self.m,):
            raise ValueError("b has inconsistent shape")
        if self.c.shape != (self.n,):
            raise ValueError("c has inconsistent shape")
        for name in ("A", "b", "c"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")

    def with_column(self, i: int, c_i: float, a_col: np.ndarray) -> "Instance":
        """Copy of the instance with objective/constraint column i replaced."""
        a = self.A.copy()
        a[:, i] = a_col
        c = self.c.copy()
        c[i] = c_i
        return replace(self, A=a, c=c)


def generate(m: int, n: int, b_spec: BSpec, rng: RngHandle) -> Instance:
    """Fresh instance: A then c from the stream, then b per the recipe.

    The draw order (A row-major, then c, then b if random) is part of the
    reproducibility contract.
    """
    a = rng.gen.standard_normal((m, n))
    c = rng.gen.standard_normal(n)
    b = b_spec.build_b(m, n, rng)
    meta = InstanceMeta(seed=rng.key, b_spec=b_spec.descriptor())
    return Instance(m=m, n=n, A=a, b=b, c=c, meta=meta)


def validate_b(instance: Instance) -> bool:
    """True iff the negative part of b has 2-norm at most n/10."""
    neg = np.minimum(instance.b, 0.0)
    return bool(np.linalg.norm(neg) <= instance.n / 10.0)
