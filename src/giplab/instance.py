"""Problem instances: generation, validation, and the GIPLAB v1 file format.

An instance is the data (A, b, c) of the binary program

    max c @ x   s.t.   A @ x <= b,   x in {0,1}^n

with A (m x n) and c drawn with i.i.d. standard normal entries and b chosen
by a :class:`BSpec`.  Instances are immutable after construction and freely
shareable across workers.

The on-disk format is a self-describing UTF-8 text document::

    GIPLAB v1
    <m> <n>
    <b-spec descriptor>
    <seed token or ->
    <m lines of b>
    <n lines of c>
    <m rows of A, n whitespace-separated entries each>

Numbers are rendered as shortest round-trip decimals, so serialization is
bit-exact and diffable.  The document is made piece by piece: the header,
b, c, then each A row from its own ``tolist()``.  :func:`write_instance`
writes each piece as it is formatted and :func:`serialize` joins the same
pieces.  The reader parses A with numpy's C text reader.  A per-token pass
with ``float()`` runs only when that reader refuses the block, finds a
count other than m*n or a value that is not finite: it accepts what
``float()`` accepts and exists to name the first bad field in document
order.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .rng import RngHandle, gaussian_matrix

__all__ = [
    "BSpec",
    "InstanceMeta",
    "Instance",
    "InstanceFormatError",
    "generate",
    "validate_b",
    "serialize",
    "deserialize",
    "write_instance",
    "read_instance",
]

MAGIC = "GIPLAB v1"


class InstanceFormatError(ValueError):
    """Raised on malformed instance documents; the message names the field."""


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
        parts = text.split()
        if not parts:
            raise InstanceFormatError("empty b_spec descriptor")
        kind = parts[0]
        if kind not in cls._KINDS:
            raise InstanceFormatError(f"unknown b_spec kind: {kind!r}")
        if kind in ("zeros", "gaussian"):
            if len(parts) > 1:
                raise InstanceFormatError(f"b_spec {kind!r} takes no values")
            return cls(kind)
        try:
            values = tuple(float(tok) for tok in parts[1:])
        except ValueError as exc:
            raise InstanceFormatError(f"bad b_spec value: {exc}") from None
        try:
            return cls(kind, values)
        except ValueError as exc:  # no values, or a value that is not finite
            raise InstanceFormatError(str(exc)) from None

    def build_b(self, m: int, n: int, rng: RngHandle | None) -> np.ndarray:
        if self.kind == "zeros":
            return np.zeros(m)
        if self.kind == "gaussian":
            if rng is None:
                raise ValueError("gaussian b_spec needs an rng")
            return rng.gen.standard_normal(m)
        values = np.asarray(self.values, dtype=float)
        if values.shape != (m,):
            raise ValueError(
                f"b_spec {self.kind!r} has {values.size} values, expected {m}"
            )
        if self.kind == "scaled_ones":
            return values * n
        return values.copy()


@dataclass(frozen=True)
class InstanceMeta:
    """Provenance: generator identity token and b recipe."""

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
    a = gaussian_matrix(m, n, rng)
    c = rng.gen.standard_normal(n)
    b = b_spec.build_b(m, n, rng)
    meta = InstanceMeta(seed=rng.key, b_spec=b_spec.descriptor())
    return Instance(m=m, n=n, A=a, b=b, c=c, meta=meta)


def validate_b(instance: Instance) -> bool:
    """True iff the negative part of b has 2-norm at most n/10."""
    neg = np.minimum(instance.b, 0.0)
    return bool(np.linalg.norm(neg) <= instance.n / 10.0)


def _lines(instance: Instance):
    """The document as lines without line ends: the four header lines, b
    and c as one block each (an entry a line), then the A rows.  Each is
    formatted when it is asked for, so an A row holds Python floats for its
    own n entries only."""
    meta = instance.meta
    yield MAGIC
    yield f"{instance.m} {instance.n}"
    yield meta.b_spec
    yield meta.seed if meta.seed is not None else "-"
    for vec in (instance.b, instance.c):
        yield "\n".join(map(repr, np.asarray(vec, dtype=float).tolist()))
    for row in np.asarray(instance.A, dtype=float):
        yield " ".join(map(repr, row.tolist()))


def serialize(instance: Instance) -> bytes:
    return ("\n".join(_lines(instance)) + "\n").encode("utf-8")


def _parse_float(tok: str, what: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise InstanceFormatError(f"bad {what}: {tok!r}") from None
    if not np.isfinite(value):
        raise InstanceFormatError(f"non-finite {what}: {tok!r}")
    return value


def _parse_floats(toks: list[str], what: Callable[[int], str]) -> np.ndarray:
    """All tokens as finite floats, converted in bulk.

    Only when the bulk pass fails are the tokens scanned one by one, so the
    error names the first bad field, what(pos), in document order.
    """
    try:
        values = np.fromiter(map(float, toks), float, count=len(toks))
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        values = np.array(
            [_parse_float(tok, what(pos)) for pos, tok in enumerate(toks)]
        )
    return values


def _parse_a(lines: list[str], m: int, n: int) -> np.ndarray:
    """A from its block of lines: m*n entries, row-major, in any line layout.

    numpy's C reader takes the block when its rows are all the same length;
    it splits on whitespace and converts each whole field as float() does,
    with the same bits.  A block it refuses, or whose count or values are
    wrong, goes to the per-token pass, which names the first bad field.
    """
    # loadtxt warns on a block with no data; the per-token pass reports it
    if any(ln and not ln.isspace() for ln in lines):
        try:
            a = np.loadtxt(lines, comments=None)
        except ValueError:
            a = None
        if a is not None and a.size == m * n and np.isfinite(a).all():
            return a.reshape(m, n)
    toks = " ".join(lines).split()
    if len(toks) != m * n:
        raise InstanceFormatError(f"A: expected {m * n} entries, got {len(toks)}")
    return _parse_floats(toks, lambda pos: f"A[{pos // n},{pos % n}]").reshape(m, n)


def deserialize(data: bytes) -> Instance:
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise InstanceFormatError("document is not UTF-8 text") from None
    if not lines:
        raise InstanceFormatError("empty document (missing header)")
    if lines[0].strip() != MAGIC:
        raise InstanceFormatError(f"bad header line: {lines[0]!r}")
    if len(lines) < 4:
        missing = ("dimensions", "b_spec descriptor", "seed token")[len(lines) - 1]
        raise InstanceFormatError(f"truncated document (missing {missing})")
    dims = lines[1].split()
    if len(dims) != 2:
        raise InstanceFormatError(f"bad dimension line: {lines[1]!r}")
    try:
        m, n = int(dims[0]), int(dims[1])
    except ValueError:
        raise InstanceFormatError(f"bad dimension line: {lines[1]!r}") from None
    if m < 1 or n < 1:
        raise InstanceFormatError(f"dimensions must be positive: {lines[1]!r}")
    b_spec_text = lines[2].strip()
    BSpec.parse(b_spec_text)  # validates the descriptor
    seed_tok = lines[3].strip()
    seed = None if seed_tok == "-" else seed_tok

    body = lines[4:]
    if len(body) < m + n:
        raise InstanceFormatError(
            f"truncated document: expected {m + n} vector lines, got {len(body)}"
        )
    b = _parse_floats([ln.strip() for ln in body[:m]], lambda i: f"b[{i}]")
    c = _parse_floats(
        [ln.strip() for ln in body[m : m + n]], lambda i: f"c[{i}]"
    )
    a = _parse_a(body[m + n :], m, n)
    meta = InstanceMeta(seed=seed, b_spec=b_spec_text)
    return Instance(m=m, n=n, A=a, b=b, c=c, meta=meta)


def write_instance(path, instance: Instance) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for text in _lines(instance):
            fh.write(text)
            fh.write("\n")


def read_instance(path) -> Instance:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
