"""The GIPLAB v1 file format of instances, a self-describing UTF-8 text::

    GIPLAB v1
    <m> <n>
    <b-spec descriptor>
    <seed token or ->
    <m lines: the b block>
    <n lines: the c block>
    <the remaining lines: the A block>

Each block holds its m, n or m*n entries (A row-major) in any line layout:
whitespace separates entries and a blank line holds none.  The writer puts
b and c one entry per line and A one row per line.

Numbers are written as repr() writes them, the shortest decimal that
reads back to the same double, so serialization is bit-exact and
diffable.  One kernel, `_format`, formats the entries of b, c and A
(row-major) _CHUNK at a time with numpy operations on the whole chunk: it
decides the digits exactly and calls repr() for the 0.6% of Gaussian
entries it leaves undecided (the comment above it says which).
:func:`write_instance` writes each chunk as it is made, so the document is
never held whole, and :func:`serialize` joins the same chunks.

The reader gives each entry the bits float() gives its token.  A document
of printable ASCII, spaces and newlines goes to `_parse`, which mirrors
`_format`: _PARSE_BYTES of text at a time, it reads the digits of every
token with numpy operations on the whole chunk, decides each value
exactly and calls float() for the 0.01% of Gaussian entries it leaves
undecided (the comment above it says which).  Any other document, or one
with a block count that is wrong or a token float() refuses or reads as
not finite, goes to a per-token float() pass over its lines, which reads
it as before and names the first bad field in document order; a b_spec
the Instance refuses is an InstanceFormatError here, a ValueError elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

from .instance import BSpec, Instance, InstanceMeta

__all__ = [
    "InstanceFormatError",
    "serialize",
    "deserialize",
    "write_instance",
    "read_instance",
]

MAGIC = "GIPLAB v1"


class InstanceFormatError(ValueError):
    """Raised on malformed instance documents; the message names the field."""


# --------------------------------------------------------------------------
# The writer.  `_format` renders a float64 vector as the bytes of
# repr(x[i]) + chr(sep[i]) for every i, with numpy operations on the whole
# vector, and calls repr() itself only for the entries it does not decide.
#
# It takes an entry a = |x| with 1e-4 <= a < 1e15 that is not a power of
# two.  repr writes such a value positionally, as the shortest decimal
# inside its rounding interval [a - u/2, a + u/2] (u = ulp(a)), and of those
# the nearest to a.  With q = 16 - floor(log10(a)), N = a * 10**q lies in
# [1e16, 1e17) and the interval scales to N -+ h, h = u/2 * 10**q.  As
# 0.55 < h < 11.2, the nearest 17-digit rounding of N is always inside and
# at most one 15-digit one fits, so repr's digits are the first of N's
# nearest 15-, 16- and 17-digit roundings that lies inside.  A 15-digit
# one that ends in 0 means a shorter repr, and an entry whose nearest 16-
# or 17-digit roundings tie goes to repr(), which breaks the tie by its
# own rule.  Every step is exact: N = hi + lo is a Dekker two-product
# (10**q is a double for q <= 22), N and h are multiples of 2**-47, and the
# distances compared are below 128, so each is a double.  Neither of the
# two other ways out of this scheme happens in the taken range: the
# boundary N -+ h is a midpoint of two doubles, whose shortest decimal has
# more than 17 digits, and a rounding up to 1e17 would put 10**(17 - q)
# inside the interval of a double below it, while 10**j for j in -4..15 is
# a double or lies below its nearest one.  About 0.6% of N(0, 1) entries
# go to repr(), nearly all of them for a shorter repr.

_CHUNK = 4096  # entries per `_format` call
_POW10 = 10.0 ** np.arange(23)
_SPLITTER = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
_P_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_P_LO = _POW10 - _P_HI
# the doubles nearest 10**-4 .. 10**15; none lies below its power of ten,
# so a double is at least 10**j exactly when it is at least _DECADES[j + 4]
_DECADES = np.concatenate([1.0 / _POW10[4:0:-1], _POW10[:16]])

# A text is built in a row of _WIDTH bytes: the prefix "-0.000" in bytes
# 0-5, digit j of the 17 in byte 6 + 2j and after it, in byte 7 + 2j, the
# '.' or the separator that follows that digit.  A byte that is not part of
# the text is 0, and the rows are joined by dropping every 0 byte.
_WIDTH = 40


def _quad_words() -> np.ndarray:
    """Word v < 10000: the four digits of v, each followed by an empty byte."""
    v = np.arange(10000, dtype=np.uint16)
    quads = np.zeros((10000, 8), np.uint8)
    for byte in (6, 4, 2, 0):
        quads[:, byte] = v % 10 + 48
        v //= 10
    return quads.view("<u8").ravel()


_QUADS = _quad_words()
# masks that keep a word's four digits, or drop its last one or two
_KEEP = np.array([0xFFFFFFFFFFFFFFFF, 0xFF00FFFFFFFFFFFF, 0x00000000FFFFFFFF], np.uint64)


def _prefix(neg: bool, p: int) -> bytes:
    """Bytes 0-7 of a row whose text has p digits before its '.', less
    the first digit (byte 6) and its slot: a '-' for a negative entry, and
    "0." and -p zeros when p <= 0."""
    row = bytearray(8)
    row[0] = ord("-") if neg else 0
    if p <= 0:
        row[1:3] = b"0."
        row[6 + p:6] = b"0" * -p
    return bytes(row)


# indexed by q + 23 * (x < 0); p = 17 - q
_PREFIX = np.frombuffer(
    b"".join(_prefix(neg, 17 - q) for neg in (False, True) for q in range(23)), "<u8")
# byte of the '.' after digit p - 1; a text with p <= 0 has it in its prefix
_DOT = np.array([5 + 2 * (17 - q) if q < 17 else 2 for q in range(23)])


def _two_prod(a: np.ndarray, q: np.ndarray):
    """(hi, lo) with hi + lo = a * 10**q exactly (Dekker 1971)."""
    hi = a * _POW10[q]
    t = a * _SPLITTER
    ah = t - (t - a)
    al = a - ah
    bh, bl = _P_HI[q], _P_LO[q]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _digits(a: np.ndarray):
    """For entries 1e-4 <= a < 1e15 that are not powers of two: q, the
    rounding R = uh * 1e9 + ul of N = a * 10**q to repr's k digits, and
    whether that is left undecided (a tie, or a repr shorter than 15)."""
    _, e2 = np.frexp(a)
    q = 21 - np.searchsorted(_DECADES, a, side="right")
    hi, lo = _two_prod(a, q)
    h = np.ldexp(_POW10[q], e2 - 54)
    # N = uh * 1e9 + ul + f: integers uh < 1e8 and ul < 1e9, |f| <= 1/2
    r = np.rint(lo)
    f = lo - r
    uh = np.floor(hi / 1e9)
    ul = hi - uh * 1e9 + r
    carry = np.floor(ul / 1e9)
    uh += carry
    ul -= carry * 1e9
    # distances from N to its nearest 16- and 15-digit roundings
    t16 = ul - 10.0 * np.floor(ul / 10.0)
    t15 = ul - 100.0 * np.floor(ul / 100.0)
    x16 = t16 + f
    x15 = t15 + f
    d16 = np.minimum(np.abs(x16), 10.0 - x16)
    d15 = np.minimum(np.abs(x15), 100.0 - x15)
    ok15 = d15 < h
    ok16 = (d16 < h) & ~ok15
    tie = ~ok15 & ((x16 == 5.0) | ~ok16 & (np.abs(f) == 0.5))
    ul -= ok15 * (t15 - 100.0 * (x15 > 50.0)) + ok16 * (t16 - 10.0 * (x16 > 5.0))
    carry = ul >= 1e9
    uh += carry
    ul -= carry * 1e9
    # a 15-digit R that ends in 0 has a shorter repr
    short = ok15 & (ul - 1000.0 * np.floor(ul / 1000.0) == 0.0)
    return q, uh, ul, 17 - ok16 - 2 * ok15, tie | short


def _format(x: np.ndarray, sep: np.ndarray) -> bytes:
    """The bytes of repr(x[i]) + chr(sep[i]) for each entry of the float64
    vector x; sep holds one byte per entry."""
    a = np.abs(x)
    # a significand bit is set unless a is 0 or a power of two
    take = (a >= 1e-4) & (a < 1e15) & (x.view(np.uint64) << np.uint64(12) != 0)
    q, uh, ul, k, undecided = _digits(np.where(take, a, 1.5))
    fallback = ~take | undecided
    # digits written: k, or 16 for a 15-digit integer, which ends in ".0"
    last = np.maximum(k, 18 - q)

    # R's digits D0-D7 are uh's and D8-D16 ul's; word 0 of a row holds D0
    # and word j >= 1 holds D(4j-3)..D(4j)
    d0 = np.floor(uh / 1e7)
    d1_4 = np.floor(uh / 1e3) - d0 * 1e4
    d8 = np.floor(ul / 1e8)
    d5_8 = (uh - np.floor(uh / 1e3) * 1e3) * 10.0 + d8
    d9_12 = np.floor(ul / 1e4) - d8 * 1e4
    d13_16 = ul - np.floor(ul / 1e4) * 1e4
    n = x.size
    rows = np.empty((n, _WIDTH), np.uint8)
    words = rows.view(np.uint64)
    words[:, 0] = _PREFIX[q + 23 * (x < 0)] | (d0 + 48).astype(np.uint64) << np.uint64(48)
    words[:, 1] = _QUADS[d1_4.astype(np.intp)]
    words[:, 2] = _QUADS[d5_8.astype(np.intp)]
    words[:, 3] = _QUADS[d9_12.astype(np.intp)]
    words[:, 4] = _QUADS[d13_16.astype(np.intp)] & _KEEP[17 - last]
    start = np.arange(0, n * _WIDTH, _WIDTH)
    flat = rows.ravel()
    flat[start + _DOT[q]] = ord(".")
    end = 5 + 2 * last
    idx = np.flatnonzero(fallback)
    texts = list(map(repr, x[idx].tolist()))
    rows[idx] = 0  # the repr of a double has at most 24 characters
    rows[idx, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
    end[idx] = np.fromiter(map(len, texts), np.intp, idx.size)
    flat[start + end] = sep
    return rows.tobytes().translate(None, b"\0")


def _pieces(instance: Instance):
    """The document as byte strings: the four header lines, then the entries
    of b, c and A row-major, _CHUNK at a time.  A b or c entry and the last
    entry of an A row are followed by a newline, any other by a space."""
    m, n, meta = instance.m, instance.n, instance.meta
    seed = meta.seed if meta.seed is not None else "-"
    yield f"{MAGIC}\n{m} {n}\n{meta.b_spec}\n{seed}\n".encode("utf-8")
    parts = [np.asarray(v).reshape(-1) for v in (instance.b, instance.c, instance.A)]
    total = m + n + m * n
    for begin in range(0, total, _CHUNK):
        end = min(begin + _CHUNK, total)
        x = np.concatenate(
            [part[max(begin - at, 0):max(end - at, 0)]
             for part, at in zip(parts, (0, m, m + n))], dtype=float)
        col = np.arange(begin, end) - (m + n)  # index in A, row-major
        sep = np.where((col < 0) | (col % n == n - 1), 10, 32).astype(np.uint8)
        yield _format(x, sep)


def serialize(instance: Instance) -> bytes:
    return b"".join(_pieces(instance))


# --------------------------------------------------------------------------
# The reader.  `_parse` reads a run of text whose tokens are separated by
# ' ' and '\n' into the values float() gives them, with numpy operations on
# the whole run, and calls float() itself only for the tokens it does not
# decide.
#
# It decides a token -?d*.?d* of 1 to 24 digits whose digits spell an
# integer D < 10**17, with s digits after the '.': its value is D / 10**s.
# When D is a double (every D <= 2**53 is) and s <= 22, so is 10**s, and
# one division rounds the quotient correctly (Clinger 1990).  Otherwise
# D > 2**53, and for s <= 20 the reader runs the writer's exact test: a0 =
# fl(D) / 10**s is within two ulps of D / 10**s, and r = D - a0 * 10**s is
# exact as ((fl(D) - hi) - lo) + (D - fl(D)), with hi + lo = a0 * 10**s the
# writer's Dekker product, fl(D) - hi a Sterbenz difference and D - fl(D)
# an integer of at most 8.  With h = ulp(a0)/2 * 10**s, the answer is a0,
# or the double next to a0 on r's side when |r| > h, if r less that step's
# 2h lies strictly inside -+h.  D > 2**53 and s <= 20 put a0 above 2**-14,
# so a0 * 10**s is a multiple of 2**-46, and every quantity compared is
# such a multiple below 128, so a double.  A tie, a candidate further off,
# an a0 or neighbour that is a power of two (whose interval is lopsided)
# and a token of any other form ('e', '+', '_', more digits) go to float().
#
# The digits are read 8 at a time: the dots are dropped from the run, each
# token's last 24 bytes are read as three little-endian words, the bytes
# before its digits are masked to 0 after the ASCII '0's are cleared, and
# the SWAR combine of Lemire (2021) turns each word into its 8-digit value.

_PARSE_BYTES = 1 << 16  # bytes of text per `_parse` call, cut after a separator
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII '0's
_NON_DIGIT = np.uint64(0x7676767676767676)  # a byte above 9 plus this sets bit 7
_BIT7 = np.uint64(0x8080808080808080)
_PAIRS = np.uint64(0x000000FF000000FF)
_MUL1 = np.uint64(100 + (1000000 << 32))
_MUL2 = np.uint64(1 + (10000 << 32))
_U10, _U8, _U16, _U32 = (np.uint64(v) for v in (10, 8, 16, 32))
_E8, _E16 = np.uint64(10**8), np.uint64(10**16)
# _KEEP_HIGH[k] clears the first k bytes of a word and keeps the rest
_KEEP_HIGH = np.array([(2**64 - 1) << 8 * k & 2**64 - 1 for k in range(9)], np.uint64)
_WORD_AT = np.array([[0], [8], [16]])  # a token's 24 bytes as three words
_SIGN = np.array([1.0, -1.0])


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The value of each word of digit values 0-9, first digit in the low
    byte (Lemire 2021)."""
    v = v * _U10 + (v >> _U8)
    return ((v & _PAIRS) * _MUL1 + ((v >> _U16) & _PAIRS) * _MUL2) >> _U32


def _parse(text: bytes):
    """The values float() gives the tokens of `text`, which ends with a
    separator, and the offset of the separator after each.  None when a
    byte below 33 other than a space or a newline separates them, or when
    float() refuses a token, as it does one with a byte that is not
    printable ASCII, or reads it as a value that is not finite."""
    raw = np.frombuffer(text, np.uint8)
    sep = np.flatnonzero(raw <= 32)
    gaps = raw[sep]
    if not ((gaps == 32) | (gaps == 10)).all():
        return None
    start = np.concatenate(([0], sep[:-1] + 1))
    nonempty = sep > start
    if not nonempty.all():  # runs of separators hold empty tokens
        sep, start = sep[nonempty], start[nonempty]
    dots = np.flatnonzero(raw == 46)
    # the dots before each token's separator, the dots in it, and its digits
    # after its '.'
    if dots.size == sep.size and (dots > start).all() and (dots < sep).all():
        before, ndots, s = np.arange(1, sep.size + 1), 1, sep - 1 - dots
    else:
        before = np.searchsorted(dots, sep)
        ndots = before - np.concatenate(([0], before[:-1]))
        s = np.where(ndots == 1, sep - 1 - np.concatenate(([-1], dots))[before], 0)
    # with the dots dropped and 24 bytes put in front, a token's bytes end
    # at end + 24, and its digits fill the last 24 - pad bytes before that
    end = sep - before
    size = sep - start - ndots
    bare = (b"0" * 24 + text).replace(b".", b"")
    neg = np.frombuffer(bare, np.uint8)[end + 24 - size] == 45
    pad = 24 - size + neg
    # the little-endian word that starts at each byte
    words = np.ndarray((len(bare) - 7,), "<u8", bare, 0, (1,))
    v = words[end + _WORD_AT] ^ _ZEROS
    v &= _KEEP_HIGH.take(np.minimum(np.maximum(pad - _WORD_AT, 0), 8))
    bad = (v | (v + _NON_DIGIT)) & _BIT7
    v = _eight_digits(v)
    taken = (((bad[0] | bad[1] | bad[2]) == 0) & (ndots <= 1) & (pad >= 0) & (pad < 24)
             & (s <= 24 - pad) & (v[0] < _U10))
    # v[0] is held to 10 so D < 2**63 for every token, taken or not
    d = np.minimum(v[0], _U10) * _E16 + v[1] * _E8 + v[2]
    df = d.astype(np.float64)
    off = (d - df.astype(np.uint64)).view(np.int64)  # D - fl(D)
    values = df / _POW10[np.minimum(s, 22)]
    decided = taken & (off == 0) & (s <= 22)
    near = np.flatnonzero(taken & (off != 0) & (s <= 20))
    if near.size:
        q = s[near]
        a0 = values[near]
        hi, lo = _two_prod(a0, q)
        r = ((df[near] - hi) - lo) + off[near]
        bits = a0.view(np.int64)
        h2 = ((bits + 1).view(np.float64) - a0) * _POW10[q]  # 2h
        step = (r > 0.5 * h2).view(np.int8) - (r < -0.5 * h2).view(np.int8)
        pick = bits + step
        values[near] = pick.view(np.float64)
        decided[near] = ((np.abs(r - step * h2) < 0.5 * h2)
                         & (bits << 12 != 0) & (pick << 12 != 0))
    values *= _SIGN[neg.view(np.uint8)]
    undecided = np.flatnonzero(~decided)
    for i, first, stop in zip(undecided.tolist(), start[undecided].tolist(),
                              sep[undecided].tolist()):
        try:
            value = float(text[first:stop])
        except ValueError:
            return None
        if not math.isfinite(value):
            return None
        values[i] = value
    return values, sep


def _cut(data: bytes, lo: int) -> int:
    """The end of the chunk of data that starts at lo: just past the last
    separator in its first _PARSE_BYTES bytes, or past the first one after
    them when they hold none, or the end of data."""
    if len(data) - lo <= _PARSE_BYTES:
        return len(data)
    limit = lo + _PARSE_BYTES
    cut = max(data.rfind(b" ", lo, limit), data.rfind(b"\n", lo, limit))
    if cut < lo:
        after = [at for at in (data.find(b" ", limit), data.find(b"\n", limit)) if at >= 0]
        cut = min(after, default=len(data) - 1)
    return cut + 1


def _line_ends(data: bytes, lo: int, count: int) -> np.ndarray | None:
    """The offsets of the first `count` newlines at or after lo, or None
    when data holds fewer."""
    raw = np.frombuffer(data, np.uint8)
    found = []
    while count and lo < raw.size:
        at = np.flatnonzero(raw[lo:lo + _PARSE_BYTES] == 10)[:count]
        found.append(at + lo)
        count -= at.size
        lo += _PARSE_BYTES
    return None if count else np.concatenate(found)


def _parse_block(name: str, lines: list[str], *shape: int) -> np.ndarray:
    """A block's entries as an array of `shape`, row-major, in any line
    layout, read token by token with float(); the first bad field in
    document order is named."""
    count = math.prod(shape)
    toks = " ".join(lines).split()
    if len(toks) != count:
        raise InstanceFormatError(f"{name}: expected {count} entries, got {len(toks)}")
    values = np.empty(count)
    for pos, tok in enumerate(toks):
        try:
            values[pos] = float(tok)
        except ValueError:
            problem = "bad"
        else:
            if math.isfinite(values[pos]):
                continue
            problem = "non-finite"
        field = ",".join(map(str, np.unravel_index(pos, shape)))
        raise InstanceFormatError(f"{problem} {name}[{field}]: {tok!r}")
    return values.reshape(shape)


def _text(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        raise InstanceFormatError("document is not UTF-8 text") from None


def _header(lines: list[str]) -> tuple[int, int, InstanceMeta]:
    """m, n and the provenance the first four lines of a document give."""
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
    seed_tok = lines[3].strip()
    seed = None if seed_tok == "-" else seed_tok
    return m, n, InstanceMeta(seed=seed, b_spec=lines[2].strip())


def _instance(m: int, n: int, a, b, c, meta: InstanceMeta) -> Instance:
    """The document's Instance; a b_spec descriptor it refuses is a format error."""
    try:
        BSpec.parse(meta.b_spec).check_count(m)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    return Instance(m=m, n=n, A=a, b=b, c=c, meta=meta)


def _from_lines(lines: list[str]) -> Instance:
    """The per-token pass: the document's lines read with str.split and
    float(), which names the first fault."""
    m, n, meta = _header(lines[:4])
    body = lines[4:]
    if len(body) < m + n:
        raise InstanceFormatError(
            f"truncated document: expected {m + n} vector lines, got {len(body)}"
        )
    b = _parse_block("b", body[:m], m)
    c = _parse_block("c", body[m : m + n], n)
    a = _parse_block("A", body[m + n :], m, n)
    return _instance(m, n, a, b, c, meta)


def _from_bytes(data: bytes) -> Instance | None:
    """The instance a document of printable ASCII, spaces and newlines
    holds, its body read by `_parse` _PARSE_BYTES at a time; None when it
    holds another byte or the per-token pass would refuse its body."""
    lines, at = [], 0
    while len(lines) < 4 and at < len(data):
        stop = data.find(b"\n", at)
        stop = len(data) if stop < 0 else stop
        lines.append(data[at:stop].decode("latin-1"))
        at = stop + 1
    if not all(line.isascii() and line.isprintable() for line in lines):
        return None
    m, n, meta = _header(lines)
    # each entry takes at least two bytes, so a header that claims more
    # than the document can hold allocates nothing
    ends = _line_ends(data, at, m + n) if m + n + m * n <= len(data) else None
    if ends is None:
        return None
    # the blocks' entries, and how many end at or before the last newline
    # of b and of c
    last = (int(ends[m - 1]), int(ends[-1]))
    through = [0, 0]
    values = np.empty(m + n + m * n)
    got = 0
    while at < len(data):
        end = _cut(data, at)
        chunk = data[at:end]
        if not chunk.endswith((b" ", b"\n")):
            chunk += b"\n"
        parsed = _parse(chunk)
        if parsed is None or got + parsed[0].size > values.size:
            return None
        part, sep = parsed
        for k in (0, 1):
            if last[k] >= at:
                through[k] = got + int(np.count_nonzero(sep <= last[k] - at))
        values[got:got + part.size] = part
        got += part.size
        at = end
    if got != values.size or through != [m, m + n]:
        return None
    return _instance(m, n, values[m + n:].reshape(m, n), values[:m], values[m:m + n], meta)


def deserialize(data: bytes) -> Instance:
    instance = _from_bytes(data)
    return instance if instance is not None else _from_lines(_text(data).splitlines())


def write_instance(path, instance: Instance) -> None:
    with open(path, "wb") as fh:
        for piece in _pieces(instance):
            fh.write(piece)


def read_instance(path) -> Instance:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
