import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giplab import fileformat
from giplab.experiments import SweepConfig
from giplab.fileformat import (
    InstanceFormatError,
    deserialize,
    read_instance,
    serialize,
    write_instance,
)
from giplab.instance import BSpec, Instance, InstanceMeta, generate, validate_b
from giplab.lp import solve_lp
from giplab.rng import RngHandle

from oracles import serialize_oracle


def make_instance(a, b, c):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return Instance(
        m=a.shape[0],
        n=a.shape[1],
        A=a,
        b=b,
        c=np.atleast_1d(np.asarray(c, dtype=float)),
        meta=InstanceMeta(seed=None, b_spec=BSpec.explicit(b).descriptor()),
    )


def _with_token(inst, name, pos, tok):
    """The instance's document with entry pos of block name written as tok;
    pos is (row, col) in A and an index in b and c."""
    row, col = pos if name == "A" else (pos, 0)
    i = {"b": 4, "c": 4 + inst.m, "A": 4 + inst.m + inst.n}[name] + row
    lines = serialize(inst).decode().splitlines()
    toks = lines[i].split()
    toks[col] = tok
    lines[i] = " ".join(toks)
    return ("\n".join(lines) + "\n").encode()


# tokens float() accepts and numpy's text reader refuses: a document reads
# as the per-token float() pass reads it
FLOAT_ONLY_TOKENS = ["1_0", "\u0663", "\uff11"]
# tokens float() refuses or reads as a value that is not finite, with the
# word their message starts with
REFUSED_TOKENS = [
    ("0x1p3", "bad"), ("2\x00", "bad"), ("1d0", "bad"), ("nan(1)", "bad"),
    ("1-2", "bad"), ("nan", "non-finite"), ("-inf", "non-finite"),
    ("1e400", "non-finite"),
]


def _with_header_fault(line, text):
    """A valid 2 x 3 document with header line `line` replaced by the bytes
    `text`."""
    lines = serialize(generate(2, 3, BSpec.zeros(), RngHandle(1))).split(b"\n")
    lines[line] = text
    return b"\n".join(lines)


# documents whose header the reader refuses, with the whole message
HEADER_ERRORS = [
    pytest.param(_with_header_fault(3, b"\xff"), "document is not UTF-8 text",
                 id="not-utf8"),
    pytest.param(_with_header_fault(1, b"2"), "bad dimension line: '2'",
                 id="one-size"),
    pytest.param(_with_header_fault(1, b"2 3 4"), "bad dimension line: '2 3 4'",
                 id="three-sizes"),
    pytest.param(_with_header_fault(1, b"2 x"), "bad dimension line: '2 x'",
                 id="non-integer"),
    pytest.param(_with_header_fault(1, b"0 3"), "dimensions must be positive: '0 3'",
                 id="zero-size"),
]


def _load_quietly(doc):
    """deserialize(doc), checking that it lets no warning escape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return deserialize(doc)
        finally:
            assert [str(w.message) for w in caught] == []


class TestBSpec:
    def test_descriptor_roundtrip(self):
        for spec in (
            BSpec.zeros(),
            BSpec.gaussian(),
            BSpec.scaled_ones([0.3, 0.25]),
            BSpec.explicit([1.5, -2.0, 0.0]),
        ):
            assert BSpec.parse(spec.descriptor()) == spec

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            BSpec("ones")
        with pytest.raises(ValueError):
            BSpec.parse("ones 1 2")

    def test_scaled_ones_needs_values(self):
        with pytest.raises(ValueError):
            BSpec("scaled_ones")

    @pytest.mark.parametrize("text, message", [
        ("scaled_ones", "b_spec 'scaled_ones' requires values"),
        ("explicit nan", "b_spec values must be finite"),
        ("zeros 1.5", "b_spec 'zeros' takes no values"),
        ("ones 1", "unknown b_spec kind: 'ones'"),
    ])
    def test_parse_refuses_a_spec_the_constructor_refuses(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BSpec.parse(text)

    @pytest.mark.parametrize("text, message", [
        (" ", "empty b_spec descriptor"),
        ("explicit 1 x", "bad b_spec value: could not convert string to float: 'x'"),
    ])
    def test_parse_refuses_a_descriptor_it_cannot_read(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BSpec.parse(text)


class TestGenerate:
    def test_zeros_b(self):
        inst = generate(2, 10, BSpec.zeros(), RngHandle(7))
        assert np.array_equal(inst.b, np.zeros(2))
        assert validate_b(inst)

    def test_scaled_ones(self):
        inst = generate(1, 100, BSpec.scaled_ones([0.3]), RngHandle(7))
        assert inst.b[0] == pytest.approx(30.0)

    def test_config_errors_are_not_format_errors(self):
        # only the reader turns a b recipe's ValueError into a format error
        for build in (lambda: BSpec.parse("ones 1"),
                      lambda: generate(3, 5, BSpec.explicit([1.0, 2.0]), RngHandle(1)),
                      lambda: SweepConfig(m_list=(2,), n_list=(10,), b_spec="explicit 1 2 3")):
            with pytest.raises(ValueError) as info:
                build()
            assert type(info.value) is ValueError

    def test_explicit_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^b_spec 'explicit' has 2 values, expected 3$"):
            generate(3, 5, BSpec.explicit([1.0, 2.0]), RngHandle(1))

    @pytest.mark.parametrize("m, n, a, b, c, message", [
        (0, 2, np.zeros((0, 2)), np.zeros(0), np.zeros(2), "dimensions must be >= 1"),
        (2, 3, np.zeros((3, 2)), np.zeros(2), np.zeros(3), "A has inconsistent shape"),
        (2, 3, np.zeros((2, 3)), np.zeros(3), np.zeros(3), "b has inconsistent shape"),
        (2, 3, np.zeros((2, 3)), np.zeros(2), np.zeros(2), "c has inconsistent shape"),
    ])
    def test_shapes_are_checked(self, m, n, a, b, c, message):
        with pytest.raises(ValueError, match=message):
            Instance(m=m, n=n, A=a, b=b, c=c, meta=InstanceMeta(None, "zeros"))

    def test_determinism(self):
        a = generate(3, 20, BSpec.gaussian(), RngHandle(42))
        b = generate(3, 20, BSpec.gaussian(), RngHandle(42))
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.c, b.c)

    def test_gaussian_b_respects_norm_bound_mostly(self):
        # P(||b^-||_2 > n/10) for 3 standard normals and n = 100 is
        # astronomically small; all 1000 seeds must validate
        ok = sum(
            validate_b(generate(3, 100, BSpec.gaussian(), RngHandle(s)))
            for s in range(1000)
        )
        assert ok >= 999


class TestValidateB:
    def test_hand_cases(self):
        assert validate_b(make_instance(np.zeros((2, 100)), [-5.0, 0.0], np.zeros(100)))
        assert not validate_b(
            make_instance(np.zeros((2, 100)), [-8.0, -8.0], np.zeros(100))
        )
        assert validate_b(make_instance(np.zeros((2, 30)), [0.0, 0.0], np.zeros(30)))


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        inst = generate(3, 17, BSpec.gaussian(), RngHandle(99))
        back = deserialize(serialize(inst))
        assert back.m == inst.m and back.n == inst.n
        assert np.array_equal(back.A, inst.A)
        assert np.array_equal(back.b, inst.b)
        assert np.array_equal(back.c, inst.c)
        assert back.meta.seed == inst.meta.seed
        assert back.meta.b_spec == inst.meta.b_spec

    def test_instance_checks_its_descriptor(self):
        # what the writer writes the reader reads: a hand-built instance
        # round-trips, and a descriptor either would refuse is refused
        inst = make_instance([[1.0, -2.0], [0.5, 3.0]], [1.0, -1.5], [0.25, 2.0])
        back = deserialize(serialize(inst))
        assert back.meta == inst.meta
        for name in ("A", "b", "c"):
            assert np.array_equal(getattr(back, name), getattr(inst, name))
        with pytest.raises(ValueError, match="^b_spec 'explicit' requires values$"):
            Instance(m=1, n=1, A=np.zeros((1, 1)), b=np.zeros(1), c=np.zeros(1),
                     meta=InstanceMeta(None, "explicit"))
        doc = b"GIPLAB v1\n2 1\nexplicit 1.0 2.0 3.0\n-\n1.0\n2.0\n0.5\n0.25\n-0.5\n"
        # the kernel and, for CRLF line ends, the per-token pass
        for text in (doc, doc.replace(b"\n", b"\r\n")):
            with pytest.raises(InstanceFormatError,
                               match="^b_spec 'explicit' has 3 values, expected 2$"):
                deserialize(text)

    def test_empty_stream(self):
        with pytest.raises(InstanceFormatError):
            deserialize(b"")

    def test_error_names_offending_field(self):
        inst = generate(2, 3, BSpec.zeros(), RngHandle(1))
        lines = serialize(inst).decode().splitlines()
        lines[4] = "not-a-number"
        with pytest.raises(InstanceFormatError, match=r"b\[0\]"):
            deserialize(("\n".join(lines)).encode())
        lines = serialize(inst).decode().splitlines()
        lines[0] = "GIPLAB v2"
        with pytest.raises(InstanceFormatError, match="header"):
            deserialize(("\n".join(lines)).encode())

    def test_error_names_first_bad_field_in_document_order(self):
        inst = generate(2, 6, BSpec.zeros(), RngHandle(3))
        lines = serialize(inst).decode().splitlines()

        def a_row(row, col, tok):
            toks = lines[12 + row].split()
            toks[col] = tok
            return lines[: 12 + row] + [" ".join(toks)] + lines[13 + row :]

        def load(doc):
            deserialize(("\n".join(doc) + "\n").encode())

        lines = a_row(0, 5, "nan")
        lines = a_row(1, 0, "x")
        with pytest.raises(InstanceFormatError, match=r"^non-finite A\[0,5\]: 'nan'$"):
            load(lines)
        lines = a_row(0, 5, "1.0")
        with pytest.raises(InstanceFormatError, match=r"^bad A\[1,0\]: 'x'$"):
            load(lines)
        lines[6 + 3] = "inf"
        with pytest.raises(InstanceFormatError, match=r"^non-finite c\[3\]: 'inf'$"):
            load(lines)
        lines[5] = "-Infinity"
        with pytest.raises(InstanceFormatError, match=r"^non-finite b\[1\]: "):
            load(lines)

    # A[1,2] of a 2 x 6 document
    @pytest.mark.parametrize("tok", FLOAT_ONLY_TOKENS)
    def test_a_token_float_accepts_keeps_float_s_bits(self, tok):
        inst = generate(2, 6, BSpec.zeros(), RngHandle(3))
        back = _load_quietly(_with_token(inst, "A", (1, 2), tok))
        want = inst.A.copy()
        want[1, 2] = float(tok)
        assert np.array_equal(back.A.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("tok, error", REFUSED_TOKENS)
    def test_a_token_float_refuses_is_named(self, tok, error):
        inst = generate(2, 6, BSpec.zeros(), RngHandle(3))
        with pytest.raises(InstanceFormatError) as info:
            _load_quietly(_with_token(inst, "A", (1, 2), tok))
        assert str(info.value) == f"{error} A[1,2]: {tok!r}"

    # b[1] and c[4] of a 2 x 6 document: b and c go through A's parse rule
    @pytest.mark.parametrize("tok", FLOAT_ONLY_TOKENS)
    @pytest.mark.parametrize("name, pos", [("b", 1), ("c", 4)])
    def test_b_and_c_token_float_accepts_keeps_float_s_bits(self, name, pos, tok):
        inst = generate(2, 6, BSpec.gaussian(), RngHandle(3))
        back = _load_quietly(_with_token(inst, name, pos, tok))
        want = getattr(inst, name).copy()
        want[pos] = float(tok)
        got = getattr(back, name)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("tok, error", REFUSED_TOKENS)
    @pytest.mark.parametrize("name, pos", [("b", 1), ("c", 4)])
    def test_b_and_c_token_float_refuses_is_named(self, name, pos, tok, error):
        inst = generate(2, 6, BSpec.gaussian(), RngHandle(3))
        with pytest.raises(InstanceFormatError) as info:
            _load_quietly(_with_token(inst, name, pos, tok))
        assert str(info.value) == f"{error} {name}[{pos}]: {tok!r}"

    def test_b_and_c_entries_accept_any_line_layout(self):
        inst = generate(2, 3, BSpec.gaussian(), RngHandle(2))
        lines = serialize(inst).decode().splitlines()
        b, c = lines[4:6], lines[6:9]
        # b on one line and a blank one, which the C reader takes; c in rows
        # of unequal length, which only the per-token pass takes
        for c_block in ([" ".join(c), "", ""], [" ".join(c[:2]), "", c[2]]):
            doc = lines[:4] + [" ".join(b), ""] + c_block + lines[9:]
            back = _load_quietly(("\n".join(doc) + "\n").encode())
            for name in ("A", "b", "c"):
                got, want = getattr(back, name), getattr(inst, name)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_b_and_c_blocks_are_counted(self):
        inst = generate(2, 3, BSpec.gaussian(), RngHandle(2))
        lines = serialize(inst).decode().splitlines()
        # a blank line holds no entry
        for b, c, message in (
            ([lines[4] + " 0.5", lines[5]], lines[6:9], "b: expected 2 entries, got 3"),
            (["", " "], lines[6:9], "b: expected 2 entries, got 0"),
            (lines[4:6], [lines[6], "", lines[8]], "c: expected 3 entries, got 2"),
        ):
            doc = lines[:4] + b + c + lines[9:]
            with pytest.raises(InstanceFormatError, match=f"^{message}$"):
                _load_quietly(("\n".join(doc) + "\n").encode())

    def test_a_block_of_whole_rows_is_counted(self):
        inst = generate(2, 6, BSpec.zeros(), RngHandle(3))
        lines = serialize(inst).decode().splitlines()
        for rows, got in ((lines[12:13], 6), (lines[12:] + lines[12:13], 18),
                          ([row + " 0.5" for row in lines[12:]], 14)):
            doc = ("\n".join(lines[:12] + rows) + "\n").encode()
            with pytest.raises(InstanceFormatError,
                               match=rf"^A: expected 12 entries, got {got}$"):
                _load_quietly(doc)

    @pytest.mark.parametrize("blank", ["  ", "\t", "\r"])
    def test_blank_a_line_stands_for_no_entry(self, blank):
        # np.fromstring(line, sep=" ") reads each of these lines as one entry, -1.0
        inst = generate(2, 6, BSpec.zeros(), RngHandle(3))
        lines = serialize(inst).decode().splitlines()
        short_row = " ".join(lines[13].split()[:-1])
        doc = "\n".join(lines[:13] + [blank, short_row]) + "\n"
        with pytest.raises(InstanceFormatError, match=r"^A: expected 12 entries, got 11$"):
            _load_quietly(doc.encode())
        blank_block = "\n".join(lines[:12] + [blank, blank]) + "\n"
        with pytest.raises(InstanceFormatError, match=r"^A: expected 12 entries, got 0$"):
            _load_quietly(blank_block.encode())
        spaced = "\n".join(lines[:13] + [blank, lines[13]]) + "\n"
        assert np.array_equal(_load_quietly(spaced.encode()).A, inst.A)

    @pytest.mark.parametrize(
        "b_spec",
        [
            BSpec.zeros(),
            BSpec.gaussian(),
            BSpec.scaled_ones([0.02] * 8),
            BSpec.explicit(np.linspace(-3.0, 3.0, 8)),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_roundtrip_bit_exact_at_scale(self, b_spec, tmp_path):
        inst = generate(8, 4000, b_spec, RngHandle(6))
        data = serialize(inst)
        assert data == serialize_oracle(inst)
        # one formatter: the file holds exactly the serialized bytes
        path = tmp_path / "inst.giplab"
        write_instance(path, inst)
        assert path.read_bytes() == data
        back = deserialize(data)
        for name in ("A", "b", "c"):
            got, want = getattr(back, name), getattr(inst, name)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert serialize(back) == data

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def test_roundtrip_bit_exact_on_random_documents(self, data):
        # any finite double, -0.0, subnormals and magnitudes near the
        # largest double included, in A, b and c and in the b recipe
        edge = st.sampled_from(
            [-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1.7976931348623157e308]
        )
        values = st.floats(allow_nan=False, allow_infinity=False) | edge

        def vector(size, label, elements=values):
            drawn = data.draw(st.lists(elements, min_size=size, max_size=size), label=label)
            return np.array(drawn, dtype=float)

        m = data.draw(st.integers(1, 5), label="m")
        n = data.draw(st.integers(1, 8), label="n")
        kind = data.draw(st.sampled_from(BSpec._KINDS), label="b recipe")
        if kind == "zeros":
            spec, b = BSpec.zeros(), np.zeros(m)
        elif kind == "gaussian":
            spec, b = BSpec.gaussian(), vector(m, "b")
        else:
            # scaled_ones multiplies by n <= 8, so its values stay below
            # 1e300 for b to be finite
            bounded = st.floats(-1e300, 1e300) | edge.filter(lambda v: abs(v) <= 1e300)
            beta = vector(m, "recipe values", bounded if kind == "scaled_ones" else values)
            spec = BSpec(kind, tuple(beta.tolist()))
            b = spec.build_b(m, n, RngHandle(0))
        seed = data.draw(
            st.none() | st.builds(lambda s, t: RngHandle(s, t).key,
                                  st.integers(0, 2**64 - 1), st.integers(0, 2**32)),
            label="seed",
        )
        inst = Instance(m=m, n=n, A=vector(m * n, "A").reshape(m, n), b=b,
                        c=vector(n, "c"), meta=InstanceMeta(seed, spec.descriptor()))
        doc = serialize(inst)
        back = deserialize(doc)
        assert (back.m, back.n, back.meta) == (m, n, inst.meta)
        for name in ("A", "b", "c"):
            got, want = getattr(back, name), getattr(inst, name)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
        assert serialize(back) == doc

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_match_per_element_writer(self, dtype):
        inst = generate(3, 50, BSpec.gaussian(), RngHandle(8))
        typed = Instance(
            m=3,
            n=50,
            A=inst.A.astype(dtype),
            b=inst.b.astype(dtype),
            c=inst.c.astype(dtype),
            meta=inst.meta,
        )
        assert serialize(typed) == serialize_oracle(typed)

    @pytest.mark.parametrize("doc, message", HEADER_ERRORS)
    def test_header_error_is_named(self, doc, message):
        with pytest.raises(InstanceFormatError) as exc_info:
            deserialize(doc)
        assert str(exc_info.value) == message

    def test_truncated(self):
        inst = generate(2, 3, BSpec.zeros(), RngHandle(1))
        lines = serialize(inst).decode().splitlines()
        with pytest.raises(InstanceFormatError, match="expected"):
            deserialize(("\n".join(lines[:6])).encode())
        # the message names the first missing line
        for keep, missing in ((1, "dimensions"), (2, "b_spec descriptor"),
                              (3, "seed token")):
            doc = ("\n".join(lines[:keep]) + "\n").encode()
            with pytest.raises(InstanceFormatError,
                               match=rf"^truncated document \(missing {missing}\)$"):
                deserialize(doc)

    def test_a_entries_accept_any_line_layout(self):
        inst = generate(2, 3, BSpec.zeros(), RngHandle(2))
        lines = serialize(inst).decode().splitlines()
        flat = " ".join(lines[4 + 2 + 3 :]).split()
        reflowed = lines[: 4 + 2 + 3] + [" ".join(flat[:2]), " ".join(flat[2:])]
        back = deserialize(("\n".join(reflowed)).encode())
        assert np.array_equal(back.A, inst.A)

    def test_file_roundtrip_preserves_lp_value(self, tmp_path):
        inst = generate(2, 40, BSpec.zeros(), RngHandle(5))
        path = tmp_path / "inst.gip"
        write_instance(path, inst)
        again = read_instance(path)
        assert abs(solve_lp(inst).value - solve_lp(again).value) <= 1e-12


def _repr_oracle(x, sep):
    return "".join(repr(v) + chr(s) for v, s in zip(x.tolist(), sep.tolist())).encode()


def _separators(kind, size, rng):
    if kind == "mixed":
        return np.where(rng.random(size) < 0.5, 10, 32).astype(np.uint8)
    return np.full(size, {"space": 32, "newline": 10}[kind], np.uint8)


# entries the writer's kernel hands to repr(), by the reason it does
FALLBACK_ENTRIES = {
    "zero": [0.0, -0.0],
    "subnormal": [5e-324],
    "outside [1e-4, 1e15)": [2.2250738585072014e-308, 1.7976931348623157e308,
                             9.999999999999999e-05, 1e15, 1e16],
    "power of two": [0.5, 1024.0],
    "fewer than 15 digits": [1e-4, 80.0],
    # 2494715181658.21875 lies halfway between two 17-digit decimals and
    # 0.55469512939453125 between two 16-digit ones
    "17-digit tie": [2494715181658.21875],
    "16-digit tie": [0.5546951293945312],
}
# entries it decides: 17 and 16 digits, and the doubles just below a power
# of ten; 999999999999999.9 ties between two 17-digit decimals, but its
# 16-digit rounding is inside its interval
DECIDED_ENTRIES = [0.30000000000000004, 9.999999999999998, 0.9999999999999999,
                   999999999999999.9, 1.2345678901234567e-4, 0.1 + 0.7]


class TestFormatKernel:
    """`_format` against repr(), the writer it stands in for."""

    def test_matches_repr_on_a_million_values(self):
        rng = np.random.default_rng(2024)
        scaled = rng.standard_normal(920_000) * 10.0 ** rng.integers(-8, 18, 920_000)
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
        x = np.concatenate([scaled, bits[np.isfinite(bits)]])
        assert x.size > 1_000_000
        sep = np.full(x.size, 32, np.uint8)
        step = fileformat._CHUNK
        got = b"".join(fileformat._format(x[i:i + step], sep[i:i + step])
                       for i in range(0, x.size, step))
        assert got == (" ".join(map(repr, x.tolist())) + " ").encode()

    @pytest.mark.parametrize("kind", ["space", "newline", "mixed"])
    def test_separators(self, kind):
        rng = np.random.default_rng(7)
        hand = [v for vals in FALLBACK_ENTRIES.values() for v in vals] + DECIDED_ENTRIES
        x = np.concatenate([hand, np.negative(hand), rng.standard_normal(5000)])
        sep = _separators(kind, x.size, rng)
        assert fileformat._format(x, sep) == _repr_oracle(x, sep)

    def test_every_fallback_reason(self, monkeypatch):
        handed = []

        def spy(value):
            handed.append(value)
            return repr(value)

        monkeypatch.setattr(fileformat, "repr", spy, raising=False)
        fallback = [v for vals in FALLBACK_ENTRIES.values() for v in vals]
        for sign in (1.0, -1.0):
            x = sign * np.array(fallback + DECIDED_ENTRIES)
            sep = np.full(x.size, 32, np.uint8)
            handed.clear()
            assert fileformat._format(x, sep) == _repr_oracle(x, sep)
            assert [repr(v) for v in handed] == [repr(sign * v) for v in fallback]

    def test_no_floating_point_exception(self):
        x = np.array([v for vals in FALLBACK_ENTRIES.values() for v in vals]
                     + DECIDED_ENTRIES + [-1.7976931348623157e308, -5e-324])
        sep = np.full(x.size, 10, np.uint8)
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                assert fileformat._format(x, sep) == _repr_oracle(x, sep)
            assert fileformat._format(x, sep) == _repr_oracle(x, sep)
        assert np.geterr() == before

    def test_chunks_split_b_c_and_rows_anywhere(self, monkeypatch, tmp_path):
        # a chunk of 7 entries ends inside b, c and A rows and spans blocks
        monkeypatch.setattr(fileformat, "_CHUNK", 7)
        inst = generate(3, 5, BSpec.gaussian(), RngHandle(3))
        data = serialize(inst)
        assert data == serialize_oracle(inst)
        write_instance(tmp_path / "x.giplab", inst)
        assert (tmp_path / "x.giplab").read_bytes() == data


class TestColumnNormStatistic:
    def test_fractional_columns_bounded(self):
        # the fractional-support columns exceed 4*sqrt(ln n) + sqrt(m)
        # with probability <= n^-7; at 500 instances none should
        m, n = 3, 1000
        limit = 4.0 * np.sqrt(np.log(n)) + np.sqrt(m)
        hits = 0
        for s in range(500):
            inst = generate(m, n, BSpec.zeros(), RngHandle(1000, s))
            sol = solve_lp(inst)
            if sol.s.size:
                norms = np.linalg.norm(inst.A[:, sol.s], axis=0)
                if norms.max() >= limit:
                    hits += 1
        assert hits / 500 <= 0.01


def _float_oracle(text):
    return np.array([float(tok) for tok in text.split()])


def _parse_all(text):
    """`_parse` over text cut into chunks as the reader cuts a document."""
    parts, lo = [], 0
    while lo < len(text):
        end = fileformat._cut(text, lo)
        parsed = fileformat._parse(text[lo:end])
        assert parsed is not None
        parts.append(parsed[0])
        lo = end
    return np.concatenate(parts)


def _hand_decimals(rng, count):
    """Decimals of 1 to 20 digits with a '.' anywhere or none, a '-' on
    half of them, each followed by a space."""
    k = rng.integers(1, 21, count)[:, None]
    at = rng.integers(0, 22, count)[:, None]  # no '.' when at > k
    col = np.arange(20)
    # byte 0 holds the sign, digit j goes to byte 1 + j, or 2 + j after
    # the '.', and byte 22 holds the space; the 0 bytes are dropped
    rows = np.zeros((count, 23), np.uint8)
    rows[:, :1] = np.where(rng.random((count, 1)) < 0.5, 45, 0)
    digits = np.where(col < k, rng.integers(48, 58, (count, 20)), 0)
    np.put_along_axis(rows, 1 + col + (col >= at), digits, axis=1)
    np.put_along_axis(rows, 1 + np.minimum(at, 21), np.where(at <= k, 46, 0), axis=1)
    rows[:, 22] = 32
    return rows.tobytes().translate(None, b"\0")


# tokens the reader's kernel hands to float(), by the reason it does
UNDECIDED_TOKENS = {
    "not -?digits.digits": ["+1.5", "1e-05", "1E5", "1_0", "-1.5e300"],
    "more than 24 digits": ["0.0000000000000000000000015"],
    "17 digits or more": ["123456789012345678", "12345678.901234567890"],
    # D a double, s > 22
    "too many decimals, exact D": ["0.00000000000000000000001"],
    # D not a double, s > 20
    "too many decimals, inexact D": [".000012345678901234567"],
    # 2**53 + 3 lies halfway between two doubles
    "tie": ["9007199254740995"],
    # the candidate a0 is 1.0 for the first; for the second the step from
    # a0 leads to 0.03125
    "power of two": ["0.9999999999999999", "0.031250000000000003"],
}
# tokens it decides: each form the kernel takes, on both paths
DECIDED_TOKENS = ["00.5", "5.", ".5", "-.5", "-0.0", "0", "1.5", "-17",
                  "0.30000000000000004", "1.2345678901234567",
                  "9007199254740993.5", "1.0000000000000002", "99999999999999.99",
                  "0.00012345678901234567", "000000000000000000000001"]


class TestParseKernel:
    """`_parse` against float(), the reader it stands in for."""

    def test_matches_float_on_a_million_tokens(self):
        rng = np.random.default_rng(2025)
        scaled = rng.standard_normal(700_000) * 10.0 ** rng.integers(-8, 18, 700_000)
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
        x = np.concatenate([scaled, bits[np.isfinite(bits)]])
        step = fileformat._CHUNK
        text = b"".join(
            fileformat._format(x[i:i + step], _separators("mixed", x[i:i + step].size, rng))
            for i in range(0, x.size, step))
        text += _hand_decimals(rng, 250_000)
        want = _float_oracle(text)
        assert want.size > 1_000_000
        assert np.array_equal(_parse_all(text).view(np.uint64), want.view(np.uint64))

    def test_edge_tokens(self):
        near = []
        for j in range(-22, 23):
            v = 10.0 ** j
            near += [np.nextafter(v, 0), v, np.nextafter(v, np.inf)]
        near = [f"{v:{form}}" for v in near for form in (".15g", ".16g", ".17g", ".20f")]
        near += [f"{2**53 + k}{tail}" for k in range(-3, 4) for tail in ("", ".0", ".5")]
        toks = DECIDED_TOKENS + near + [t for ts in UNDECIDED_TOKENS.values() for t in ts]
        for sign in ("", "-"):
            text = (" ".join(sign + t.lstrip("-+") for t in toks) + "\n").encode()
            got, sep = fileformat._parse(text)
            assert np.array_equal(got.view(np.uint64), _float_oracle(text).view(np.uint64))
            assert text[sep[-1]:] == b"\n"

    def test_every_undecided_reason_reaches_float(self, monkeypatch):
        handed = []

        def spy(token):
            handed.append(token.decode())
            return float(token)

        monkeypatch.setattr(fileformat, "float", spy, raising=False)
        undecided = [t for ts in UNDECIDED_TOKENS.values() for t in ts]
        text = (" ".join(DECIDED_TOKENS + undecided) + "\n").encode()
        got, _ = fileformat._parse(text)
        assert handed == undecided
        monkeypatch.undo()
        assert np.array_equal(got.view(np.uint64), _float_oracle(text).view(np.uint64))

    @pytest.mark.parametrize("text", [
        b"1.5 x\n", b"1.5 .\n", b"- 1.5\n", b"1.2.3\n", b".-5\n", b"1-2\n",
        b"nan\n", b"-inf\n", b"1e400\n",
    ])
    def test_refused_token_refuses_the_run(self, text):
        # float() refuses it or reads it as a value that is not finite
        assert fileformat._parse(text) is None

    @pytest.mark.parametrize("byte", [b"\t", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x7f",
                                      b"\x00", "٣".encode(), b"\xff"])
    def test_other_bytes_refuse_the_run(self, byte):
        assert fileformat._parse(b"1.5 2" + byte + b"5 3.5\n") is None
        assert fileformat._parse(b"1.5" + byte + b"2.5\n") is None

    def test_no_floating_point_exception(self):
        hand = DECIDED_TOKENS + [t for ts in UNDECIDED_TOKENS.values() for t in ts]
        junk = ["9" * 24, "9" * 30, "-" + "9" * 17, "." + "9" * 23, "99999999999999999.9"]
        text = (" ".join(hand + junk) + "\n").encode()
        doc = serialize(generate(2, 6, BSpec.gaussian(), RngHandle(5)))
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                got, _ = fileformat._parse(text)
                assert np.array_equal(got.view(np.uint64), _float_oracle(text).view(np.uint64))
                assert fileformat._parse(text + b"x\n") is None
                assert serialize(deserialize(doc)) == doc
        assert np.geterr() == before

    @pytest.mark.parametrize("size", [1, 7, 20, 64])
    def test_chunks_end_at_any_token(self, monkeypatch, size):
        # chunks of a few bytes end after every token, or hold a single
        # token longer than the chunk, with or without a final newline
        monkeypatch.setattr(fileformat, "_PARSE_BYTES", size)
        inst = generate(3, 5, BSpec.gaussian(), RngHandle(3))
        doc = serialize(inst)
        *head, body = doc.split(b"\n", 4)
        spaced = b"\n".join(head + [body.replace(b" ", b"   ")])
        for data in (doc, doc.rstrip(b"\n"), spaced):
            back = deserialize(data)
            for name in ("A", "b", "c"):
                got, want = getattr(back, name), getattr(inst, name)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_header_claiming_more_entries_than_bytes_is_named(self):
        # 2.5e9 entries would take 20 GB; the count is named instead
        doc = b"GIPLAB v1\n50000 50000\nzeros\n-\n" + b"0\n" * 100_000
        with pytest.raises(InstanceFormatError,
                           match="^A: expected 2500000000 entries, got 0$"):
            deserialize(doc)

    @pytest.mark.parametrize("layout, expected", [
        ("several spaces", None), ("blank lines", None), ("no final newline", None),
        ("CRLF", None), ("tab", None), ("form feed in a row", None),
        ("form feed in b", None), ("file separator", None),
        ("non-ASCII digit", None),
        ("blank line in b", "b: expected 2 entries, got 1"),
        ("CRLF with a bad token", "bad A[0,2]: 'x'"),
        ("dot-only token", "bad A[0,0]: '.'"),
        ("DEL in a token", "bad A[0,0]: '1\\x7f'"),
        # str.splitlines ends the dimension line at the form feed, so every
        # later line moves down one block
        ("form feed in the header", "A: expected 6 entries, got 7"),
    ])
    def test_layouts_read_as_the_per_token_pass_reads_them(self, layout, expected):
        inst = generate(2, 3, BSpec.gaussian(), RngHandle(4))
        head, b, c, a = (lambda ls: (ls[:4], ls[4:6], ls[6:9], ls[9:11]))(
            serialize(inst).split(b"\n"))
        want_a = inst.A.copy()

        def join(lines, sep=b"\n", end=b"\n"):
            return sep.join(lines) + end

        def a_token(row, col, tok):
            toks = a[row].split()
            toks[col] = tok
            return [b" ".join(toks) if i == row else r for i, r in enumerate(a)]

        if layout == "non-ASCII digit":
            want_a[0, 1] = 3.0
        doc = {
            "several spaces": join(head + [b"  " + x.replace(b" ", b"   ") + b"  "
                                           for x in b + c + a]),
            "blank lines": join(head + b + c + [b""] + a[:1] + [b"", b"   "] + a[1:] + [b""]),
            "no final newline": join(head + b + c + a, end=b""),
            "CRLF": join(head + b + c + a, sep=b"\r\n", end=b"\r\n"),
            "tab": join(head + b + c + [x.replace(b" ", b"\t") for x in a]),
            "form feed in a row": join(head + b + c + [x.replace(b" ", b"\x0c", 1) for x in a]),
            "form feed in b": join(head + [b[0] + b"\x0c" + b[1]] + c + a),
            "file separator": join(head + b + c + [x.replace(b" ", b"\x1c") for x in a]),
            "non-ASCII digit": join(head + b + c + a_token(0, 1, "٣".encode())),
            "blank line in b": join(head + b[:1] + [b""] + b[1:] + c + a),
            "CRLF with a bad token": join(head + b + c + a_token(0, 2, b"x"), sep=b"\r\n"),
            "dot-only token": join(head + b + c + a_token(0, 0, b".")),
            "DEL in a token": join(head + b + c + a_token(0, 0, b"1\x7f")),
            "form feed in the header": join([head[0], head[1] + b"\x0c"] + head[2:] + b + c + a),
        }[layout]
        if expected is not None:
            with pytest.raises(InstanceFormatError) as info:
                _load_quietly(doc)
            assert str(info.value) == expected
            return
        back = _load_quietly(doc)
        for got, want in ((back.A, want_a), (back.b, inst.b), (back.c, inst.c)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
