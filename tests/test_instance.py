import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giplab.instance import (
    BSpec,
    Instance,
    InstanceFormatError,
    InstanceMeta,
    deserialize,
    generate,
    read_instance,
    serialize,
    validate_b,
    write_instance,
)
from giplab.lp import solve_lp
from giplab.rng import RngHandle

from oracles import serialize_oracle


def make_instance(a, b, c):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return Instance(
        m=a.shape[0],
        n=a.shape[1],
        A=a,
        b=np.atleast_1d(np.asarray(b, dtype=float)),
        c=np.atleast_1d(np.asarray(c, dtype=float)),
        meta=InstanceMeta(seed=None, b_spec="explicit"),
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
        with pytest.raises(InstanceFormatError):
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
        with pytest.raises(InstanceFormatError, match=f"^{message}$"):
            BSpec.parse(text)

    @pytest.mark.parametrize("text, message", [
        (" ", "empty b_spec descriptor"),
        ("explicit 1 x", "bad b_spec value: could not convert string to float: 'x'"),
    ])
    def test_parse_refuses_a_descriptor_it_cannot_read(self, text, message):
        with pytest.raises(InstanceFormatError, match=f"^{message}$"):
            BSpec.parse(text)


class TestGenerate:
    def test_zeros_b(self):
        inst = generate(2, 10, BSpec.zeros(), RngHandle(7))
        assert np.array_equal(inst.b, np.zeros(2))
        assert validate_b(inst)

    def test_scaled_ones(self):
        inst = generate(1, 100, BSpec.scaled_ones([0.3]), RngHandle(7))
        assert inst.b[0] == pytest.approx(30.0)

    def test_explicit_dimension_mismatch(self):
        with pytest.raises(ValueError):
            generate(3, 5, BSpec.explicit([1.0, 2.0]), RngHandle(1))

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
            b = spec.build_b(m, n, None)
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
