import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giplab import discrepancy
from giplab.discrepancy import (
    EXACT_ENUM_BUDGET,
    DiscInstance,
    ExactBudgetError,
    disc_exact,
    disc_search,
    disc_success_mc,
    draw_columns,
)
from giplab.numerics import calibrate_theta
from giplab.rng import RngHandle

from oracles import count_disc_successes, disc_exact_oracle


def random_instance(seed, m=2, count=10, k=3, theta=0.5):
    cols = RngHandle(seed).gen.standard_normal((m, count))
    target = RngHandle(seed, 1).gen.standard_normal(m) * 0.5
    return DiscInstance(columns=cols, target=target, theta=theta, k=k)


class TestDiscExact:
    def test_hand_case(self):
        inst = DiscInstance(
            columns=np.array([[0.1, 0.5]]), target=np.array([0.4]), theta=0.2, k=1
        )
        out = disc_exact(inst)
        assert out.found
        assert out.subset == (1,)
        assert out.deviation == pytest.approx(0.1, abs=1e-12)

    def test_forced_full_subset(self):
        cols = np.array([[0.3, 0.4], [0.1, -0.2]])
        inst = DiscInstance(
            columns=cols, target=np.array([0.7, -0.1]), theta=0.05, k=2
        )
        out = disc_exact(inst)
        assert out.subset == (0, 1)
        assert out.found

    def test_theta_zero_rejected_but_tiny_never_found(self):
        with pytest.raises(ValueError):
            random_instance(1, theta=0.0)
        inst = random_instance(1, theta=1e-15)
        out = disc_exact(inst)
        assert not out.found

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_columns_refused(self, bad):
        cols = np.ones((2, 6))
        cols[1, 4] = bad
        with pytest.raises(ValueError, match="columns"):
            DiscInstance(columns=cols, target=np.zeros(2), theta=0.5, k=3)

    @pytest.mark.parametrize("columns, target, k, message", [
        (np.ones(6), np.zeros(1), 1, "columns must be an"),
        (np.ones((2, 6)), np.zeros(3), 1, "target dimension"),
        (np.ones((2, 6)), np.zeros(2), 7, "k must lie in"),
    ])
    def test_malformed_instance_refused(self, columns, target, k, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            DiscInstance(columns=columns, target=target, theta=0.5, k=k)

    def test_budget_refused(self):
        cols = np.zeros((1, 60))
        with pytest.raises(ExactBudgetError):
            disc_exact(DiscInstance(columns=cols, target=np.zeros(1), theta=1.0, k=30))

    @pytest.mark.parametrize("seed", range(20))
    def test_true_minimum_beats_random_subsets(self, seed):
        inst = random_instance(seed)
        out = disc_exact(inst)
        gen = np.random.default_rng(seed + 1)
        for _ in range(200):
            subset = gen.choice(inst.count, size=inst.k, replace=False)
            dev = float(
                np.abs(inst.columns[:, subset].sum(axis=1) - inst.target).max()
            )
            assert dev >= out.deviation - 1e-12

    def test_matches_exhaustive_counter(self):
        inst = random_instance(33, m=1, count=8, k=3, theta=0.4)
        out = disc_exact(inst)
        hits = count_disc_successes(inst.columns, inst.target, inst.theta, inst.k)
        assert out.found == (hits > 0)


def assert_matches_oracle(inst):
    out = disc_exact(inst)
    found, subset, deviation, evaluations = disc_exact_oracle(
        inst.columns, inst.target, inst.theta, inst.k
    )
    assert out.subset == subset
    assert out.deviation == deviation  # bit for bit
    assert out.found == found
    assert out.evaluations == evaluations
    return out


class TestDiscExactOracle:
    """The exact search returns exactly what scoring every combinations()
    tuple in order returns."""

    @pytest.mark.parametrize("seed", range(38))
    def test_random_pools(self, seed):
        m = 1 + seed % 8
        count = 2 + seed % 19
        gen = np.random.default_rng(900 + seed)
        cols = gen.standard_normal((m, count))
        target = gen.standard_normal(m) * gen.uniform(0.0, 2.0)
        # k = 1, k = count and k > count // 2 leave some half sizes empty
        ks = {1, count, count // 2 + 1, int(gen.integers(1, count + 1))}
        for k in sorted(ks):
            theta = float(gen.uniform(0.05, 1.5))
            assert_matches_oracle(DiscInstance(cols, target, theta, k))

    @pytest.mark.parametrize("unit", [1.0, 0.1])
    @pytest.mark.parametrize("seed", range(12))
    def test_duplicate_columns_exact_ties(self, seed, unit):
        # whole units tie exactly in floating point; tenths tie exactly on
        # paper, and the two summation orders round those ties differently
        gen = np.random.default_rng(950 + seed)
        m = 1 + seed % 4
        count = 4 + seed
        distinct = gen.integers(-2, 3, size=(m, 3)) * unit
        cols = distinct[:, gen.integers(0, 3, size=count)]
        target = gen.integers(-3, 4, size=m) * unit
        for k in (1, 2, count // 2 + 1, count):
            assert_matches_oracle(DiscInstance(cols, target, 0.5, k))

    @pytest.mark.parametrize("seed", range(8))
    def test_single_precision_columns(self, seed):
        # float32 sums round far more coarsely than the float64 split-half
        # sums, and the re-score window has to cover that
        gen = np.random.default_rng(970 + seed)
        m = 1 + seed % 3
        count = 8 + seed
        cols = (gen.integers(-3, 4, size=(m, count)) * 0.1).astype(np.float32)
        target = gen.integers(-5, 6, size=m) * 0.1
        for k in (2, 3, count // 2 + 1):
            assert_matches_oracle(DiscInstance(cols, target, 0.5, k))

    @pytest.mark.parametrize("m,count,k", [(2, 24, 8), (8, 36, 6), (3, 800, 2)])
    def test_full_size_pools(self, m, count, k):
        # C(800,2) pairs its one empty left subset with 79,800 right sums
        gen = np.random.default_rng(m * 1000 + count)
        cols = gen.standard_normal((m, count))
        target = gen.standard_normal(m)
        assert_matches_oracle(DiscInstance(cols, target, 0.3, k))

    @staticmethod
    def _record_scored_pairs(monkeypatch):
        """Sizes of the batches of pairs the band join scores."""
        sizes = []
        scores = discrepancy._scores

        def recorded(left, right, rows, cols):
            sizes.append(rows.size)
            return scores(left, right, rows, cols)

        monkeypatch.setattr(discrepancy, "_scores", recorded)
        return sizes

    def test_all_subsets_tied(self, monkeypatch):
        # every subset ties, so the band holds every pair; they are scored,
        # and the near-minimum ones re-scored, a bounded chunk at a time
        sizes = self._record_scored_pairs(monkeypatch)
        target = np.array([0.25, -0.5])
        out = disc_exact(DiscInstance(np.zeros((2, 24)), target, 0.1, 8))
        assert out.subset == tuple(range(8))
        assert out.deviation == 0.5
        assert not out.found
        assert out.evaluations == math.comb(24, 8)
        assert out.scored == out.evaluations
        assert max(sizes) <= discrepancy._ENUM_CHUNK * 8

    def test_far_target_at_the_budget(self, monkeypatch):
        # the rounding bound on a target of 1e15 exceeds the spread of the
        # subset sums, so all C(24, 10) pairs lie in the band, and the
        # C(12, 5)^2 pairs of the largest size pair take two chunks
        sizes = self._record_scored_pairs(monkeypatch)
        assert math.comb(24, 10) <= EXACT_ENUM_BUDGET < math.comb(25, 10)
        cols = np.random.default_rng(24).standard_normal((2, 24))
        inst = DiscInstance(cols, np.array([1e15, 0.5]), 0.5, 10)
        out = assert_matches_oracle(inst)
        assert out.scored == out.evaluations
        cap = discrepancy._ENUM_CHUNK * 10
        assert max(sizes) == cap < math.comb(12, 5) ** 2

    @pytest.mark.parametrize("m, count, k, law", [
        (2, 6, 6, "gaussian"),   # one size pair
        (3, 1, 1, "gaussian"),   # an empty left half
        (1, 4, 2, "gaussian"),
        (1, 10, 5, "gaussian"),
        (2, 8, 4, "integer"),    # few distinct sums, so exact ties
        (3, 9, 3, "gaussian"),
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_small_pools(self, m, count, k, law, seed):
        # the band join serves the smallest pools too: one size pair, an
        # empty left half, and pools of a few subsets to a few hundred
        gen = np.random.default_rng(1100 + seed)
        if law == "integer":
            cols = gen.integers(-2, 3, size=(m, count)).astype(float)
            target = gen.integers(-3, 4, size=m).astype(float)
        else:
            cols = gen.standard_normal((m, count))
            target = gen.standard_normal(m)
        out = assert_matches_oracle(DiscInstance(cols, target, 0.3, k))
        assert out.scored <= out.evaluations == math.comb(count, k)

    def test_small_pool_all_subsets_tied(self):
        # zero columns tie every subset, so every pair lies in a band
        out = assert_matches_oracle(DiscInstance(np.zeros((2, 6)), np.array([0.25, -0.5]), 0.1, 3))
        assert out.subset == (0, 1, 2)
        assert out.scored == out.evaluations == 20

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_oracle_on_random_pools(self, data):
        m = data.draw(st.integers(1, 4), label="m")
        # half the draws have count >= 13, where k near count / 2 gives pools
        # of more than 1,024 subsets whose bands hold a small share of the pairs
        count = data.draw(st.integers(1, 16) | st.integers(13, 16), label="count")
        k = data.draw(st.integers(1, count) | st.just(count // 2 + 1), label="k")
        law = data.draw(st.sampled_from(["gaussian", "integer", "float32", "tenths32"]),
                        label="law")
        far = data.draw(st.sampled_from([0.0, 1e2, 1e8, 1e15]), label="far")
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if law == "integer":  # few distinct sums, so exact ties
            cols = gen.integers(-2, 3, size=(m, count)).astype(float)
        elif law == "tenths32":  # ties on paper that float32 sums round apart
            cols = (gen.integers(-3, 4, size=(m, count)) * 0.1).astype(np.float32)
        else:
            cols = gen.standard_normal((m, count)).astype(
                np.float32 if law == "float32" else np.float64
            )
        # near: one subset's own sum, nudged; far: shifted past every sum
        members = gen.choice(count, size=k, replace=False)
        target = cols[:, members].sum(axis=1, dtype=float)
        target += 0.05 * gen.standard_normal(m) + far * gen.choice([-1.0, 1.0], size=m)
        theta = float(gen.uniform(0.01, 1.0))
        out = assert_matches_oracle(DiscInstance(cols, target, theta, k))
        assert out.scored <= out.evaluations == math.comb(count, k)


def test_split_plan_pairs_every_proper_subset_size():
    # _band_join scores the largest size pair, then all the others: k <
    # count gives at least two size pairs, while k == count and count == 1
    # (an empty left half) give one, and _band_join skips the second pass
    for count in range(2, 25):
        for k in range(1, count):
            table, blocks, *_ = discrepancy._split_plan(count, k)
            assert len(blocks) >= 2
            assert sum((l1 - l0) * (r1 - r0) for l0, l1, r0, r1 in blocks) == math.comb(count, k)
    assert len(discrepancy._split_plan(6, 6)[1]) == 1
    assert len(discrepancy._split_plan(1, 1)[1]) == 1


def slot_table_sums(inst):
    """The split-half sums as the slot table defines them: the k + 1 slot
    columns of [columns | 0 | -target] added slot by slot, target last."""
    table = discrepancy._split_plan(inst.count, inst.k)[0]
    ext = np.zeros((inst.columns.shape[0], inst.count + 2))
    ext[:, : inst.count] = inst.columns
    ext[:, -1] = -inst.target
    sums = np.take(ext, table[0], axis=1)
    for slot in table[1:]:
        sums += np.take(ext, slot, axis=1)
    return sums


class TestSplitSums:
    """The prefix-built split-half sums are the slot table's sums, bit for
    bit, so the band join returns what it returned when it added the slots."""

    # (seed, m, count, k, column dtype, zero column) and the outcome, frozen
    # from the slot-table build as (subset, deviation, found, evaluations, scored)
    POOLS = [
        ((1, 2, 24, 8, np.float64, False),
         ((2, 3, 4, 6, 8, 15, 18, 23), 0.009831134124308472, True, 735471, 4042)),
        ((2, 1, 22, 11, np.float64, False),
         ((1, 4, 9, 11, 13, 15, 16, 18, 19, 20, 21), 6.319942927768274e-06, True, 705432, 833)),
        ((3, 3, 28, 7, np.float64, False),
         ((0, 4, 5, 11, 13, 16, 23), 0.020514399495836277, True, 1184040, 11948)),
        ((4, 2, 60, 3, np.float64, False),
         ((1, 33, 41), 0.008460932927313425, True, 34220, 101)),
        ((5, 4, 200, 2, np.float64, False),
         ((24, 32), 0.09710209332552716, False, 19900, 3729)),
        ((6, 2, 24, 8, np.float32, False),
         ((0, 2, 9, 14, 16, 18, 22, 23), 0.006682006812087193, True, 735471, 2729)),
        ((7, 2, 20, 6, np.float64, True),
         ((1, 5, 7, 8, 10, 14), 0.015391743802457336, True, 38760, 474)),
    ]

    @staticmethod
    def pool(seed, m, count, k, dtype, zero_column):
        gen = np.random.default_rng(seed)
        cols = gen.standard_normal((m, count)).astype(dtype)
        if zero_column:
            cols[:, count // 2] = 0.0
        return DiscInstance(cols, gen.standard_normal(m), 0.05, k)

    @staticmethod
    def assert_sums_are_the_slot_sums(inst):
        ext = np.empty((inst.columns.shape[0], inst.count + 1))
        ext[:, :-1] = inst.columns
        ext[:, -1] = -inst.target
        sums = discrepancy._split_sums(ext, *discrepancy._split_plan(inst.count, inst.k)[2])
        assert sums.view(np.int64).tolist() == slot_table_sums(inst).view(np.int64).tolist()

    @pytest.mark.parametrize("spec, frozen", POOLS, ids=[
        "C(24,8)", "C(22,11)", "C(28,7)", "C(60,3)", "C(200,2)", "float32", "zero-column"])
    def test_sums_and_outcome(self, spec, frozen):
        inst = self.pool(*spec)
        self.assert_sums_are_the_slot_sums(inst)
        out = disc_exact(inst)
        assert (out.subset, out.deviation, out.found, out.evaluations, out.scored) == frozen

    @pytest.mark.parametrize("count, k", [(6, 6), (13, 10), (17, 13), (20, 15), (16, 15)])
    def test_sums_where_some_sizes_pair_with_none(self, count, k):
        # k > count - h leaves the small subsets of both halves unpaired:
        # they are built as prefixes but are no block's sums
        self.assert_sums_are_the_slot_sums(self.pool(count, 3, count, k, np.float64, False))


@pytest.mark.parametrize("w", [0.0, 0.25, 1.0])
def test_band_edges_count_as_side_left_and_right(w):
    # left sums whose key -l_0 + w lands on a right value exactly, at a
    # binade boundary of either sign, on zero and at the ends of the range
    big = np.finfo(np.float64).max
    tiny = np.nextafter(0.0, 1.0)
    values = np.array([-big, -2.0, -1.0, -1.0, -tiny, 0.0, 0.0, tiny, 0.75, 1.0, 1.0, 2.0, big])
    right0 = np.concatenate([values, np.sort(values[::3]), [0.5]])
    left0 = np.concatenate([w - values, [-np.inf, np.inf], 0.25 - values[::3], [w - 0.5]])
    parts = ((0, 15, 0, 13), (15, 20, 13, 18), (20, 21, 18, 19))
    lo, hi = discrepancy._band_edges(left0, right0, parts, w)
    for a, b, p0, p1 in parts:
        seg, key = right0[p0:p1], -left0[a:b]
        assert lo[a:b].tolist() == seg.searchsorted(key - w, side="left").tolist()
        assert hi[a:b].tolist() == seg.searchsorted(key + w, side="right").tolist()


class TestDiscSearch:
    @pytest.mark.parametrize("seed", range(15))
    def test_never_beats_exact(self, seed):
        inst = random_instance(seed)
        exact = disc_exact(inst)
        search = disc_search(inst, RngHandle(seed, 7), restarts=20)
        assert search.deviation >= exact.deviation - 1e-12

    def test_k_equal_to_count_has_no_swap(self):
        inst = random_instance(4, count=6, k=6, theta=1e-9)
        out = disc_search(inst, RngHandle(4), restarts=3)
        exact = disc_exact(inst)
        assert not out.found
        assert out.subset == exact.subset == tuple(range(6))
        assert out.deviation == exact.deviation
        # each restart scores its one subset and finds no swap
        assert out.evaluations == 3

    def test_determinism(self):
        inst = random_instance(5)
        a = disc_search(inst, RngHandle(6), restarts=10)
        b = disc_search(inst, RngHandle(6), restarts=10)
        assert a.subset == b.subset and a.deviation == b.deviation

    def test_verdict_agreement_rate(self):
        # calibrated theta, small universes: search must reproduce the exact
        # found/not-found verdict in at least 95% of 200 instances
        agree = 0
        cases = 0
        for seed in range(200):
            m = 1 + seed % 2
            params = calibrate_theta(m, 2)
            count = min(params.universe, 16)
            cols = RngHandle(7000, seed).gen.standard_normal((m, count))
            inst = DiscInstance(
                columns=cols, target=np.zeros(m), theta=params.theta, k=2
            )
            exact = disc_exact(inst)
            search = disc_search(inst, RngHandle(7001, seed), restarts=50)
            cases += 1
            if exact.found == search.found:
                agree += 1
        assert agree / cases >= 0.95

    def test_found_never_when_exact_says_no(self):
        for seed in range(30):
            inst = random_instance(seed, theta=1e-9)
            if not disc_exact(inst).found:
                assert not disc_search(inst, RngHandle(seed, 3), restarts=10).found


class TestSuccessMc:
    def test_rate_exceeds_1_over_25(self):
        rate, stderr = disc_success_mc(
            1, 2, "gaussian", np.zeros(1), 2000, RngHandle(77)
        )
        assert rate - 3.0 * stderr > 1.0 / 25.0

    def test_reproducible_and_boundary_target(self):
        k = 2
        target = np.array([math.sqrt(k)])
        r1, _ = disc_success_mc(1, k, "gaussian", target, 300, RngHandle(78))
        r2, _ = disc_success_mc(1, k, "gaussian", target, 300, RngHandle(78))
        assert r1 == r2

    def test_monotone_in_theta_on_paired_draws(self):
        # doubling theta can only enlarge the success event
        m, k = 1, 2
        params = calibrate_theta(m, k)
        wins_small = wins_big = 0
        for trial in range(300):
            cols = draw_columns(m, params.universe, "gaussian", RngHandle(79, trial))
            small = DiscInstance(
                columns=cols, target=np.zeros(m), theta=params.theta, k=k
            )
            big = DiscInstance(
                columns=cols, target=np.zeros(m), theta=2 * params.theta, k=k
            )
            s = disc_exact(small).found
            b = disc_exact(big).found
            assert b or not s
            wins_small += s
            wins_big += b
        assert wins_big >= wins_small

    def test_unknown_column_law_refused(self):
        with pytest.raises(ValueError, match="^unknown column law: 'cauchy'$"):
            draw_columns(1, 4, "cauchy", RngHandle(80))

    def test_mixture_law_supported(self):
        rate, _ = disc_success_mc(
            1, 2, "mixture:0.5", np.zeros(1), 200, RngHandle(80)
        )
        assert 0.0 <= rate <= 1.0

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            disc_success_mc(1, 2, "gaussian", np.zeros(1), 50, RngHandle(1))

    def test_local_search_above_the_budget(self, monkeypatch):
        # m=1, k=2 draws C(4, 2) = 6 subsets; a budget of 5 sends every trial
        # to the local search, which scores the same columns as the exact
        # search, so it can succeed only where the exact search does
        exact_rate, _ = disc_success_mc(1, 2, "gaussian", np.zeros(1), 100, RngHandle(81))
        calls = []
        search = discrepancy.disc_search

        def counted(*args, **kwargs):
            calls.append(args[0])
            return search(*args, **kwargs)

        monkeypatch.setattr(discrepancy, "EXACT_ENUM_BUDGET", 5)
        monkeypatch.setattr(discrepancy, "disc_search", counted)
        search_rate, _ = disc_success_mc(1, 2, "gaussian", np.zeros(1), 100, RngHandle(81))
        assert len(calls) == 100
        assert 0.0 < search_rate <= exact_rate


class TestExpectedSuccessCalibration:
    @pytest.mark.parametrize("k", [2, 3])
    def test_expected_hit_count_near_one(self, k):
        # theta is calibrated so the expected number of within-theta subsets
        # is about 1; the Monte Carlo mean must land in [1/e - 3s, e + 3s]
        m = 1
        params = calibrate_theta(m, k)
        counts = []
        for trial in range(2000):
            cols = draw_columns(m, params.universe, "gaussian", RngHandle(81, trial))
            counts.append(
                count_disc_successes(cols, np.zeros(m), params.theta, k)
            )
        mean = float(np.mean(counts))
        sem = float(np.std(counts, ddof=1) / math.sqrt(len(counts)))
        assert mean >= 1.0 / math.e - 3.0 * sem
        assert mean <= math.e * (1.0 + 3.0 * sem)
