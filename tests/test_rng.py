import math

import numpy as np
import pytest
from scipy.stats import kstest

from giplab.rng import (
    BandSample,
    RngHandle,
    band_accept_prob,
    band_acceptance_rate,
    band_sample,
    conditioned_column,
    mixture_sample,
)
from giplab import lp, rounding
from giplab.instance import BSpec, generate
from giplab.rng import _conditioned_draw
from giplab.numerics import entropy, solve_beta

from oracles import band_y_cdf, band_y_cdf_quadrature, mixture_density_oracle


class TestRngHandle:
    def test_identical_identity_replays(self):
        a = RngHandle(123, 5).gen.standard_normal(100)
        b = RngHandle(123, 5).gen.standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngHandle(123, 0).gen.standard_normal(100)
        b = RngHandle(123, 1).gen.standard_normal(100)
        assert not np.array_equal(a, b)

    def test_derive_is_deterministic_and_distinct(self):
        h = RngHandle(9)
        a = h.derive(3, 1).gen.standard_normal(10)
        b = RngHandle(9).derive(3, 1).gen.standard_normal(10)
        c = h.derive(3, 2).gen.standard_normal(10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_range_validation(self):
        with pytest.raises(ValueError):
            RngHandle(-1)
        with pytest.raises(ValueError):
            RngHandle(2**64)
        with pytest.raises(ValueError,
                           match="^stream must be an unsigned 64-bit integer$"):
            RngHandle(1, 2**64)

    def test_repr_shows_the_identity(self):
        assert repr(RngHandle(7)) == "RngHandle(7)"
        assert repr(RngHandle(7, 3).derive(0, 2)) == "RngHandle(7/3/0/2)"

    def test_negative_path_entry_raises_at_construction(self):
        with pytest.raises(ValueError, match="path entries must be nonnegative"):
            RngHandle(1, 0, (-1,))
        with pytest.raises(ValueError, match="path entries must be nonnegative"):
            RngHandle(1).derive(2, -3)

    @staticmethod
    def count_philox(monkeypatch):
        built = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        return built

    def test_a_handle_seeds_its_stream_on_first_read(self, monkeypatch):
        built = self.count_philox(monkeypatch)
        trial = RngHandle(3, 1)
        pipeline = trial.derive(9)  # round_pipeline only derives from it
        rounding_rng = pipeline.derive(0)
        assert (trial.key, pipeline.key) == ("3/1", "3/1/9")
        assert built == []
        rounding_rng.gen.random()
        rounding_rng.gen.random()
        assert len(built) == 1

    def test_late_read_draws_what_an_early_read_draws(self):
        early = RngHandle(11, 2, (5,))
        early_draws = early.gen.standard_normal(8)
        late = RngHandle(11, 2, (5,))
        RngHandle(11, 2, (6,)).gen.standard_normal(8)  # another stream in between
        assert np.array_equal(late.gen.standard_normal(8), early_draws)

        parent = RngHandle(11)
        child = parent.derive(2, 5)
        parent.gen.standard_normal(3)  # the parent's draws do not move the child
        direct = RngHandle(11, 0, (2, 5)).gen.standard_normal(8)
        assert np.array_equal(child.gen.standard_normal(8), direct)
        assert np.array_equal(RngHandle(11).derive(2).derive(5).gen.standard_normal(8), direct)


class TestGaussianMatrix:
    """The A block of `generate`, drawn first from the instance's stream."""

    def test_determinism(self):
        a = generate(1, 1, BSpec.zeros(), RngHandle(4)).A
        b = generate(1, 1, BSpec.zeros(), RngHandle(4)).A
        assert a[0, 0] == b[0, 0]
        assert a[0, 0] == RngHandle(4).gen.standard_normal()

    def test_moments_at_scale(self):
        sample = generate(1000, 1000, BSpec.zeros(), RngHandle(5)).A.ravel()
        assert abs(sample.mean()) <= 0.005
        assert 0.99 <= sample.var() <= 1.01

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            generate(0, 3, BSpec.zeros(), RngHandle(1))


class TestConditionedColumn:
    def test_constraint_always_holds(self):
        h = RngHandle(6)
        u = np.array([0.5, 1.5])
        for _ in range(500):
            c, a = conditioned_column(u, h)
            assert c - u @ a <= 0.0

    def test_acceptance_rate_is_half(self):
        h = RngHandle(7)
        u = np.zeros(3)
        total_tries = 0
        n_samples = 20_000
        for _ in range(n_samples):
            c, a, tries = _conditioned_draw(u, h.gen)
            assert c <= 0.0
            total_tries += tries
        rate = n_samples / total_tries
        assert 0.49 <= rate <= 0.51

    def test_half_normal_mean(self):
        # for u = (1,), (a - c)/sqrt(2) is standard normal conditioned >= 0
        h = RngHandle(8)
        u = np.array([1.0])
        vals = []
        for _ in range(100_000):
            c, a = conditioned_column(u, h)
            vals.append((a[0] - c) / math.sqrt(2.0))
        mean = float(np.mean(vals))
        assert abs(mean - math.sqrt(2.0 / math.pi)) <= 0.01

    def test_negative_u_rejected(self):
        with pytest.raises(ValueError):
            conditioned_column(np.array([-0.1]), RngHandle(1))

    def test_matrix_u_rejected(self):
        with pytest.raises(ValueError, match="^u must be a vector$"):
            conditioned_column(np.ones((2, 2)), RngHandle(1))


class TestBandSample:
    def test_algebraic_identity_and_flag(self):
        h = RngHandle(9)
        for _ in range(2000):
            s = band_sample(1.0, 0.5, h)
            assert s.z == 1.0 * s.y - s.x
            assert s.z >= 0.0
            if s.accepted:
                assert 0.0 <= s.z <= 0.5

    def test_accept_prob_bounds(self):
        assert band_accept_prob(1.0, 0.5, -0.1) == 0.0
        assert band_accept_prob(1.0, 0.5, 0.6) == 0.0
        assert band_accept_prob(1.0, 0.5, 0.5) == pytest.approx(1.0)
        assert 0.0 < band_accept_prob(1.0, 0.5, 0.2) < 1.0

    @pytest.mark.parametrize("omega", [0.0, 1.0, 3.0])
    @pytest.mark.parametrize("nu", [0.1, 0.5])
    def test_acceptance_rate_formula(self, omega, nu):
        h = RngHandle(10, int(omega * 10 + nu * 100))
        draws = 100_000
        accepted = sum(band_sample(omega, nu, h).accepted for _ in range(draws))
        expect = band_acceptance_rate(omega, nu)
        sigma = math.sqrt(expect * (1.0 - expect) / draws)
        assert abs(accepted / draws - expect) <= 3.0 * sigma + 1e-4

    def test_accepted_z_uniform(self):
        h = RngHandle(11)
        omega, nu = 1.0, 0.5
        zs = []
        while len(zs) < 4000:
            s = band_sample(omega, nu, h)
            if s.accepted:
                zs.append(s.z)
        stat = kstest(zs, "uniform", args=(0.0, nu))
        assert stat.pvalue > 0.01

    @pytest.mark.parametrize("omega,nu", [(1.0, 0.5), (3.0, 0.5), (0.0, 0.5)])
    def test_accepted_y_convolution_law(self, omega, nu):
        h = RngHandle(12, int(omega))
        ys = []
        while len(ys) < 3000:
            s = band_sample(omega, nu, h)
            if s.accepted:
                ys.append(s.y)
        cdf = band_y_cdf(omega, nu)
        stat = kstest(ys, cdf)
        assert stat.pvalue > 0.01

    def test_y_cdf_closed_form_matches_quadrature(self):
        closed = band_y_cdf(2.0, 0.7)
        direct = band_y_cdf_quadrature(2.0, 0.7)
        for y in (-1.0, -0.2, 0.0, 0.3, 1.5):
            assert closed(y) == pytest.approx(direct(y), abs=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            band_sample(-1.0, 0.5, RngHandle(1))
        with pytest.raises(ValueError):
            band_sample(1.0, 0.0, RngHandle(1))
        # the two helpers refuse what the sampler refuses
        for nu in (-1.0, 0.0):
            with pytest.raises(ValueError, match="nu must be positive"):
                band_acceptance_rate(1.0, nu)
            with pytest.raises(ValueError, match="nu must be positive"):
                band_accept_prob(1.0, nu, 0.0)
        with pytest.raises(ValueError, match="omega must be nonnegative"):
            band_acceptance_rate(-1.0, 0.5)


class TestMixtureSample:
    def test_pure_uniform_support(self):
        draws = mixture_sample(1.0, RngHandle(13), size=10_000)
        assert np.all(np.abs(draws) <= math.sqrt(3.0) + 1e-12)

    def test_unit_variance(self):
        draws = mixture_sample(0.5, RngHandle(14), size=1_000_000)
        assert 0.99 <= draws.var() <= 1.01

    def test_fourth_moment_pure_uniform(self):
        draws = mixture_sample(1.0, RngHandle(15), size=1_000_000)
        m4 = float(np.mean(draws**4))
        assert abs(m4 - 9.0 / 5.0) <= 0.05

    def test_histogram_matches_density(self):
        eps = 0.5
        draws = mixture_sample(eps, RngHandle(16), size=1_000_000)
        bins = np.linspace(-5.0, 5.0, 201)
        hist, edges = np.histogram(draws, bins=bins, density=True)
        centers = (edges[:-1] + edges[1:]) / 2.0
        dens = mixture_density_oracle(eps, centers)
        assert np.max(np.abs(hist - dens)) <= 0.02

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mixture_sample(1.5, RngHandle(1), size=1)



class _NoDraws:
    """A handle whose generator may not be touched: a range check must
    refuse its arguments before the first draw."""

    @property
    def gen(self):
        raise AssertionError("drew from the generator before refusing")


def _lp_case():
    inst = generate(2, 6, BSpec.zeros(), RngHandle(2703))
    return inst, lp.solve_lp(inst)


_NAN = math.nan
_HALF = np.full(6, 0.5)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: band_sample(_NAN, 1.0, _NoDraws()), "omega must be nonnegative",
                 id="band_sample-omega"),
    pytest.param(lambda: band_sample(0.5, _NAN, _NoDraws()), "nu must be positive",
                 id="band_sample-nu"),
    pytest.param(lambda: band_accept_prob(1.0, 0.5, _NAN), "z must not be NaN",
                 id="band_accept_prob-z"),
    pytest.param(lambda: band_accept_prob(_NAN, 0.5, 0.2), "omega must be nonnegative",
                 id="band_accept_prob-omega"),
    pytest.param(lambda: band_accept_prob(1.0, _NAN, 0.2), "nu must be positive",
                 id="band_accept_prob-nu"),
    pytest.param(lambda: band_acceptance_rate(_NAN, 1.0), "omega must be nonnegative",
                 id="band_acceptance_rate-omega"),
    pytest.param(lambda: band_acceptance_rate(1.0, _NAN), "nu must be positive",
                 id="band_acceptance_rate-nu"),
    pytest.param(lambda: conditioned_column([_NAN, 0.0], _NoDraws()),
                 "u must be nonnegative", id="conditioned_column"),
    pytest.param(lambda: entropy(_NAN), r"must lie in \[0, 1\]", id="entropy-scalar"),
    pytest.param(lambda: solve_beta(_NAN), "alpha must be nonnegative", id="solve_beta"),
    pytest.param(lambda: lp.dual_value([_NAN, 0.0], _lp_case()[0]),
                 "dual vector must be nonnegative", id="dual_value"),
    pytest.param(lambda: lp.gap_formula(_HALF * _NAN, [0.0, 0.0], _lp_case()[0]),
                 r"x must lie in \[0, 1\]\^n", id="gap_formula-x"),
    pytest.param(lambda: lp.gap_formula(_HALF, [0.0, _NAN], _lp_case()[0]),
                 "u must be nonnegative", id="gap_formula-u"),
    pytest.param(lambda: rounding.randomized_round(
        np.where(np.arange(6) == 1, _NAN, _HALF), [0, 1, 2], _lp_case()[0].A, _NoDraws()),
        r"x_star must lie in \[0, 1\]\^n", id="randomized_round"),
    pytest.param(lambda: rounding.filter_reduced_costs(_lp_case()[1], _NAN, 1),
                 "delta must be positive", id="filter_reduced_costs"),
])
def test_nan_fails_range_checks(call, message):
    # a check written `x < 0` lets NaN through; each is written so that
    # NaN fails it, and those that draw refuse before the first draw
    with pytest.raises(ValueError, match=message):
        call()
