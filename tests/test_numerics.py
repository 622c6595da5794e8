import hashlib
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from giplab.numerics import (
    calibrate_theta,
    entropy,
    householder_to_axis,
    log_binomial,
    pool_multiplier,
    solve_beta,
    theory_params,
)

from oracles import (
    ALPHA_EPS_19_DELTA,
    BETA_FOR_ALPHA_EPS_19,
    ENTROPY_0_998,
    mixture_density_oracle,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _bits_digest(values) -> str:
    """SHA-256 of the float64 bytes of `values`."""
    return hashlib.sha256(np.array(values, dtype=np.float64).tobytes()).hexdigest()


class TestEntropy:
    def test_half_is_ln2(self):
        assert entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_endpoints_are_zero(self):
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0

    def test_frozen_high_precision_value(self):
        assert entropy(0.998) == pytest.approx(ENTROPY_0_998, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            entropy(-0.001)
        with pytest.raises(ValueError):
            entropy(1.001)

    def test_symmetry_on_random_points(self):
        rng = np.random.default_rng(7)
        for x in rng.random(1000).tolist():
            assert entropy(x) == pytest.approx(entropy(1.0 - x), abs=1e-12)

    def test_concavity_midpoint(self):
        rng = np.random.default_rng(8)
        for a, b in rng.random((500, 2)).tolist():
            assert entropy((a + b) / 2.0) >= (entropy(a) + entropy(b)) / 2.0 - 1e-12

    def test_bits_are_frozen(self):
        # numpy's log and log1p on one float; math.log gives other bits
        grid = [0.0, 1.0] + np.random.default_rng(3417).random(4096).tolist()
        assert _bits_digest([entropy(x) for x in grid]) == (
            "5e56e03ab0dc858e2a1af7939988aff9c2373cd37a37ac0641f1474df9980b32")


class TestSolveBeta:
    def test_alpha_max_gives_half(self):
        assert solve_beta(2.0 * math.sqrt(math.log(2.0))) == pytest.approx(0.5, abs=1e-7)

    def test_alpha_zero_gives_one(self):
        assert solve_beta(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_frozen_lemma_case(self):
        beta = solve_beta(ALPHA_EPS_19_DELTA)
        assert beta == pytest.approx(BETA_FOR_ALPHA_EPS_19, abs=1e-9)
        assert beta < 499.0 / 500.0

    def test_matches_independent_root_finder(self):
        def h(x):
            return -x * math.log(x) - (1 - x) * math.log(1 - x)

        for alpha in (0.1, 0.3, 0.5, 1.0, 1.5):
            target = alpha * alpha / 4.0
            ref = brentq(lambda x: h(x) - target, 0.5 + 1e-15, 1 - 1e-15, xtol=1e-14)
            assert solve_beta(alpha) == pytest.approx(ref, abs=1e-11)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            solve_beta(2.0)
        with pytest.raises(ValueError):
            solve_beta(-0.1)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(9)
        for beta in rng.uniform(0.5, 1.0, size=1000):
            alpha = 2.0 * math.sqrt(entropy(beta))
            assert abs(solve_beta(alpha) - beta) <= 1e-9

    def test_bits_are_frozen(self):
        alphas = np.linspace(0.0, 2.0 * math.sqrt(math.log(2.0)), 257).tolist()
        assert _bits_digest([solve_beta(a) for a in alphas]) == (
            "ab7f3f5ef375c94db19a04cc1ea0cf3b1fddc98c5ab08cfe9935f070d46e85a2")


class TestLogBinomial:
    def test_within_one_ulp_of_decimal_reference(self):
        with localcontext() as ctx:
            ctx.prec = 40
            for n in range(0, 601, 6):
                for k in range(0, n + 1, max(1, n // 90)):
                    got = log_binomial(n, k)
                    ref = Decimal(math.comb(n, k)).ln()
                    assert abs(Decimal(got) - ref) <= Decimal(math.ulp(got)), (n, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_binomial(3, 4)
        with pytest.raises(ValueError):
            log_binomial(3, -1)


class TestCalibrateTheta:
    def test_hand_computed_small_cases(self):
        p = calibrate_theta(1, 1)
        assert p.a == 2
        assert p.theta == pytest.approx(math.sqrt(2.0 * math.pi) / 4.0, rel=1e-12)
        p = calibrate_theta(1, 2)
        assert p.theta == pytest.approx(math.sqrt(4.0 * math.pi) / 12.0, rel=1e-12)

    def test_pool_multiplier_is_the_integer_ceiling(self):
        # ceil(2 sqrt(m)) is the least a with a^2 >= 4m, in integers
        for m in range(1, 10_001):
            assert pool_multiplier(m) == math.isqrt(4 * m - 1) + 1
            assert pool_multiplier(m) == math.ceil(2.0 * math.sqrt(m))

    def test_defining_identity_on_grid(self):
        for m in range(1, 5):
            for k in (1, 2, 4, 8, 16, 32, 64):
                p = calibrate_theta(m, k)
                assert p.a == math.ceil(2.0 * math.sqrt(m))
                residual = p.m * (
                    math.log(2.0 * p.theta) - 0.5 * math.log(2.0 * math.pi * p.k)
                ) + log_binomial(p.a * p.k, p.k)
                # exp(residual) must be within 1e-9 of 1
                assert abs(math.expm1(residual)) <= 1e-9

    def test_large_k_theta_small(self):
        # k >= 2 m ln m forces theta <= 1/sqrt(k)
        for m in (2, 3, 4, 6):
            k = max(int(2 * m * math.log(m)) + 1, 2)
            p = calibrate_theta(m, k)
            assert p.theta <= 1.0 / math.sqrt(k)

    def test_domain(self):
        with pytest.raises(ValueError):
            calibrate_theta(0, 1)
        with pytest.raises(ValueError):
            calibrate_theta(1, 0)


class TestHouseholder:
    def test_already_on_axis(self):
        u = np.array([0.0, 0.0, 2.5])
        r = householder_to_axis(u)
        assert np.allclose(r @ u, [0.0, 0.0, 2.5], atol=1e-12)

    def test_e1_to_e2(self):
        r = householder_to_axis(np.array([1.0, 0.0]))
        assert np.allclose(r @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-12)

    def test_defining_property_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.standard_normal(5)
            r = householder_to_axis(u)
            target = np.zeros(5)
            target[-1] = np.linalg.norm(u)
            assert np.linalg.norm(r @ u - target) <= 1e-10 * np.linalg.norm(u)

    def test_orthogonality_and_isometry(self):
        rng = np.random.default_rng(12)
        for dim in (1, 2, 3, 7):
            u = rng.standard_normal(dim)
            r = householder_to_axis(u)
            assert np.abs(r.T @ r - np.eye(dim)).max() <= 1e-10
            v = rng.standard_normal(dim)
            assert abs(np.linalg.norm(r @ v) - np.linalg.norm(v)) <= 1e-10

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            householder_to_axis(np.zeros(3))

    def test_matrix_rejected(self):
        with pytest.raises(ValueError, match="^u must be a vector$"):
            householder_to_axis(np.ones((2, 2)))


class TestMixtureDensity:
    """The uniform+Gaussian mixture's density, read from the oracle: the
    histogram of `rng.mixture_sample` and the knapsack envelope for the
    ``absmix`` weight law rest on it."""

    def test_pure_gaussian(self):
        assert mixture_density_oracle(0.0, 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-12
        )

    def test_pure_uniform(self):
        assert mixture_density_oracle(1.0, 0.0) == pytest.approx(
            1.0 / (2.0 * math.sqrt(3.0)), abs=1e-12
        )
        assert mixture_density_oracle(1.0, 1.8) == 0.0

    def test_max_density_at_most_one(self):
        xs = np.linspace(-4.0, 4.0, 4001)
        for eps in np.linspace(0.0, 1.0, 21):
            assert np.max(mixture_density_oracle(float(eps), xs)) <= 1.0 + 1e-12

    def test_integrates_to_one(self):
        for eps in (0.0, 0.25, 0.5, 0.9, 1.0):
            total, _ = quad(lambda x: float(mixture_density_oracle(eps, x)),
                            -10.0, 10.0, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_in_x(self):
        xs = np.linspace(0.0, 5.0, 100)
        for eps in (0.2, 0.7):
            assert np.allclose(
                mixture_density_oracle(eps, xs), mixture_density_oracle(eps, -xs),
                atol=1e-13,
            )


class TestTheoryParams:
    def test_zero_delta_case(self):
        p = theory_params(1.0 / 9.0, 0.0)
        assert p.alpha == pytest.approx(0.75 / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_frozen_delta_case(self):
        p = theory_params(1.0 / 9.0, math.sqrt(2.0 * math.pi) / 10.0)
        assert p.alpha == pytest.approx(ALPHA_EPS_19_DELTA, abs=1e-12)
        assert entropy(p.beta) == pytest.approx(p.alpha**2 / 4.0, abs=1e-9)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            theory_params(0.3, 0.0)

    @pytest.mark.parametrize("delta", [-0.1, 0.8])
    def test_rejects_delta_out_of_range(self, delta):
        # at epsilon = 1/9 the range is [0, (1 - 3/9)/(1 - 1/9)), about [0, 0.75)
        with pytest.raises(ValueError,
                           match=r"^delta must lie in \[0, \(1-3\*eps\)/\(1-eps\)\)$"):
            theory_params(1.0 / 9.0, delta)


def test_importing_every_module_loads_no_scipy():
    code = (
        "import importlib, pkgutil, sys, giplab\n"
        "names = [m.name for m in pkgutil.iter_modules(giplab.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('giplab.' + name)\n"
        "print(len(names))\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True,
    )
    count, loaded = res.stdout.splitlines()
    assert int(count) >= 10
    assert loaded == "[]"
