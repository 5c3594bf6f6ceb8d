"""Exit probabilities, ruin, integrated scale and the dividend barrier."""

import math

import numpy as np
import pytest

from scalekit.catalog import w_brownian, w_cramer_lundberg
from scalekit.errors import NotApplicableError, ParameterError
from scalekit.fluctuation import (ExitProblem, dividend_barrier, dividend_value,
                                  mpi1_workload, ruin_probability, two_sided_exit, z_q)
from scalekit.gtsc import GtscParams, ScaleFunction, w_ig, w_rational
from scalekit.polyfrac import RationalAlpha


class TestTwoSidedExit:
    def test_brownian_linear(self):
        w = w_brownian(1.0, 0.0, 0.0)
        p = two_sided_exit(ExitProblem(scale=w, x=0.5, a=1.0))
        assert p == pytest.approx(0.5, rel=1e-12)

    def test_boundary_values(self):
        w = w_ig(1.0, 1.0, 0.0)
        assert two_sided_exit(ExitProblem(scale=w, x=2.0, a=2.0)) == pytest.approx(1.0)
        assert two_sided_exit(ExitProblem(scale=w, x=0.0, a=2.0)) == 0.0

    def test_ig_ratio(self):
        w = w_ig(1.0, 1.0, 0.0)
        p = two_sided_exit(ExitProblem(scale=w, x=1.0, a=2.0))
        assert p == pytest.approx(w.eval(1.0) / w.eval(2.0), rel=1e-13)
        assert 0.0 <= p <= 1.0

    def test_monotone_in_x(self):
        w = w_ig(1.0, 1.0, 0.3)
        ps = [two_sided_exit(ExitProblem(scale=w, x=float(x), a=2.0, q=0.3))
              for x in np.linspace(0.0, 2.0, 21)]
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_validation(self):
        w = w_brownian(1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            ExitProblem(scale=w, x=2.0, a=1.0)
        with pytest.raises(ParameterError):
            ExitProblem(scale=w, x=-0.5, a=1.0)


class TestRuin:
    def test_cramer_lundberg_formula(self):
        # c=2, lambda=1, mu=1: ruin(x) = 0.5 exp(-0.5 x)
        w = w_cramer_lundberg(2.0, 1.0, 1.0)
        for x in (0.0, 1.0, 3.0):
            assert ruin_probability(w, w.psi, x) == pytest.approx(
                0.5 * math.exp(-0.5 * x), rel=1e-12)

    def test_unbounded_variation_starts_at_one(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=1.0)
        w = w_rational(params, RationalAlpha(1, 2), 0.0)
        assert ruin_probability(w, params.exponent(), 0.0) == pytest.approx(1.0)

    def test_oscillating_not_applicable(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0)   # psi'(0+) = 0
        w = w_rational(params, RationalAlpha(1, 2), 0.0)
        with pytest.raises(NotApplicableError):
            ruin_probability(w, params.exponent(), 1.0)

    def test_tsc_ruin_via_closed_form(self):
        # claims arriving at compound-Poisson intensity lam_cp with gamma(nu)
        # sizes, premium rate kappa + lam_cp, kappa = 1: the alpha = -nu
        # closed form reproduces 1 - psi'(0+) W(x) with the rho mapping
        from scipy import special as sps
        from scipy.integrate import quad

        from scalekit.gtsc import w0_closed
        from scalekit.special import mittag_leffler

        nu, gamma, c, kappa = 0.5, 1.0, 1.0, 1.0
        params = GtscParams(alpha=-nu, gamma=gamma, c=c, kappa=kappa)
        lam_cp = c * sps.gamma(nu) * gamma ** (-nu)
        rho = lam_cp / (kappa + lam_cp)
        for x in (0.5, 2.0):
            w_val = w0_closed(params, x)
            direct = 1.0 - kappa * w_val
            integrand = lambda y: y ** (nu - 1.0) * math.exp(-gamma * y) \
                * mittag_leffler(nu, nu, rho * gamma ** nu * y ** nu).real
            integral, _ = quad(integrand, 0.0, x, limit=200)
            display = 1.0 - 1.0 / (lam_cp + kappa) \
                - rho * gamma ** nu / (lam_cp + kappa) * integral
            assert direct == pytest.approx(display, rel=1e-9)

    def test_workload_complement(self):
        w = w_cramer_lundberg(2.0, 1.0, 1.0)
        cdf = mpi1_workload(w, w.psi)
        for x in (0.0, 0.7, 2.0, 10.0):
            assert cdf(x) + ruin_probability(w, w.psi, x) == pytest.approx(1.0, abs=1e-14)
        assert cdf(-1.0) == 0.0
        assert cdf(300.0) == pytest.approx(1.0, abs=1e-10)


class TestIntegratedScale:
    def test_q_zero_is_one(self):
        w = w_brownian(1.0, 0.0, 0.0)
        assert z_q(w, 3.0) == 1.0
        assert z_q(w, 0.0) == 1.0

    def test_brownian_cosh(self):
        w = w_brownian(math.sqrt(2.0), 0.0, 1.0)
        for x in (0.5, 1.0, 2.0):
            assert z_q(w, x) == pytest.approx(math.cosh(x), rel=1e-9)

    def test_derivative_is_q_w(self):
        w = w_ig(1.0, 1.0, 0.7)
        x, h = 1.3, 1e-4
        dz = (z_q(w, x + h) - z_q(w, x - h)) / (2.0 * h)
        assert dz == pytest.approx(0.7 * w.eval(x), rel=1e-6)


class TestDividends:
    def test_brownian_barrier_at_zero(self):
        # W' = cosh-type, strictly increasing: a* = 0
        w = w_brownian(math.sqrt(2.0), 0.0, 1.0)
        assert dividend_barrier(w) == pytest.approx(0.0, abs=1e-6)

    def test_gtsc_case_e_barrier(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=1.0, zeta=1.0)
        w = w_rational(params, RationalAlpha(1, 2), 1.0)
        a_star = dividend_barrier(w)
        assert a_star > 0.0
        # global minimum: derivative at a* below neighbours
        d0 = w.eval_deriv(a_star)
        assert d0 <= w.eval_deriv(a_star * 0.8) + 1e-10
        assert d0 <= w.eval_deriv(a_star * 1.2) + 1e-10

    def test_value_continuity_and_slope(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=1.0, zeta=1.0)
        w = w_rational(params, RationalAlpha(1, 2), 1.0)
        a = dividend_barrier(w)
        left = dividend_value(w, a, a - 1e-10)
        right = dividend_value(w, a, a + 1e-10)
        assert left == pytest.approx(right, rel=1e-8)
        # slope of the x > a branch is exactly 1
        v1, v2 = dividend_value(w, a, a + 1.0), dividend_value(w, a, a + 2.0)
        assert v2 - v1 == pytest.approx(1.0, abs=1e-10)
        assert dividend_value(w, a, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_nondecreasing(self):
        w = w_ig(1.0, 1.0, 1.0)
        a = dividend_barrier(w)
        xs = np.linspace(0.0, a + 3.0, 50)
        vals = [dividend_value(w, a, float(x)) for x in xs]
        assert all(b >= a2 - 1e-12 for a2, b in zip(vals, vals[1:]))

    def test_no_minimizer_on_grid_not_applicable(self):
        # W' = e^{-x} keeps decreasing over the whole search grid
        w = ScaleFunction(q=1.0, phi_q=0.0, route="stub", eval_fn=lambda x: 1.0 - math.exp(-x),
                          deriv_fn=lambda x: math.exp(-x))
        with pytest.raises(NotApplicableError):
            dividend_barrier(w)

    def test_q_zero_rejected(self):
        w = w_brownian(1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            dividend_barrier(w)