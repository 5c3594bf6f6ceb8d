"""Exit probabilities, ruin, integrated scale and the dividend barrier."""

import math
import types

import numpy as np
import pytest

from scalekit.catalog import w_brownian, w_cramer_lundberg
from scalekit.errors import NotApplicableError, ParameterError
from scalekit.fluctuation import (dividend_barrier, dividend_value, mpi1_workload,
                                  ruin_probability, two_sided_exit, z_q)
from scalekit.gtsc import GtscParams, ScaleFunction, w_ig, w_rational
from scalekit.polyfrac import RationalAlpha


class TestTwoSidedExit:
    def test_brownian_linear(self):
        w = w_brownian(1.0, 0.0, 0.0)
        p = two_sided_exit(w, 0.5, 1.0)
        assert p == pytest.approx(0.5, rel=1e-12)

    def test_boundary_values(self):
        w = w_ig(1.0, 1.0, 0.0)
        assert two_sided_exit(w, 2.0, 2.0) == pytest.approx(1.0)
        assert two_sided_exit(w, 0.0, 2.0) == 0.0

    def test_ig_ratio(self):
        w = w_ig(1.0, 1.0, 0.0)
        p = two_sided_exit(w, 1.0, 2.0)
        assert p == pytest.approx(w.eval(1.0) / w.eval(2.0), rel=1e-13)
        assert 0.0 <= p <= 1.0

    def test_monotone_in_x(self):
        w = w_ig(1.0, 1.0, 0.3)
        ps = [two_sided_exit(w, float(x), 2.0)
              for x in np.linspace(0.0, 2.0, 21)]
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_validation(self):
        w = w_brownian(1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            two_sided_exit(w, 2.0, 1.0)
        with pytest.raises(ParameterError):
            two_sided_exit(w, -0.5, 1.0)


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

    def test_mismatched_exponent_rejected(self):
        # 1 - psi'(0+) W(x) with the Brownian psi'(0+) = 0.5 would read 0.652, not 0.303
        w = w_cramer_lundberg(2.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            ruin_probability(w, w_brownian(1.0, 0.5).psi, 1.0)

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
            w_val = w0_closed(params).eval(x)
            direct = 1.0 - kappa * w_val
            integrand = lambda y: y ** (nu - 1.0) * math.exp(-gamma * y) \
                * mittag_leffler(nu, nu, rho * gamma ** nu * y ** nu).real
            integral, _ = quad(integrand, 0.0, x, limit=200)
            display = 1.0 - 1.0 / (lam_cp + kappa) \
                - rho * gamma ** nu / (lam_cp + kappa) * integral
            assert direct == pytest.approx(display, rel=1e-9)

    def test_workload_complement(self):
        w = w_cramer_lundberg(2.0, 1.0, 1.0)
        cdf = mpi1_workload(w)
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

    def test_one_w_call(self):
        # every panel's Kronrod nodes go to W in one array call, not one call per panel
        w = w_brownian(math.sqrt(2.0), 0.0, 1.0)
        shapes = []

        def counting(x):
            shapes.append(np.shape(x))
            return w.eval(x)

        stub = types.SimpleNamespace(q=w.q, eval=counting)
        assert z_q(stub, 2.5) == pytest.approx(math.cosh(2.5), rel=1e-9)
        assert len(shapes) == 1 and shapes[0][1] == 21


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
        w = ScaleFunction(q=1.0, phi_q=0.0, route="stub", w=lambda x: 1.0 - np.exp(-x),
                          dw=lambda x: np.exp(-x), psi=w_brownian(1.0, 0.0).psi)
        with pytest.raises(NotApplicableError):
            dividend_barrier(w)

    def test_q_zero_rejected(self):
        w = w_brownian(1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            dividend_barrier(w)

def _scalar_walk_barrier(scale):
    """The barrier as a one-point grid walk and scipy's bounded minimize_scalar."""
    from scipy.optimize import minimize_scalar

    d0 = scale.eval_deriv(1e-9)
    grid = 1e-3 * (1.6 ** np.arange(0, 40))
    prev_x, prev_d = 1e-9, d0
    for g in grid:
        d = scale.eval_deriv(float(g))
        if d > prev_d:
            lo, hi = max(prev_x / 1.6, 0.0), g
            break
        prev_x, prev_d = g, d
    else:
        raise NotApplicableError("no minimizer on the search grid")
    if hi <= 2e-3 and d0 <= scale.eval_deriv(2e-3):
        return 0.0
    return float(minimize_scalar(lambda y: scale.eval_deriv(float(y)), bounds=(lo, hi),
                                 method="bounded", options={"xatol": 1e-8}).x)


class TestBarrierParity:
    # a* from the block walk and the in-module bounded Brent loop is the double the
    # one-point walk and scipy's minimize_scalar(method="bounded") give
    def test_tabulate_configs(self):
        from scalekit.cli import CASES

        for label, case in CASES.items():
            for num, den in ((1, 4), (1, 3), (1, 2), (2, 3), (3, 4)):
                w = w_rational(case.params(num / den), RationalAlpha(num, den), 1.0)
                assert dividend_barrier(w) == _scalar_walk_barrier(w), (label, num, den)

    def test_fluctuation_cases(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=1.0, zeta=1.0)
        for w in (w_brownian(math.sqrt(2.0), 0.0, 1.0), w_rational(params, RationalAlpha(1, 2), 1.0),
                  w_ig(1.0, 1.0, 1.0), w_ig(0.5, 2.0, 0.3)):
            assert dividend_barrier(w) == _scalar_walk_barrier(w)

    def test_bounded_minimum_on_wavy_functions(self):
        # many local minima exercise every branch of the parabolic and golden steps
        from scipy.optimize import minimize_scalar

        from scalekit.fluctuation import _bounded_minimum

        rng = np.random.default_rng(7)
        for _ in range(300):
            k, c, s, lo = rng.uniform(0.5, 30.0), rng.normal(), rng.uniform(0.0, 3.0), rng.uniform(-2, 1)
            hi = lo + rng.uniform(1e-6, 5.0)

            def f(x):
                return math.sin(k * x) + c * x * x + s * abs(x - 0.3)

            ref = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-8}).x
            assert _bounded_minimum(f, lo, hi) == float(ref)

    def test_saturating_block_walked_point_by_point(self):
        # W' rises at x = 1e-3 * 1.6^3 and is infinite from 1.6^5 on: the block of the first
        # eight grid points saturates, yet the bracket ends before the one-point walk gets there
        def dw(x):
            with np.errstate(over="ignore"):
                return np.where(x < 1e-3 * 1.6 ** 4.5, (x - 1e-3 * 1.6 ** 2.2) ** 2, np.inf)

        w = ScaleFunction(q=1.0, phi_q=0.0, route="stub", w=lambda x: x, dw=dw,
                          psi=w_brownian(1.0, 0.0).psi)
        assert dividend_barrier(w) == _scalar_walk_barrier(w)
        assert dividend_barrier(w) == pytest.approx(1e-3 * 1.6 ** 2.2, rel=1e-4)
