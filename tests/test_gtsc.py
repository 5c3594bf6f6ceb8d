"""GTSC scale functions: route agreement, closed forms, asymptotics, shape."""

import math

import numpy as np
import pytest
from scipy import special as sps

from scalekit.bromwich import verify_laplace_identity
from scalekit.errors import ParameterError
from scalekit.gtsc import (GtscParams, asymptote_infinity, asymptote_zero,
                           ig_params, ig_q0_threshold, w0_closed,
                           w0_closed_scale, w_gamma_case, w_gamma_case_dual,
                           w_gamma_scale, w_ig, w_rational)
from scalekit.polyfrac import RationalAlpha

W_IG_AT_1 = 1.424660216656229247   # (1/2)[2 erfc(-1/sqrt 2) + sqrt(2/pi) e^{-1/2} - 1]


def richardson_limit(f, n, h0=1e-3, levels=4):
    """Extrapolate f(h) -> f(0+) assuming f(h) = f0 + sum_k c_k h^{k/n}."""
    hs = np.array([h0 / 2.0 ** i for i in range(levels)])
    vand = np.array([[h ** (k / n) for k in range(levels)] for h in hs])
    vals = np.array([f(float(h)) for h in hs])
    coef = np.linalg.solve(vand, vals)
    return float(coef[0])


class TestParams:
    def test_invariants(self):
        with pytest.raises(ParameterError, match="kappa\\*varphi"):
            GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=1.0, varphi=1.0)
        with pytest.raises(ParameterError):
            GtscParams(alpha=-0.5, gamma=0.0, c=1.0)
        with pytest.raises(ParameterError):
            GtscParams(alpha=1.0, gamma=1.0, c=1.0)
        with pytest.raises(ParameterError):
            GtscParams(alpha=0.5, gamma=1.0, c=0.0)
        GtscParams(alpha=-1.0, gamma=1.0, c=1.0)   # boundary allowed


class TestInverseGaussian:
    def test_q0_value(self):
        w = w_ig(1.0, 1.0, 0.0)
        assert w.eval(1.0) == pytest.approx(W_IG_AT_1, rel=1e-13)

    def test_threshold(self):
        assert ig_q0_threshold(1.0, 1.0) == pytest.approx(16.0 / 27.0)
        assert ig_q0_threshold(2.0, 1.5) == pytest.approx(16.0 / 27.0 * 2.0 * 1.5 ** 3)

    def test_negative_support_and_zero(self):
        w = w_ig(1.0, 1.0, 0.5)
        assert w.eval(-1.0) == 0.0
        assert w.eval(0.0) == 0.0

    def test_concavity_second_derivative(self):
        # W''(x) = -x^{-3/2} e^{-gamma^2 x/2}/(2 sqrt(2 pi) delta) < 0
        w = w_ig(1.3, 0.9, 0.0)
        for x in (0.4, 1.0, 3.0):
            h = 1e-4
            d2 = (w.eval(x + h) - 2.0 * w.eval(x) + w.eval(x - h)) / h ** 2
            ref = -x ** -1.5 * math.exp(-0.5 * 0.9 ** 2 * x) / (2.0 * math.sqrt(2.0 * math.pi) * 1.3)
            assert d2 == pytest.approx(ref, rel=1e-4)

    def test_continuity_across_q0(self):
        q0 = ig_q0_threshold(1.0, 1.0)
        eps = 1e-7 * q0
        w_minus = w_ig(1.0, 1.0, q0 - eps)
        w_plus = w_ig(1.0, 1.0, q0 + eps)
        w_at = w_ig(1.0, 1.0, q0)
        for x in (0.5, 1.0, 2.0):
            assert abs(w_minus.eval(x) - w_plus.eval(x)) <= 1e-6
            lo, hi = sorted((w_minus.eval(x), w_plus.eval(x)))
            assert lo - 1e-6 <= w_at.eval(x) <= hi + 1e-6

    @pytest.mark.parametrize("q", [0.0, 0.3, 16.0 / 27.0, 1.2])
    def test_matches_rational_route(self, q):
        w1 = w_ig(1.0, 1.0, q)
        w2 = w_rational(ig_params(1.0, 1.0), RationalAlpha(1, 2), q)
        for x in np.linspace(0.05, 10.0, 41):
            a, b = w1.eval(float(x)), w2.eval(float(x))
            assert abs(a - b) <= 1e-8 * max(abs(a), 1e-12)

    def test_derivative_consistency(self):
        for q in (0.0, 0.5, 1.2):
            w = w_ig(1.0, 1.0, q)
            for x in (0.3, 1.5):
                h = 1e-6
                fd = (w.eval(x + h) - w.eval(x - h)) / (2.0 * h)
                assert w.eval_deriv(x) == pytest.approx(fd, rel=1e-7)


class TestRationalRoute:
    def test_support(self):
        w = w_rational(GtscParams(alpha=0.5, gamma=1.0, c=1.0), RationalAlpha(1, 2), 0.0)
        assert w.eval(-3.0) == 0.0

    def test_stable_limit_known_result(self):
        # gamma -> 0, kappa=varphi=zeta=0, c=-1/Gamma(-alpha): W -> x^a/Gamma(1+a);
        # the tempering correction scales like gamma^alpha, so the deviation
        # must shrink ~100x when gamma drops 1e-4 -> 1e-8
        alpha = 0.5
        c = -1.0 / sps.gamma(-alpha)

        def max_dev(gamma):
            params = GtscParams(alpha=alpha, gamma=gamma, c=c)
            w = w_rational(params, RationalAlpha(1, 2), 0.0)
            devs = []
            for x in np.linspace(0.1, 5.0, 20):
                ref = x ** alpha / sps.gamma(1.0 + alpha)
                devs.append(abs(w.eval(float(x)) - ref) / ref)
            return max(devs)

        d4, d8 = max_dev(1e-4), max_dev(1e-8)
        assert d4 <= 5e-2
        assert d8 <= 1e-3
        assert d8 <= 0.05 * d4   # gamma^(1/2) rate

    def test_derivative_matches_fd(self):
        params = GtscParams(alpha=2.0 / 3.0, gamma=1.0, c=1.0, zeta=1.0)
        w = w_rational(params, RationalAlpha(2, 3), 1.0)
        for x in (0.02, 0.7, 4.0):
            h = 1e-6 * max(1.0, x)
            fd = (w.eval(x + h) - w.eval(x - h)) / (2.0 * h)
            assert w.eval_deriv(x) == pytest.approx(fd, rel=1e-6)

    def test_w0_and_small_x_alpha_negative(self):
        # -1 < alpha < 0: W(0+) = 1/(kappa + c Gamma(-alpha) gamma^alpha) and
        # W(x) = W(0+) + (c/A^2) x^{-alpha}/(-alpha) + o(x^{-alpha})
        params = GtscParams(alpha=-0.5, gamma=1.0, c=1.0, kappa=1.0)
        w = w_rational(params, RationalAlpha(-1, 2), 0.0)
        A = 1.0 + sps.gamma(0.5)
        assert w.eval(0.0) == pytest.approx(1.0 / A, rel=1e-12)
        x = 1e-9
        two_term = 1.0 / A + 2.0 * math.sqrt(x) / A ** 2
        assert w.eval(x) == pytest.approx(two_term, rel=1e-9)

    def test_capability_cap(self):
        from scalekit.errors import CapabilityError

        params = GtscParams(alpha=1.0 / 13.0, gamma=1.0, c=1.0)
        with pytest.raises(CapabilityError):
            w_rational(params, RationalAlpha(1, 13), 0.0)

    @pytest.mark.parametrize("alpha,frac", [(0.25, (1, 4)), (-0.5, (-1, 2)),
                                            (2.0 / 3.0, (2, 3))])
    def test_laplace_identity(self, alpha, frac):
        params = GtscParams(alpha=alpha, gamma=1.0, c=1.0,
                            kappa=0.5 if alpha < 0 else 0.0)
        w = w_rational(params, RationalAlpha(*frac), 0.7)
        rep = verify_laplace_identity(w, params.exponent(),
                                      [w.phi_q + 0.5, w.phi_q + 2.0])
        assert rep.max_rel_err <= 1e-6


class TestArrayEvaluation:
    @pytest.mark.parametrize("case", "ABCDEF")
    @pytest.mark.parametrize("frac,q", [((1, 3), 1.0), ((3, 4), 0.0), ((-1, 2), 1.0)])
    def test_array_matches_points(self, case, frac, q):
        from scalekit.cli import CASES
        from scalekit.polyfrac import build_fq, roots_with_multiplicity

        alpha = RationalAlpha(*frac)
        params = CASES[case].params(frac[0] / frac[1])
        w = w_rational(params, alpha, q)
        # a grid that crosses the switch between the small-x series and the
        # partial-fraction sum, plus the body of the curve, zero and x < 0
        roots, _ = roots_with_multiplicity(build_fq(params, alpha, q))
        x_switch = (0.45 / max(abs(r) for r in roots)) ** alpha.n
        xs = np.concatenate([[-1.0, 0.0], x_switch * np.geomspace(0.05, 20.0, 25),
                             np.linspace(0.5, 10.0, 12)])
        got_w, got_d = w.eval(xs), w.eval_deriv(xs)
        for x, gw, gd in zip(xs, got_w, got_d):
            ref_w = w.eval(float(x))
            assert abs(gw - ref_w) <= 1e-12 * abs(ref_w)
            if x > 0.0:
                ref_d = w.eval_deriv(float(x))
                assert abs(gd - ref_d) <= 1e-12 * abs(ref_d)
        assert got_w[0] == 0.0 and got_d[0] == 0.0
        assert w.eval(xs.reshape(3, -1)).shape == (3, 13)
        with pytest.raises(ParameterError):
            w.eval(np.array([1.0, np.nan]))
        with pytest.raises(ParameterError):
            w.eval_deriv(math.nan)


class TestClosedForms:
    def test_reduction_case(self):
        # kappa = -c*Gamma(-a)*gamma^a: W(x) = (1/kappa) * P(a, gamma x)-form
        a, g, c = 0.5, 1.2, 1.0
        kappa = -c * sps.gamma(-a) * g ** a
        params = GtscParams(alpha=a, gamma=g, c=c, kappa=kappa)
        for x in (0.3, 1.0, 4.0):
            ref = sps.gammainc(a, g * x) * sps.gamma(a) / (sps.gamma(a) * kappa) \
                * 1.0  # (1/kappa) int_0^x (g^a/Gamma(a)) y^{a-1}e^{-gy} dy
            ref = sps.gammainc(a, g * x) / kappa
            assert w0_closed(params, x) == pytest.approx(ref, rel=1e-9)

    def test_stable_limit(self):
        # deviation from the stable form scales like gamma^alpha
        a = 0.6
        c = -1.0 / sps.gamma(-a)
        params = GtscParams(alpha=a, gamma=1e-6, c=c)
        for x in (0.5, 2.0):
            assert w0_closed(params, x) == pytest.approx(x ** a / sps.gamma(1 + a),
                                                         rel=1e-3)

    def test_alpha_negative_value_at_zero(self):
        params = GtscParams(alpha=-0.4, gamma=1.0, c=1.0, kappa=0.3)
        val = w0_closed(params, 0.0)
        assert val == pytest.approx(1.0 / (0.3 + sps.gamma(0.4)), rel=1e-12)

    def test_matches_rational_route(self):
        for alpha, frac, kappa, varphi in ((0.25, (1, 4), 0.0, 0.6),
                                           (-0.5, (-1, 2), 0.4, 0.0)):
            params = GtscParams(alpha=alpha, gamma=1.0, c=1.0,
                                kappa=kappa, varphi=varphi)
            w_cl = w0_closed_scale(params)
            w_ml = w_rational(params, RationalAlpha(*frac), 0.0)
            for x in (0.1, 0.8, 3.0, 8.0):
                a, b = w_cl.eval(x), w_ml.eval(x)
                assert abs(a - b) <= 1e-7 * max(abs(a), 1e-12)

    def test_wrong_branch_errors(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, zeta=1.0)
        with pytest.raises(ParameterError):
            w0_closed(params, 1.0)


class TestGammaCase:
    def test_zero_at_origin(self):
        assert w_gamma_case(1.0, 1.0, 0.0) == 0.0

    def test_dual_route_agreement(self):
        val_a = w_gamma_case(1.0, 1.0, 1.0)
        val_b = w_gamma_case_dual(1.0, 1.0, 1.0)
        assert val_a == pytest.approx(val_b, rel=1e-7)

    def test_monotone(self):
        assert w_gamma_case(1.0, 1.0, 2.0) > w_gamma_case(1.0, 1.0, 1.0)

    def test_laplace_identity(self):
        w = w_gamma_scale(1.0, 1.0)
        rep = verify_laplace_identity(w, w.psi, [1.0])
        assert rep.max_rel_err <= 1e-5


class TestAsymptotes:
    def test_zero_with_gaussian(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, zeta=1.0)
        rep = asymptote_zero(params)
        assert rep.w0 == 0.0
        assert rep.wprime0 == pytest.approx(1.0)   # = 2/sigma^2 with sigma = sqrt 2
        w = w_rational(params, RationalAlpha(1, 2), 0.0)
        # W'(h) - W'(0+) expands in powers h^{k/n}; extrapolate with the
        # correct exponent ladder
        extrap = richardson_limit(w.eval_deriv, n=2, h0=1e-3, levels=4)
        assert extrap == pytest.approx(1.0, abs=1e-4)

    def test_zero_leading_coefficient_alpha_half(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0)
        rep = asymptote_zero(params)
        coef = -1.0 / (sps.gamma(-0.5) * sps.gamma(1.5))
        assert f"{coef:.12g}" in rep.leading_term
        w = w_rational(params, RationalAlpha(1, 2), 0.0)
        x = 1e-8
        assert w.eval(x) == pytest.approx(coef * x ** 0.5, rel=1e-4)

    def test_zero_alpha_negative_finite(self):
        params = GtscParams(alpha=-0.5, gamma=1.0, c=1.0, kappa=2.0)
        rep = asymptote_zero(params)
        assert rep.w0 == pytest.approx(1.0 / (2.0 + sps.gamma(0.5)))
        assert math.isinf(rep.wprime0)

    def test_infinity_constant_case(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=1.0)
        rep = asymptote_infinity(params, 0.0)
        assert rep.regime == "constant"
        assert rep.constant == pytest.approx(1.0)
        w = w_rational(params, RationalAlpha(1, 2), 0.0)
        assert w.eval(50.0) == pytest.approx(1.0, abs=1e-3)

    def test_infinity_linear_case(self):
        # kappa=varphi=zeta=0, c=gamma=1, alpha=1/2: slope = 1/Gamma(1/2)
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0)
        rep = asymptote_infinity(params, 0.0)
        assert rep.regime == "linear"
        assert rep.constant == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
        w = w_rational(params, RationalAlpha(1, 2), 0.0)
        slope = w.eval(50.0) - w.eval(49.0)
        assert slope == pytest.approx(rep.constant, rel=1e-2)

    def test_infinity_exponential_case(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, varphi=1.0)
        rep = asymptote_infinity(params, 0.0)
        assert rep.regime == "exponential"
        assert rep.rate == pytest.approx(1.0)
        denom = float(np.real(params.ladder_exponent(1.0)))
        assert rep.constant == pytest.approx(1.0 / denom, rel=1e-12)

    def test_infinity_q_positive(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0)
        rep = asymptote_infinity(params, 1.0)
        w = w_rational(params, RationalAlpha(1, 2), 1.0)
        assert rep.regime == "exponential"
        assert rep.rate == pytest.approx(w.phi_q, rel=1e-10)
        x = 40.0
        assert w.eval(x) == pytest.approx(rep.constant * math.exp(rep.rate * x), rel=1e-3)


class TestShape:
    def test_q0_concave_cases(self):
        # cases A (oscillating) and B (drift up): W concave for q = 0
        for kappa in (0.0, 1.0):
            params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=kappa)
            w = w_rational(params, RationalAlpha(1, 2), 0.0)
            xs = np.linspace(0.05, 10.0, 120)
            vals = np.array([w.eval(float(x)) for x in xs])
            second = np.diff(vals, 2)
            assert np.all(second <= 1e-8)

    def test_q0_single_transition_case_c(self):
        # drift to -inf: W'(0+) = +inf forces initial concavity, the e^{phi x}
        # tail is convex; exactly one convexity change
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, varphi=1.0)
        w = w_rational(params, RationalAlpha(1, 2), 0.0)
        xs = np.linspace(0.02, 10.0, 400)
        second = np.diff([w.eval(float(x)) for x in xs], 2)
        signs = np.sign(np.where(np.abs(second) < 1e-12, 0.0, second))
        nz = signs[signs != 0]
        flips = np.flatnonzero(np.diff(nz) != 0)
        assert len(flips) == 1
        assert nz[0] < 0 and nz[-1] > 0   # concave then convex

    def test_q1_concave_convex(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0)
        w = w_rational(params, RationalAlpha(1, 2), 1.0)
        xs = np.linspace(0.05, 10.0, 240)
        second = np.diff([w.eval(float(x)) for x in xs], 2)
        signs = np.sign(np.where(np.abs(second) < 1e-12, 0.0, second))
        nz = signs[signs != 0]
        flips = np.flatnonzero(np.diff(nz) != 0)
        assert len(flips) == 1
        assert nz[0] < 0 and nz[-1] > 0   # concave then convex
