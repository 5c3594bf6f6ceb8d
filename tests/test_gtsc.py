"""GTSC scale functions: route agreement, closed forms, asymptotics, shape."""

import math

import numpy as np
import pytest
from scipy import special as sps

from scalekit.bromwich import verify_laplace_identity
from scalekit.errors import ParameterError
from scalekit.gtsc import (GtscParams, asymptote_infinity, asymptote_zero,
                           ig_params, ig_q0_threshold, scale_function, w0_closed,
                           w_gamma_case, w_gamma_case_dual, w_ig, w_rational)
from scalekit.polyfrac import RationalAlpha
from scalekit.special import mittag_leffler_deriv

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

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.5, 1.0 / math.sqrt(2.0)])
    def test_exponent_accepts_complex_arrays(self, alpha):
        params = GtscParams(alpha=alpha, gamma=1.0, c=1.0, zeta=0.5, varphi=0.5)
        psi = params.exponent()
        s = np.array([2.0 + 0.0j, 0.3 + 5.0j, -4.0 - 1e-3j, -30.0 + 200.0j, 1e4j])
        got = psi.eval(s)
        assert got.shape == s.shape
        ref = np.array([complex(psi.eval(complex(z))) for z in s])
        assert np.allclose(got, ref, rtol=1e-14, atol=0.0)
        assert complex(psi.eval(2.0)) == pytest.approx(ref[0], rel=1e-14)


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

    @pytest.mark.parametrize("delta,gamma", [(1.0, 1.0), (0.7, 2.0), (2.0, 0.5)])
    def test_double_root_deriv(self, delta, gamma):
        # q = q0: W = (t1 + t2 - t3)/(36 delta gamma), differentiated here by mpmath
        import mpmath as mp

        def exact(x):
            d, g = mp.mpf(delta), mp.mpf(gamma)
            sx, g2x = mp.sqrt(x), g ** 2 * x
            t1 = 6 * g * mp.sqrt(2 / mp.pi) * sx * mp.exp(-g2x / 2)
            t2 = 15 * mp.exp(8 * g2x / 9) * mp.erfc(-5 * g * sx / (3 * mp.sqrt(2)))
            t3 = mp.exp(-4 * g2x / 9) * (15 + 2 * g2x) * mp.erfc(g * sx / (3 * mp.sqrt(2)))
            return (t1 + t2 - t3) / (36 * d * g)

        w = w_ig(delta, gamma, ig_q0_threshold(delta, gamma))
        with mp.workdps(40):
            for x in (0.01, 0.3, 1.0, 3.0, 8.0):
                assert w.eval(x) == pytest.approx(float(exact(x)), rel=1e-13)
                assert w.eval_deriv(x) == pytest.approx(float(mp.diff(exact, x)), rel=1e-12)
        assert w.eval_deriv(0.0) == math.inf

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
        rep = verify_laplace_identity(w, [w.phi_q + 0.5, w.phi_q + 2.0])
        assert rep.max_rel_err <= 1e-6


class TestDerivativeRule:
    """W' of the rational route: every partial-fraction term differentiates into the same
    Prabhakar function with its second index lowered by one, and W'(0+) is read off the
    expansion of z^{m_-}/f_q at infinity."""

    def test_wprime_where_the_product_rule_cancelled(self):
        # the 60-digit expansion of z^{m_-}/f_q at infinity, summed termwise in mpmath
        # (90 and 130 digits give the same double); a product rule over one more derivative
        # order was 7.9e-13 off here
        params = GtscParams(alpha=1 / 3, gamma=1.0, c=1.0, kappa=1.0)
        got = w_rational(params, None, 0.0).eval_deriv(9.469216332197224)
        assert got == pytest.approx(0.0018719163847134752, rel=2e-13, abs=0.0)

    @pytest.mark.parametrize("case", "ABCDEF")
    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_wprime0_against_asymptote(self, case, q):
        from scalekit.cli import CASES

        for frac in ((1, 4), (1, 3), (1, 2), (2, 3), (3, 4)):
            for m in (frac[0], -frac[0]):
                params = CASES[case].params(m / frac[1])
                got = w_rational(params, RationalAlpha(m, frac[1]), q).eval_deriv(0.0)
                want = asymptote_zero(params, q).wprime0
                assert got == want or got == pytest.approx(want, rel=1e-12), (m, frac[1])

    @pytest.mark.parametrize("case,m,n,q,orders", [("B", 1, 3, 1.0, {0}),
                                                   ("D", 3, 4, 0.0, {0, 1})])
    def test_derivative_orders_below_multiplicity(self, monkeypatch, case, m, n, q, orders):
        # B at 1/3 has simple roots, D at 3/4 one double root: W and W' ask for orders
        # j < mu only, W' at the second index 1/n lowered by one
        from scalekit import gtsc
        from scalekit.cli import CASES

        asked = []

        def counted(a, b, j, z):
            asked.append((a, b, j))
            return mittag_leffler_deriv(a, b, j, z)

        monkeypatch.setattr(gtsc, "mittag_leffler_deriv", counted)
        scale = w_rational(CASES[case].params(m / n), RationalAlpha(m, n), q)
        scale.eval_deriv(np.linspace(0.5, 8.0, 7))
        assert {j for _, _, j in asked} == orders
        assert {(a, b) for a, b, _ in asked} == {(1 / n, 1 / n), (1 / n, 1 / n - 1.0)}

    def test_series_past_its_budget_refused(self, monkeypatch):
        # an expansion cut before the series meets its stop rule raises, not a truncated sum
        from scalekit import gtsc
        from scalekit.errors import NumericalError
        from scalekit.polyfrac import build_fq, roots_with_multiplicity

        params = GtscParams(alpha=1 / 3, gamma=1.0, c=1.0, kappa=1.0)
        roots, _ = roots_with_multiplicity(build_fq(params, RationalAlpha(1, 3), 1.0))
        x_switch = (0.45 / max(abs(r) for r in roots)) ** 3
        full = w_rational(params, None, 1.0)
        expansion = gtsc._inverse_expansion
        monkeypatch.setattr(gtsc, "_inverse_expansion",
                            lambda fq, m_minus, nterms: expansion(fq, m_minus, 12))
        cut = w_rational(params, None, 1.0)
        assert cut.eval(1e-6 * x_switch) == full.eval(1e-6 * x_switch)
        for method in (cut.eval, cut.eval_deriv):
            with pytest.raises(NumericalError, match="did not converge"):
                method(x_switch)


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
            assert w0_closed(params).eval(x) == pytest.approx(ref, rel=1e-9)

    def test_stable_limit(self):
        # deviation from the stable form scales like gamma^alpha
        a = 0.6
        c = -1.0 / sps.gamma(-a)
        params = GtscParams(alpha=a, gamma=1e-6, c=c)
        for x in (0.5, 2.0):
            assert w0_closed(params).eval(x) == pytest.approx(x ** a / sps.gamma(1 + a),
                                                              rel=1e-3)

    def test_alpha_negative_value_at_zero(self):
        params = GtscParams(alpha=-0.4, gamma=1.0, c=1.0, kappa=0.3)
        val = w0_closed(params).eval(0.0)
        assert val == pytest.approx(1.0 / (0.3 + sps.gamma(0.4)), rel=1e-12)

    def test_matches_rational_route(self):
        for alpha, frac, kappa, varphi in ((0.25, (1, 4), 0.0, 0.6),
                                           (-0.5, (-1, 2), 0.4, 0.0)):
            params = GtscParams(alpha=alpha, gamma=1.0, c=1.0,
                                kappa=kappa, varphi=varphi)
            w_cl = w0_closed(params)
            w_ml = w_rational(params, RationalAlpha(*frac), 0.0)
            for x in (0.1, 0.8, 3.0, 8.0):
                a, b = w_cl.eval(x), w_ml.eval(x)
                assert abs(a - b) <= 1e-7 * max(abs(a), 1e-12)

    def test_wrong_branch_errors(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, zeta=1.0)
        with pytest.raises(ParameterError):
            w0_closed(params).eval(1.0)


def _quad_closed(params, x):
    """Oracle: the closed form by adaptive quadrature in y over the scalar Mittag-Leffler function."""
    from scipy.integrate import quad

    from scalekit.errors import NumericalError
    from scalekit.special import mittag_leffler

    a, g, c, kappa, varphi = params.alpha, params.gamma, params.c, params.kappa, params.varphi
    cg = c * sps.gamma(-a)
    if a > 0:
        base, pref, abar, lam = 0.0, -math.exp(varphi * x) / cg, a, (kappa + cg * g ** a) / cg
    else:
        A = kappa + cg * g ** a
        base, pref, abar, lam = math.exp(varphi * x) / A, cg * math.exp(varphi * x) / A ** 2, -a, cg / A

    def integrand(y):
        e = mittag_leffler(abar, abar, lam * y ** abar).real
        return math.exp(-(g + varphi) * y) * y ** (abar - 1.0) * e

    ystar = (5.0 / abs(lam)) ** (1.0 / abar)
    val, est = quad(integrand, 0.0, x, points=[ystar] if ystar < x else None, limit=300,
                    epsabs=1e-12, epsrel=1e-11)
    if abs(est) > 1e-9 * (1.0 + abs(val)):
        raise NumericalError(f"quadrature error estimate {est:.2g}")
    return base + pref * val


class TestClosedFormPanels:
    """The fixed Gauss-Kronrod panels against adaptive quadrature and Bromwich inversion."""

    XS = (0.01, 0.25, 2.6, 20.0)

    @pytest.mark.parametrize("extra", [{}, {"kappa": 1.0}, {"varphi": 1.0}],
                             ids=["plain", "kappa", "varphi"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("abar", [0.1, 0.25, 1.0 / math.pi, 0.5, 1.0 / math.sqrt(2.0), 0.9])
    def test_matches_quad_and_bromwich(self, abar, sign, extra):
        import warnings

        from scalekit.bromwich import invert
        from scalekit.errors import NumericalError

        params = GtscParams(alpha=sign * abar, gamma=0.8, c=1.1, **extra)
        scale = w0_closed(params)
        got = scale.eval(np.array(self.XS))
        for x, g in zip(self.XS, got):
            one = scale.eval(x)
            assert type(one) is float and one == pytest.approx(g, rel=1e-13)
            ref = invert(params.exponent(), 0.0, x)[0]
            assert abs(g - ref) <= 1e-9 * abs(ref), ("bromwich", x)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if abar == 0.1 and extra:
                    # adaptive quadrature stagnates here, or drifts ~1e-9 where it
                    # does not raise, so Bromwich inversion alone is the reference
                    if x == 0.25:
                        with pytest.raises(NumericalError):
                            _quad_closed(params, x)
                    continue
                oracle = _quad_closed(params, x)
            assert abs(g - oracle) <= 1e-9 * abs(oracle), ("quad", x)

    def test_gauss_kronrod_pair_exact(self):
        from scalekit.special import _G_W, _GK_W, _GK_X

        for d in range(32):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert _GK_W @ _GK_X ** d == pytest.approx(exact, abs=1e-15), d
            if d < 20:
                assert _G_W @ _GK_X[1::2] ** d == pytest.approx(exact, abs=1e-15), d

    def test_domain_checked_for_every_x(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, zeta=1.0)
        for x in (-1.0, np.array([-2.0, -1.0])):
            with pytest.raises(ParameterError):
                w0_closed(params).eval(x)

    @pytest.mark.parametrize("alpha,extra", [(1 / 3, {}), (-1 / 3, {}), (0.7, {"varphi": 1.0}),
                                             (-0.25, {"kappa": 1.0}), (0.1, {"varphi": 1.0})])
    def test_derivative_matches_richardson(self, alpha, extra):
        scale = w0_closed(GtscParams(alpha=alpha, gamma=0.8, c=1.1, **extra))
        for x in (0.05, 0.7, 2.6, 9.0):
            h = 1e-3 * x
            d1 = (scale.eval(x + h) - scale.eval(x - h)) / (2.0 * h)
            d2 = (scale.eval(x + h / 2) - scale.eval(x - h / 2)) / h
            assert scale.eval_deriv(x) == pytest.approx((4.0 * d2 - d1) / 3.0, rel=1e-7)

    @pytest.mark.parametrize("alpha", [1 / 3, -1 / 3, 0.9])
    def test_derivative_infinite_at_zero(self, alpha):
        params = GtscParams(alpha=alpha, gamma=1.0, c=1.0)
        scale = w0_closed(params)
        assert scale.eval_deriv(0.0) == asymptote_zero(params).wprime0 == math.inf
        assert scale.eval(0.0) == asymptote_zero(params).w0

    @pytest.mark.parametrize("gamma,c,kappa,varphi", [(1.0, 1.0, 0.0, 0.0), (0.5, 2.0, 1.0, 0.0),
                                                      (2.0, 0.5, 0.0, 1.0), (1.0, 1.0, 1.0, 0.0)])
    def test_small_alpha_envelope(self, gamma, c, kappa, varphi):
        from scalekit.errors import NumericalError

        # the envelope the README states: on these sets the closed form meets its 1e-9 error
        # bound for |alpha| >= 0.0631; at |alpha| = 0.05 it raises and returns nothing
        xs = np.geomspace(1e-4, 50.0, 60)
        for alpha in (-0.065, 0.065):
            params = GtscParams(alpha=alpha, gamma=gamma, c=c, kappa=kappa, varphi=varphi)
            assert np.isfinite(w0_closed(params).eval(xs)).all()
        for alpha in (-0.05, 0.05):
            params = GtscParams(alpha=alpha, gamma=gamma, c=c, kappa=kappa, varphi=varphi)
            with pytest.raises(NumericalError, match="closed-form quadrature error estimate"):
                w0_closed(params).eval(xs)


class TestGammaCase:
    def test_zero_at_origin(self):
        assert w_gamma_case(1.0, 1.0).eval(0.0) == 0.0

    def test_dual_route_agreement(self):
        val_a = w_gamma_case(1.0, 1.0).eval(1.0)
        val_b = w_gamma_case_dual(1.0, 1.0, 1.0)
        assert val_a == pytest.approx(val_b, rel=1e-7)

    def test_monotone(self):
        assert w_gamma_case(1.0, 1.0).eval(2.0) > w_gamma_case(1.0, 1.0).eval(1.0)

    @pytest.mark.parametrize("c,gamma", [(1.0, 1.0), (1.3, 0.7), (0.6, 2.0)])
    def test_dual_route_agreement_grid(self, c, gamma):
        xs = np.geomspace(1e-8, 600.0, 12) / gamma
        scale = w_gamma_case(c, gamma)
        got = scale.eval(xs)
        for x, g in zip(xs, got):
            one = scale.eval(float(x))
            assert type(one) is float and one == g
            assert g == pytest.approx(w_gamma_case_dual(c, gamma, float(x)), rel=1e-9)

    def test_saturation_beyond_range(self):
        from scalekit.errors import SaturationError

        # the envelope the README states: the ladder covers gamma*x <= e^6.45
        scale = w_gamma_case(1.0, 1.0)
        assert math.isfinite(scale.eval(math.exp(6.44)))
        with pytest.raises(SaturationError):
            scale.eval(math.exp(6.46))
        with pytest.raises(SaturationError):
            w_gamma_case(1.0, 0.5).eval(1400.0)
        with pytest.raises(SaturationError):
            w_gamma_case(1.0, 0.5).eval_deriv(np.array([1.0, 1400.0]))

    def test_derivative_is_scale_density(self):
        # W'(x) = h(t)/(c x) with t = -log(gamma x), against a Richardson difference of W
        scale = w_gamma_case(1.3, 0.7)
        assert scale.eval_deriv(0.0) == math.inf
        for x in (1e-4, 0.3, 4.0, 200.0):
            h = 1e-3 * x
            d1 = (scale.eval(x + h) - scale.eval(x - h)) / (2.0 * h)
            d2 = (scale.eval(x + h / 2) - scale.eval(x - h / 2)) / h
            assert scale.eval_deriv(x) == pytest.approx((4.0 * d2 - d1) / 3.0, rel=1e-7)

    def test_laplace_identity(self):
        w = w_gamma_case(1.0, 1.0)
        rep = verify_laplace_identity(w, [1.0])
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


class TestRouteSelection:
    @pytest.mark.parametrize("alpha,extra,q,route", [
        (0.5, {}, 0.0, "ig"),
        (0.5, {}, 1.0, "ig"),
        (0.5, {"kappa": 1.0}, 0.0, "rational-ML"),
        (0.0, {}, 0.0, "gamma-case"),
        (0.0, {}, 1.0, "bromwich"),
        (0.0, {"kappa": 1.0}, 0.0, "bromwich"),
        (0.0, {"zeta": 1.0}, 0.0, "bromwich"),
        (0.0, {"varphi": 1.0}, 0.0, "bromwich"),
        (1.0 / 3.0, {}, 1.0, "rational-ML"),
        (-2.0 / 3.0, {"varphi": 1.0}, 0.0, "rational-ML"),
        (5.0 / 12.0, {}, 0.0, "rational-ML"),
        (1.0 / 13.0, {}, 0.0, "bromwich"),
        (1.0 / math.sqrt(2.0), {}, 0.0, "bromwich"),
        (-1.0, {}, 0.0, "bromwich"),
    ])
    def test_auto_route_table(self, alpha, extra, q, route):
        params = GtscParams(alpha=alpha, gamma=1.0, c=1.0, **extra)
        assert scale_function(params, q).route == route

    @pytest.mark.parametrize("alpha,q,route", [
        (0.0, 0.0, "rational"), (-1.0, 0.0, "rational"), (0.0, 1.0, "closed"),
        (1.0 / 3.0, 1.0, "closed"), (1.0 / 3.0, 0.0, "ig"), (0.5, 0.0, "talbot"),
    ])
    def test_explicit_route_keeps_its_parameter_error(self, alpha, q, route):
        with pytest.raises(ParameterError):
            scale_function(GtscParams(alpha=alpha, gamma=1.0, c=1.0), q, route)

    def test_alpha_minus_one_is_one_plus_x(self):
        # psi(theta) = theta^2/(1 + theta) at c = gamma = 1, so W(x) = 1 + x
        scale = scale_function(GtscParams(alpha=-1.0, gamma=1.0, c=1.0))
        xs = np.array([0.05, 0.5, 1.0, 3.0, 10.0])
        assert np.allclose(scale.eval(xs), 1.0 + xs, rtol=1e-8, atol=0.0)



def _one_path_scales():
    from scalekit.catalog import build_catalog_entry, catalog_families

    q0 = ig_q0_threshold(1.0, 1.0)
    yield "rational", w_rational(GtscParams(alpha=1 / 3, gamma=1.0, c=1.0, kappa=1.0), None, 1.0)
    yield "rational-negative", w_rational(GtscParams(alpha=-0.5, gamma=1.0, c=1.0), None, 0.0)
    # a double root, and W'(0+) = 1/zeta finite
    yield "rational-double-root", w_rational(GtscParams(alpha=0.75, gamma=1.0, c=1.0, zeta=1.0),
                                             None, 0.0)
    for q in (0.0, q0, 1.0):
        yield f"ig-q{q:.3g}", w_ig(1.0, 1.0, q)
    yield "closed", w0_closed(GtscParams(alpha=-1 / 3, gamma=1.0, c=1.0))
    yield "gamma", w_gamma_case(1.0, 1.0)
    yield "bromwich", scale_function(GtscParams(alpha=1 / math.sqrt(2.0), gamma=1.0, c=1.0),
                                     1.0, "bromwich")
    for family in catalog_families():
        yield family, build_catalog_entry(family).scale


class TestOnePath:
    """Every route and catalog family evaluates numbers and arrays alike."""

    @pytest.mark.parametrize("name,scale", list(_one_path_scales()),
                             ids=[name for name, _ in _one_path_scales()])
    def test_scalar_matches_array(self, name, scale):
        xs = np.array([-1.0, 0.0, 0.3, 1.7])
        for method in (scale.eval, scale.eval_deriv):
            got = method(xs)
            assert got.shape == xs.shape
            for x, g in zip(xs, got):
                one = method(float(x))
                assert type(one) is float
                assert one == g or abs(one - g) <= 1e-12 * abs(g), (name, x)
            assert got[0] == 0.0
            assert np.array_equal(method(xs.reshape(2, 2)), got.reshape(2, 2))
            assert method(np.array([])).shape == (0,)

    @pytest.mark.parametrize("name,scale", list(_one_path_scales()),
                             ids=[name for name, _ in _one_path_scales()])
    def test_array_is_one_point_calls_bit_for_bit(self, name, scale):
        # no x of a block depends on the others, in either order, across chunk boundaries
        xs = np.r_[0.0, np.geomspace(1e-3, 20.0, 100)]
        for method in (scale.eval, scale.eval_deriv):
            got = method(xs)
            assert np.array_equal(got, [method(float(x)) for x in xs]), name
            assert np.array_equal(method(xs[::-1]), got[::-1]), name

    def test_closed_form_points_independent(self):
        # the panels of every x share one Mittag-Leffler call, yet no x depends on the others
        xs = np.array(TestClosedFormPanels.XS)
        for alpha in (0.1, -0.1, 1.0 / math.pi, -0.9):
            scale = w0_closed(GtscParams(alpha=alpha, gamma=0.8, c=1.1))
            assert np.array_equal(scale.eval(xs), [scale.eval(x) for x in xs])

    def test_rational_working_set_bounded(self):
        import tracemalloc

        w = w_rational(GtscParams(alpha=0.5, gamma=1.0, c=1.0), RationalAlpha(1, 2), 0.0)
        xs = np.linspace(0.0, 10.0, 5000)
        tracemalloc.start()
        try:
            w.eval(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_identity_asks_each_x_once(self):
        from scalekit.catalog import w_brownian
        from scalekit.scale import ScaleFunction

        ref = w_brownian(1.0, 0.5, 1.0)
        asked = []

        def w(x):
            asked.append(np.array(x))
            return ref.eval(x)

        scale = ScaleFunction(ref.q, ref.phi_q, "recording", w, ref.eval_deriv, psi=ref.psi)
        rep = verify_laplace_identity(scale, [ref.phi_q + off for off in (0.5, 1.0, 2.0, 5.0)])
        xs = np.concatenate(asked)
        assert rep.passed
        assert np.unique(xs).size == xs.size


class TestBromwichAtZero:
    @pytest.mark.parametrize("alpha", [-0.5, -1.0])
    def test_w0_from_asymptote(self, alpha):
        params = GtscParams(alpha=alpha, gamma=1.0, c=1.0)
        scale = scale_function(params, route="bromwich")
        assert scale.eval(0.0) == asymptote_zero(params).w0 > 0.0

    def test_w0_matches_rational_route(self):
        params = GtscParams(alpha=-0.5, gamma=1.0, c=1.0)
        got = scale_function(params, route="bromwich").eval(0.0)
        assert got == pytest.approx(w_rational(params, None, 0.0).eval(0.0), rel=1e-12)
        assert got == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("kappa,gamma,c,slope", [(0.5, 2.0, 1.5, 0.96), (0.0, 1.0, 1.0, 1.0)])
    def test_alpha_minus_one_slope_at_zero(self, kappa, gamma, c, slope):
        # W = 1/A + (c/A^2) x + ... with A = kappa + c/gamma
        params = GtscParams(alpha=-1.0, gamma=gamma, c=c, kappa=kappa)
        rep = asymptote_zero(params)
        assert rep.wprime0 == pytest.approx(slope, rel=1e-12)
        scale = scale_function(params, route="bromwich")
        assert scale.eval_deriv(0.0) == pytest.approx(slope, rel=1e-4)


def _every_route():
    """(label, builder) of every scale_function route and every catalog family."""
    from scalekit.catalog import build_catalog_entry, catalog_families

    q0 = ig_q0_threshold(1.0, 1.0)
    ig = ig_params(1.0, 1.0)
    routes = [
        ("rational", lambda: scale_function(GtscParams(1 / 3, 1.0, 1.0, kappa=1.0), 1.0)),
        ("closed", lambda: scale_function(GtscParams(-1 / 3, 1.0, 1.0, varphi=1.0), 0.0, "closed")),
        ("gamma-case", lambda: scale_function(GtscParams(0.0, 1.0, 1.0), 0.0, "closed")),
        ("ig-q=0", lambda: scale_function(ig, 0.0, "ig")),
        ("ig-q<q0", lambda: scale_function(ig, 0.5 * q0, "ig")),
        ("ig-q=q0", lambda: scale_function(ig, q0, "ig")),
        ("ig-q>q0", lambda: scale_function(ig, 2.0 * q0, "ig")),
        ("bromwich", lambda: scale_function(GtscParams(1 / math.sqrt(2.0), 1.0, 1.0), 1.0)),
    ]
    return routes + [(f"catalog:{family}", lambda family=family: build_catalog_entry(family).scale)
                     for family in catalog_families()]


@pytest.mark.parametrize("label,build", _every_route(), ids=[r[0] for r in _every_route()])
def test_every_route_supplies_its_deriv(label, build):
    # x avoids the kinks of fixed_jumps at multiples of its jump size 1
    scale = build()
    for x in (0.37, 1.7, 4.3):
        h = 1e-3 * x
        d1 = (scale.eval(x + h) - scale.eval(x - h)) / (2.0 * h)
        d2 = (scale.eval(x + h / 2) - scale.eval(x - h / 2)) / h
        want = (4.0 * d2 - d1) / 3.0
        if want > 1e-6 * scale.eval(x):
            assert scale.eval_deriv(x) == pytest.approx(want, rel=1e-7)
