"""Numerical inversion: reference pairs, invariants, and failure modes."""

import math

import numpy as np
import pytest

from scalekit.bromwich import (_invert_line, invert, invert_line, laplace_transform_numeric,
                               verify_laplace_identity)
from scalekit.catalog import build_catalog_entry, w_brownian, w_stable
from scalekit.cli import CASES
from scalekit.errors import InversionError, ParameterError
from scalekit.gtsc import (GtscParams, asymptote_zero, ig_params, scale_function, w_ig,
                           w_rational)
from scalekit.levy import LaplaceExponent, big_phi
from scalekit.polyfrac import RationalAlpha

SINH_1 = 1.1752011936438014569
W_IG_AT_1 = 1.424660216656229247


def quadratic_psi():
    return LaplaceExponent(eval=lambda th: th * th, drift_at_zero=0.0)


class TestInvert:
    def test_sinh_line(self):
        v, e = invert_line(quadratic_psi(), 1.0, 1.0)
        assert v == pytest.approx(SINH_1, rel=1e-9)
        assert e < 1e-7

    def test_sinh_talbot(self):
        # fixed Talbot was retired; the hyperbola (default) takes its place
        v, e = invert(quadratic_psi(), 1.0, 1.0)
        assert v == pytest.approx(SINH_1, rel=1e-9)

    def test_ig_reference(self):
        psi = ig_params(1.0, 1.0).exponent()
        v, _ = invert_line(psi, 0.0, 1.0)
        assert v == pytest.approx(W_IG_AT_1, rel=1e-6)

    def test_contour_invariance(self):
        psi = ig_params(1.0, 1.0).exponent()
        phi_q = big_phi(psi, 0.5)
        v1, e1 = _invert_line(psi, 0.5, 2.0, 1.2, phi_q)
        v2, e2 = _invert_line(psi, 0.5, 2.0, 2.2, phi_q)
        assert abs(v1 - v2) <= 5.0 * (e1 + e2) + 1e-9 * abs(v1)

    def test_principal_value_case_inverts(self):
        # alpha = -1/2 ladder: the rational route cross-checks the PV inversion
        params = GtscParams(alpha=-0.5, gamma=1.0, c=1.0, kappa=1.0)
        w = w_rational(params, RationalAlpha(-1, 2), 0.0)
        v, _ = invert_line(params.exponent(), 0.0, 1.5)
        assert v == pytest.approx(w.eval(1.5), rel=1e-6)

    def test_irrational_alpha_validated_by_identity(self):
        # no closed form exists; the inverted W must still satisfy the
        # defining transform identity.  Below x_lo the known power behavior
        # W ~ C x^alpha extends the inverted values (the contour cannot
        # deliver relative accuracy for x -> 0, and the region contributes
        # O(x_lo^{1+alpha}) to the transform).
        alpha = 1.0 / math.sqrt(2.0)
        params = GtscParams(alpha=alpha, gamma=1.0, c=1.0)
        psi = params.exponent()
        phi0 = big_phi(psi, 0.0)
        x_lo = 1e-4
        c_pow = invert(psi, 0.0, x_lo)[0] / x_lo ** alpha

        def w(x):
            if x <= 0:
                return 0.0
            if x < x_lo:
                return c_pow * x ** alpha
            return invert(psi, 0.0, x)[0]

        theta = phi0 + 1.0
        got, = laplace_transform_numeric(np.vectorize(w, otypes=[float]), [theta], phi0)
        assert got == pytest.approx(1.0 / (float(np.real(psi.eval(theta)))), rel=1e-6)

    def test_preconditions(self):
        for contour in (invert, invert_line):
            with pytest.raises(ParameterError):
                contour(quadratic_psi(), 1.0, 0.0)
            with pytest.raises(ParameterError):
                contour(quadratic_psi(), -1.0, 1.0)


class TestTalbot:
    """The former fixed-Talbot tests, re-pointed to the hyperbolic contour."""

    def test_node_doubling_convergence(self):
        # for zeta > 0 the midpoint-rule error on the hyperbola collapses fast in N
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, zeta=1.0)
        psi = params.exponent()
        w = w_rational(params, RationalAlpha(1, 2), 0.0)
        v, e = invert(psi, 0.0, 1.0)
        assert v == pytest.approx(w.eval(1.0), rel=1e-8)

        def hyperbola_at(n, x=1.0):
            sigma = big_phi(psi, 0.0) + 1.0 / x
            theta = -math.pi + (np.arange(n) + 0.5) * (2.0 * math.pi / n)
            arg = 1.1721 - 0.3443j * theta
            z = 2.246 * n * (1.0 - np.sin(arg))
            dz = 0.3443j * 2.246 * n * np.cos(arg)
            g = np.array([1.0 / complex(psi.eval(sigma + zk / x)) for zk in z])
            total = np.sum(np.exp(z) * g * dz) / (1j * n * x)
            return float(np.real(total)) * math.exp(sigma * x)

        ref = w.eval(1.0)
        errs = [abs(hyperbola_at(n) - ref) for n in (8, 16, 32)]
        floor = 1e-13 * (1.0 + abs(ref))
        assert errs[1] <= max(errs[0] / 4.0, floor)
        assert errs[2] <= max(errs[1] / 4.0, floor)

    def test_envelope_refusal(self):
        # a zero pair of psi - q right of the hyperbola would be missed by its
        # sum; the contour must refuse rather than silently degrade, while
        # the shifted line still sees every residue
        def psi_eval(s):
            return s * ((s + 1.0) ** 2 + 1600.0) / 1601.0

        def psi_deriv(s):
            return (((s + 1.0) ** 2 + 1600.0) + 2.0 * s * (s + 1.0)) / 1601.0

        psi = LaplaceExponent(eval=psi_eval, drift_at_zero=1.0)
        x = 1.0
        with pytest.raises(InversionError):
            invert(psi, 0.0, x)
        s1 = -1.0 + 40.0j
        exact = 1.0 + 2.0 * (np.exp(s1 * x) / psi_deriv(s1)).real
        assert invert_line(psi, 0.0, x)[0] == pytest.approx(exact, rel=1e-7)


class TestRealness:
    def test_imaginary_residue_negligible(self):
        # structural: the line integrand combines cos/sin parts of a real
        # transform, so the output is real by construction; check the
        # hyperbola too via a complex-pole case (q > q0)
        psi = ig_params(1.0, 1.0).exponent()
        q = 1.2
        w = w_ig(1.0, 1.0, q)
        v, _ = invert_line(psi, q, 1.0)
        assert v == pytest.approx(w.eval(1.0), rel=1e-7)
        v2, _ = invert(psi, q, 1.0)
        assert v2 == pytest.approx(w.eval(1.0), rel=1e-6)


HYP_ALPHAS = (1 / 4, 1 / 3, 1 / 2, 2 / 3, 3 / 4, -1 / 3, -2 / 3, 1 / math.sqrt(2.0))
HYP_XS = (0.05, 0.5, 2.0, 10.0)


class TestHyperbola:
    def test_agrees_with_shifted_line(self):
        configs = [(case.params(a), q) for case in CASES.values()
                   for a in HYP_ALPHAS for q in (0.0, 1.0)]
        configs += [(CASES["A"].params(0.0), q) for q in (0.0, 1.0)]
        worst = 0.0
        for params, q in configs:
            psi = params.exponent()
            for x in HYP_XS:
                v, _ = invert(psi, q, x)
                ref, _ = invert_line(psi, q, x)
                worst = max(worst, abs(v - ref) / abs(ref))
        assert worst <= 1e-9

    def test_ig_and_principal_value_references(self):
        # the references of test_ig_reference and test_principal_value_case_inverts,
        # which check the shifted line, applied to the hyperbola
        psi = ig_params(1.0, 1.0).exponent()
        assert invert(psi, 0.0, 1.0)[0] == pytest.approx(W_IG_AT_1, rel=1e-6)
        params = GtscParams(alpha=-0.5, gamma=1.0, c=1.0, kappa=1.0)
        w = w_rational(params, RationalAlpha(-1, 2), 0.0)
        assert invert(params.exponent(), 0.0, 1.5)[0] == pytest.approx(w.eval(1.5), rel=1e-6)

    @pytest.mark.parametrize("scale", [
        w_brownian(1.0, 0.5, 0.0), w_brownian(1.0, 0.5, 1.0), w_stable(1.5, 0.0),
        w_stable(1.5, 1.0), build_catalog_entry("stable_drift").scale,
        build_catalog_entry("cramer_lundberg").scale,
        build_catalog_entry("abate_whitt").scale,
    ], ids=["brownian", "brownian_q1", "stable", "stable_q1", "stable_drift",
            "cramer_lundberg", "abate_whitt"])
    def test_closed_forms(self, scale):
        for x in HYP_XS:
            v, _ = invert(scale.psi, scale.q, x)
            assert v == pytest.approx(scale.eval(x), rel=1e-10)

    @pytest.mark.parametrize("family,x", [("fixed_jumps", 0.3), ("fixed_jumps", 4.0),
                                          ("pssmp_conditioned", 0.3)])
    def test_uncertified_raises_or_is_exact(self, family, x):
        # fixed_jumps: psi - q has infinitely many complex zeros, some right of
        # the hyperbola; pssmp: Gamma(s + beta) overflows past |s| ~ 143, which
        # the outer nodes reach at x = 0.3
        scale = build_catalog_entry(family).scale
        try:
            v, _ = invert(scale.psi, scale.q, x)
        except InversionError:
            return
        assert v == pytest.approx(scale.eval(x), rel=1e-9)

    def test_one_array_call_of_psi(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, zeta=1.0)
        inner = params.exponent()
        calls = []

        def counted(theta):
            calls.append(np.ndim(theta))
            return inner.eval(theta)

        psi = LaplaceExponent(eval=counted, drift_at_zero=inner.drift_at_zero)
        invert(psi, 0.0, 1.0)
        assert sum(1 for d in calls if d > 0) == 1


class TestVerifyIdentity:
    def test_brownian_exact(self):
        from scalekit.catalog import w_brownian

        w = w_brownian(math.sqrt(2.0), 0.0, 0.0)
        rep = verify_laplace_identity(w, [1.0])
        assert rep.relative_errors[0] <= 1e-9
        assert rep.passed

    def test_programming_error_propagates(self):
        from scalekit.catalog import w_brownian
        from scalekit.gtsc import ScaleFunction

        w = w_brownian(math.sqrt(2.0), 0.0, 0.0)

        def broken(x):
            raise TypeError("bad call")

        bad = ScaleFunction(q=0.0, phi_q=w.phi_q, route="stub", w=broken, dw=broken, psi=w.psi)
        with pytest.raises(TypeError):
            verify_laplace_identity(bad, [1.0])

    def test_numerical_failure_becomes_flag(self):
        from scalekit.catalog import w_brownian
        from scalekit.errors import NumericalError
        from scalekit.gtsc import ScaleFunction

        w = w_brownian(math.sqrt(2.0), 0.0, 0.0)

        def failing(x):
            raise NumericalError("quadrature stagnated")

        bad = ScaleFunction(q=0.0, phi_q=w.phi_q, route="stub", w=failing, dw=failing, psi=w.psi)
        rep = verify_laplace_identity(bad, [1.0, 2.0])
        assert rep.relative_errors == (math.inf, math.inf)
        assert len(rep.flags) == 2 and "quadrature stagnated" in rep.flags[0]
        assert not rep.passed

    def test_one_w_call_for_all_thetas(self):
        # W is evaluated once, on the union of the Kronrod nodes and truncation points of
        # every theta; each theta then takes one row sum over its panels
        w = w_brownian(math.sqrt(2.0), 0.0, 0.0)
        calls = []

        def counting(x):
            calls.append(np.size(x))
            return w.eval(x)

        thetas = [0.5, 1.0, 2.0, 5.0]
        got = laplace_transform_numeric(counting, thetas, 0.0, kinks=[3.0, 7.5])
        assert len(calls) == 1
        assert got == pytest.approx([1.0 / th ** 2 for th in thetas], rel=1e-13)

    def test_theta_below_phi_rejected(self):
        w = w_ig(1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            verify_laplace_identity(w, [w.phi_q * 0.5])


class TestBromwichDeriv:
    """W' of the bromwich route: the hyperbola applied to s/(psi(s) - q)."""

    @pytest.mark.parametrize("alpha", [1 / 3, -1 / 3, 1 / 2, 2 / 3, -2 / 3])
    @pytest.mark.parametrize("extra", [{}, {"kappa": 1.0}, {"varphi": 1.0}, {"zeta": 1.0}])
    def test_matches_rational_deriv(self, alpha, extra):
        params = GtscParams(alpha=alpha, gamma=1.0, c=1.0, **extra)
        xs = np.array([0.05, 0.4, 1.7, 5.0, 9.0])
        for q in (0.0, 1.0):
            want = w_rational(params, None, q).eval_deriv(xs)
            got = scale_function(params, q, "bromwich").eval_deriv(xs)
            np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("alpha,extra", [(1 / 3, {}), (-1.0, {}), (-1.0, {"kappa": 0.5})])
    def test_deriv_at_zero_is_the_asymptote(self, alpha, extra):
        params = GtscParams(alpha=alpha, gamma=1.0, c=1.0, **extra)
        want = asymptote_zero(params).wprime0
        assert scale_function(params, route="bromwich").eval_deriv(0.0) == want
        if alpha == -1.0:     # c/A^2 with A = kappa + c/gamma
            assert want == pytest.approx(1.0 / (1.0 + extra.get("kappa", 0.0)) ** 2, rel=1e-12)
        else:
            assert want == math.inf

    @pytest.mark.parametrize("q,extra", [(1.0, {}), (0.0, {"varphi": 1.0}), (2.0, {"varphi": 0.5})])
    def test_alpha_minus_one_slope_counts_q_and_jump_mass(self, q, extra):
        # bounded variation: W'(0+) = (m + q)/A^2, jump mass m = c (varphi + gamma)/gamma
        params = GtscParams(alpha=-1.0, gamma=2.0, c=1.5, **extra)
        slope = asymptote_zero(params, q).wprime0
        assert slope == pytest.approx((1.5 * (extra.get("varphi", 0.0) + 2.0) / 2.0 + q)
                                      / 0.75 ** 2, rel=1e-12)
        scale = scale_function(params, q, "bromwich")
        assert scale.eval_deriv(0.0) == slope
        assert scale.eval_deriv(1e-5) == pytest.approx(slope, rel=1e-4)

    def test_value_is_public_invert(self):
        # the route's W on an array, block by block, is the public one-point inversion
        # to the last bit
        params = GtscParams(alpha=1 / 3, gamma=1.0, c=1.0, kappa=1.0)
        scale = scale_function(params, 1.0, "bromwich")
        for x in (0.3, 4.0):
            assert scale.eval(x) == invert(scale.psi, 1.0, x)[0]
        xs = np.r_[0.3, 4.0, np.geomspace(1e-3, 20.0, 70)]
        assert np.array_equal(scale.eval(xs), [invert(scale.psi, 1.0, x)[0] for x in xs])
