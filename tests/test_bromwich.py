"""Numerical inversion: reference pairs, invariants, and failure modes."""

import math

import numpy as np
import pytest

from scalekit.bromwich import (InversionConfig, classify_integrability, invert,
                               laplace_transform_numeric, verify_laplace_identity)
from scalekit.bromwich import _invert_talbot, _singularity_radius
from scalekit.errors import ParameterError
from scalekit.gtsc import GtscParams, ig_params, w_ig, w_rational
from scalekit.levy import LaplaceExponent, big_phi
from scalekit.polyfrac import RationalAlpha

SINH_1 = 1.1752011936438014569
W_IG_AT_1 = 1.424660216656229247


def quadratic_psi():
    return LaplaceExponent(eval=lambda th: th * th, deriv=lambda th: 2.0 * th,
                           domain_edge=-math.inf, drift_at_zero=0.0)


class TestInvert:
    def test_sinh_line(self):
        v, e = invert(quadratic_psi(), 1.0, 1.0)
        assert v == pytest.approx(SINH_1, rel=1e-9)
        assert e < 1e-7

    def test_sinh_talbot(self):
        v, e = invert(quadratic_psi(), 1.0, 1.0, InversionConfig(contour="talbot"))
        assert v == pytest.approx(SINH_1, rel=1e-9)

    def test_ig_reference(self):
        psi = ig_params(1.0, 1.0).exponent()
        v, _ = invert(psi, 0.0, 1.0)
        assert v == pytest.approx(W_IG_AT_1, rel=1e-6)

    def test_contour_invariance(self):
        psi = ig_params(1.0, 1.0).exponent()
        v1, e1 = invert(psi, 0.5, 2.0, InversionConfig(r=1.2))
        v2, e2 = invert(psi, 0.5, 2.0, InversionConfig(r=2.2))
        assert abs(v1 - v2) <= 5.0 * (e1 + e2) + 1e-9 * abs(v1)

    def test_principal_value_classification(self):
        # zeta=0, alpha<0: |1/(psi-q)| ~ u^{-(1+alpha)} decays slower than 1/u
        params = GtscParams(alpha=-0.5, gamma=1.0, c=1.0, kappa=1.0)
        psi = params.exponent()
        assert classify_integrability(psi, 0.0, 1.0) == "principal-value"
        params2 = GtscParams(alpha=0.5, gamma=1.0, c=1.0, zeta=1.0)
        assert classify_integrability(params2.exponent(), 0.0, 1.0) == "lebesgue"

    def test_principal_value_case_inverts(self):
        # alpha = -1/2 ladder: the rational route cross-checks the PV inversion
        params = GtscParams(alpha=-0.5, gamma=1.0, c=1.0, kappa=1.0)
        w = w_rational(params, RationalAlpha(-1, 2), 0.0)
        v, _ = invert(params.exponent(), 0.0, 1.5)
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
        got = laplace_transform_numeric(w, theta, phi0)
        assert got == pytest.approx(1.0 / (float(np.real(psi.eval(theta)))), rel=1e-6)

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            invert(quadratic_psi(), 1.0, 0.0)
        with pytest.raises(ParameterError):
            invert(quadratic_psi(), -1.0, 1.0)
        with pytest.raises(ParameterError):
            invert(quadratic_psi(), 1.0, 1.0, InversionConfig(r=0.5))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            InversionConfig(contour="circle")
        with pytest.raises(ParameterError):
            InversionConfig(nodes=16)


class TestTalbot:
    def test_node_doubling_convergence(self):
        # for zeta > 0 the quadrature error estimate collapses fast in M
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, zeta=1.0)
        psi = params.exponent()
        w = w_rational(params, RationalAlpha(1, 2), 0.0)
        v, e = invert(psi, 0.0, 1.0, InversionConfig(contour="talbot"))
        assert v == pytest.approx(w.eval(1.0), rel=1e-8)

        shift = 1.0
        R = _singularity_radius(psi, 0.0, shift, 0.0)

        def talbot_at(M):
            r_t = 2.0 * M / 5.0
            theta = (np.arange(1, M) * math.pi) / M
            cot = 1.0 / np.tan(theta)
            s = r_t * theta * (cot + 1j)
            sigma = theta + (theta * cot - 1.0) * cot
            g = np.array([1.0 / complex(psi.eval(sv - shift)) for sv in s])
            terms = np.exp(s) * g * (1.0 + 1j * sigma)
            tot = 0.5 * math.exp(r_t) / complex(psi.eval(r_t - shift)) + terms.sum()
            return float(np.real(tot)) * r_t / M * math.exp(-shift)

        ref = w.eval(1.0)
        errs = [abs(talbot_at(M) - ref) for M in (6, 12, 24)]
        floor = 1e-13 * (1.0 + abs(ref))
        assert errs[1] <= max(errs[0] / 4.0, floor)
        assert errs[2] <= max(errs[1] / 4.0, floor)

    def test_envelope_refusal(self):
        # huge x pushes the required contour scale past the double-precision
        # envelope; the mode must refuse rather than silently degrade
        from scalekit.errors import InversionError

        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0)
        with pytest.raises(InversionError):
            _invert_talbot(params.exponent(), 0.0, 200.0, 0.0,
                           InversionConfig(contour="talbot"))


class TestRealness:
    def test_imaginary_residue_negligible(self):
        # structural: the line integrand combines cos/sin parts of a real
        # transform, so the output is real by construction; check the talbot
        # path too via a complex-pole case (q > q0)
        psi = ig_params(1.0, 1.0).exponent()
        q = 1.2
        w = w_ig(1.0, 1.0, q)
        v, _ = invert(psi, q, 1.0)
        assert v == pytest.approx(w.eval(1.0), rel=1e-7)
        v2, _ = invert(psi, q, 1.0, InversionConfig(contour="talbot"))
        assert v2 == pytest.approx(w.eval(1.0), rel=1e-6)


class TestVerifyIdentity:
    def test_brownian_exact(self):
        from scalekit.catalog import w_brownian

        w = w_brownian(math.sqrt(2.0), 0.0, 0.0)
        rep = verify_laplace_identity(w, w.psi, [1.0])
        assert rep.relative_errors[0] <= 1e-9
        assert rep.passed

    def test_programming_error_propagates(self):
        from scalekit.catalog import w_brownian
        from scalekit.gtsc import ScaleFunction

        w = w_brownian(math.sqrt(2.0), 0.0, 0.0)

        def broken(x):
            raise TypeError("bad call")

        bad = ScaleFunction(q=0.0, phi_q=w.phi_q, route="stub", eval_fn=broken)
        with pytest.raises(TypeError):
            verify_laplace_identity(bad, w.psi, [1.0])

    def test_numerical_failure_becomes_flag(self):
        from scalekit.catalog import w_brownian
        from scalekit.errors import NumericalError
        from scalekit.gtsc import ScaleFunction

        w = w_brownian(math.sqrt(2.0), 0.0, 0.0)

        def failing(x):
            raise NumericalError("quadrature stagnated")

        bad = ScaleFunction(q=0.0, phi_q=w.phi_q, route="stub", eval_fn=failing)
        rep = verify_laplace_identity(bad, w.psi, [1.0, 2.0])
        assert rep.relative_errors == (math.inf, math.inf)
        assert len(rep.flags) == 2 and "quadrature stagnated" in rep.flags[0]
        assert not rep.passed

    def test_theta_below_phi_rejected(self):
        w = w_ig(1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            verify_laplace_identity(w, w.psi, [w.phi_q * 0.5])
