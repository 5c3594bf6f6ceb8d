"""Laplace exponents, the parent construction and its consistency checks."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from scalekit import cli, levy
from scalekit.catalog import build_catalog_entry, catalog_families, w_brownian
from scalekit.errors import NumericalError, ParameterError
from scalekit.gtsc import GtscParams
from scalekit.levy import LaplaceExponent, LevyTriple, big_phi, build_parent


def quadratic_psi():
    return LaplaceExponent(eval=lambda th: th * th, drift_at_zero=0.0)


class TestBigPhi:
    def test_square_root(self):
        assert big_phi(quadratic_psi(), 4.0) == pytest.approx(2.0, rel=1e-12)

    def test_zero_with_positive_drift(self):
        psi = LaplaceExponent(eval=lambda th: th * th + th, drift_at_zero=1.0)
        assert big_phi(psi, 0.0) == 0.0

    def test_zero_with_negative_drift(self):
        # psi(theta) = theta^2 - theta: Phi(0) = 1
        psi = LaplaceExponent(eval=lambda th: th * th - th, drift_at_zero=-1.0)
        assert big_phi(psi, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_right_inverse_and_monotone(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, zeta=1.0)
        psi = params.exponent()
        prev = -1.0
        for q in (0.0, 0.1, 0.5, 1.0, 3.0, 10.0):
            phi = big_phi(psi, q)
            assert float(np.real(psi.eval(phi))) == pytest.approx(q, rel=1e-10, abs=1e-10)
            assert phi >= prev
            prev = phi

    def test_tiny_negative_drift_halves_the_bracket(self):
        # psi = theta^2/2 - 1e-10 theta is positive at the first lower end 1e-8, which is
        # halved until it lies below Phi(0) = 2e-10
        psi = w_brownian(1.0, -1e-10).psi
        assert psi.eval(1e-8) > 0.0
        assert big_phi(psi, 0.0) == pytest.approx(2e-10, rel=1e-12)

    def test_negative_drift_without_a_dip_raises(self):
        # psi'(0+) < 0 says psi dips below 0 before its root Phi(0) > 0, but theta^2 never
        # does: an inconsistent exponent, not Phi(0) = 0
        psi = LaplaceExponent(eval=lambda th: th * th, drift_at_zero=-1.0)
        with pytest.raises(NumericalError, match="inconsistent"):
            big_phi(psi, 0.0)

    def test_negative_q_rejected(self):
        with pytest.raises(ParameterError):
            big_phi(quadratic_psi(), -1.0)

    @pytest.mark.parametrize("kappa,varphi,zeta", [(0, 0, 0), (1, 0, 0), (0, 1, 1)])
    def test_strict_convexity_sampled(self, kappa, varphi, zeta):
        # psi strictly convex on a log grid: its chord slopes strictly increase
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, zeta=zeta,
                            kappa=kappa, varphi=varphi)
        psi = params.exponent()
        ts = np.logspace(-3, 3, 40)
        slopes = np.diff(psi.eval(ts).real) / np.diff(ts)
        assert all(b > a for a, b in zip(slopes, slopes[1:]))

    def test_eval_zero_is_zero(self):
        for varphi in (0.0, 1.0):
            params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, varphi=varphi)
            assert abs(complex(params.exponent().eval(0.0))) <= 1e-15


def _scipy_brentq(f, lo, hi):
    from scipy.optimize import brentq

    return brentq(f, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=300)


class TestBigPhiParity:
    # Phi(q) from the in-module Brent loop is the double scipy's brentq gives on the same bracket
    QS = (0.0, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0)

    def _pairs(self, monkeypatch, exponents):
        own = [big_phi(psi, q) for psi in exponents for q in self.QS]
        monkeypatch.setattr(levy, "_brentq", _scipy_brentq)
        return own, [big_phi(psi, q) for psi in exponents for q in self.QS]

    def test_case_grid(self, monkeypatch):
        alphas = (-0.9, -3 / 4, -2 / 3, -1 / 2, -1 / 3, -1 / 4, 1 / 4, 1 / 3, 1 / 2, 2 / 3, 3 / 4)
        exponents = [GtscParams(alpha=a, gamma=g, c=c, kappa=case.kappa, varphi=case.varphi,
                                zeta=case.zeta).exponent()
                     for case in cli.CASES.values() for a in alphas
                     for g, c in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5))]
        own, ref = self._pairs(monkeypatch, exponents)
        assert len(own) == 1386
        assert own == ref

    def test_catalog_exponents(self, monkeypatch):
        own, ref = self._pairs(monkeypatch, [build_catalog_entry(f).scale.psi
                                             for f in catalog_families()])
        assert own == ref

    def test_random_brackets(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a, b, r = rng.normal(), rng.normal(), rng.uniform(0.01, 10.0)

            def f(x):
                return math.exp(a * x) * (x - r) + b * (x - r) ** 3

            if (f(0.0) < 0.0) == (f(20.0) < 0.0):
                continue
            assert levy._brentq(f, 0.0, 20.0) == _scipy_brentq(f, 0.0, 20.0)

    def test_sign_change_required(self):
        with pytest.raises(NumericalError):
            levy._brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_errors_name_the_failure_not_a_caller(self):
        # big_phi and the Monte Carlo Lundberg root share the solver, so its texts name no caller
        with pytest.raises(NumericalError, match="^Brent's method: no sign change on the bracket"):
            levy._brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        # a step at 0 needs about 1000 halvings to reach xtol = 1e-300, past the 300 iterations
        with pytest.raises(NumericalError, match="^Brent's method did not converge"):
            levy._brentq(lambda x: 1.0 if x > 0 else -1.0, -1.0, 3.0)


class TestMeanDrift:
    def test_quadratic(self):
        assert quadratic_psi().drift_at_zero == pytest.approx(0.0, abs=1e-8)

    def test_gtsc_kappa(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=1.0)
        assert params.exponent().drift_at_zero == pytest.approx(1.0, rel=1e-12)

    def test_case_c_closed_form_vs_finite_difference(self):
        # kappa=0, varphi=1, zeta=0, c=1, gamma=1, alpha=1/2: psi'(0+) < 0;
        # oracle = central finite difference of psi at 0+
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, varphi=1.0)
        psi = params.exponent()
        closed = psi.drift_at_zero
        h = 1e-6
        fd = (float(np.real(psi.eval(h))) - float(np.real(psi.eval(-h)))) / (2.0 * h)
        assert closed < 0.0
        assert closed == pytest.approx(fd, rel=1e-6)
        expected = -(1.0 * math.gamma(0.5))  # kappa - varphi*(zeta + c*Gamma(1/2))
        assert closed == pytest.approx(expected, rel=1e-12)


CASES = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]


@pytest.mark.parametrize("alpha", [-1.0 / 3.0, 0.0, 0.5])
@pytest.mark.parametrize("kappa,varphi,zeta", CASES)
def test_gtsc_exponent_derivative_against_mpmath(alpha, kappa, varphi, zeta):
    import mpmath as mp

    params = GtscParams(alpha=alpha, gamma=1.0, c=1.0, zeta=zeta, kappa=kappa, varphi=varphi)

    def psi(t):
        if alpha == 0.0:
            body = mp.log(1 + t)
        else:
            body = mp.gamma(-alpha) * (1 - (1 + t) ** alpha)
        return (t - varphi) * (kappa + zeta * t + body)

    with mp.workdps(40):
        ref0 = float(mp.diff(psi, 0))
    for exponent in (params.exponent(), params.parent_triple()[1]):
        assert exponent.drift_at_zero == pytest.approx(ref0, rel=1e-12, abs=1e-12)


def levy_khintchine_exponent(triple: LevyTriple, theta: float) -> float:
    """psi(theta) recomputed from the triple by quadrature of the jump integral.

    Splits at |x| = 1 and compensates the integrand near zero, matching the
    truncation convention of the Levy-Khintchine form used throughout.
    """
    from scipy.integrate import quad

    if triple.pi_density is None:
        raise ParameterError("levy_khintchine_exponent needs a jump density")

    def near(u: float) -> float:
        # exp(-theta u) - 1 + theta u, compensated part for u in (0, 1); the difference
        # cancels to about 2 eps/(theta u) relative, so small theta u takes its Taylor series
        tu = theta * u
        if abs(tu) < 1e-2:
            comp = tu * tu * (1 / 2 - tu * (1 / 6 - tu * (1 / 24 - tu * (1 / 120 - tu * (
                1 / 720 - tu / 5040)))))
        else:
            comp = math.expm1(-tu) + tu
        return comp * triple.pi_density(u)

    def far(u: float) -> float:
        return (math.exp(-theta * u) - 1.0) * triple.pi_density(u)

    j1, _ = quad(near, 0.0, 1.0, limit=400, epsabs=1e-13, epsrel=1e-11)
    j2, _ = quad(far, 1.0, np.inf, limit=400, epsabs=1e-13, epsrel=1e-11)
    return -triple.a * theta + 0.5 * triple.sigma ** 2 * theta ** 2 + j1 + j2


class TestBuildParent:
    def test_pure_gaussian(self):
        from scalekit.levy import LadderParams

        ladder = LadderParams(drift=1.0, levy_density=lambda x: 0.0, tail=lambda x: 0.0,
                              exponent=lambda th: th, exponent_deriv=lambda th: 1.0,
                              levy_density_deriv=lambda x: 0.0, small_jump_mean=0.0)
        triple, psi = build_parent(ladder, 0.0)
        assert triple.sigma == pytest.approx(math.sqrt(2.0))
        assert triple.pi_tail(0.5) == 0.0
        for th in (0.3, 1.0, 4.0):
            assert float(np.real(psi.eval(th))) == pytest.approx(th * th, rel=1e-12)

    @pytest.mark.parametrize("varphi", [0.0, 1.0])
    def test_alpha_zero_triple_finite(self, varphi):
        # the ladder tail is c Gamma(0, gamma x) = c E_1(gamma x) at alpha = 0, E_1(1) = 0.2194
        params = GtscParams(alpha=0.0, gamma=1.0, c=1.0, varphi=varphi)
        triple, _ = params.parent_triple()
        assert math.isfinite(triple.a)
        assert triple.pi_tail(1.0) == pytest.approx(
            varphi * 0.21938393439552029 + math.exp(-1.0), rel=1e-14)
        assert all(math.isfinite(triple.pi_tail(x)) for x in (1e-3, 0.5, 5.0))

    def test_untempered_triple(self):
        # gamma = 0, alpha = 1/3: Upsilon(x, inf) = 3 x^{-1/3}, so with varphi = 0 the jump
        # tail is the density x^{-4/3} and a = -(1 + int_1^inf x^{-4/3} dx) - kappa = -5
        params = GtscParams(alpha=1.0 / 3.0, gamma=0.0, c=1.0, kappa=1.0)
        assert params.ladder().tail(1.0) == pytest.approx(3.0, rel=1e-15)
        triple, psi = params.parent_triple()
        assert triple.pi_tail(1.0) == pytest.approx(1.0, rel=1e-15)
        assert triple.a == pytest.approx(-5.0, rel=1e-14)
        assert psi.drift_at_zero == 1.0

    def test_untempered_tilted_triple_quiet(self):
        # gamma = 0, alpha = 1/3, varphi = 1: a = varphi m_1 - upsilon(1) - Upsilon(1)
        # = 3/2 - 1 - 3 = -5/2 with m_1 = int_0^1 u^{-1/3} du, although the parent has
        # infinite mean (int_1^inf u pi(u) du diverges); no warning is raised
        params = GtscParams(alpha=1.0 / 3.0, gamma=0.0, c=1.0, varphi=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            triple, _ = params.parent_triple()
        assert triple.a == pytest.approx(-2.5, rel=1e-14)

    def test_killed_both_sides_rejected(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=1.0)
        with pytest.raises(ParameterError):
            build_parent(params.ladder(), 1.0)

    @pytest.mark.parametrize("kappa,varphi,zeta", [(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                                   (0, 0, 1), (1, 0, 1), (0, 1, 1)])
    def test_wiener_hopf_consistency(self, kappa, varphi, zeta):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, zeta=zeta,
                            kappa=kappa, varphi=varphi)
        _, psi = build_parent(params.ladder(), varphi)
        phi_l = params.ladder_exponent
        for th in np.logspace(-3, 3, 25):
            lhs = complex(psi.eval(th))
            rhs = (th - varphi) * complex(phi_l(th))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_phi0_equals_varphi(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, varphi=1.0)
        _, psi = build_parent(params.ladder(), 1.0)
        assert big_phi(psi, 0.0) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("case", sorted(cli.CASES))
    @pytest.mark.parametrize("alpha,gamma", [(-0.5, 1.0), (-1 / 3, 1.0), (0.0, 1.0), (1 / 3, 1.0),
                                             (0.75, 1.0), (1 / 3, 0.0), (0.75, 0.0)])
    def test_jump_components_are_the_density(self, case, alpha, gamma):
        # Monte Carlo draws jumps from jump_components alone, which parent_triple writes by
        # hand; they must describe the same law as the triple's density
        params = replace(cli.CASES[case].params(alpha), c=1.3, gamma=gamma)
        triple, _ = params.parent_triple()
        assert {kind for kind, *_ in triple.jump_components} == {"tempered_power"}
        for u in (1e-3, 0.1, 1.0, 5.0):
            total = sum(coef * u ** (-a - 1.0) * math.exp(-g * u)
                        for _, coef, a, g in triple.jump_components)
            assert total == pytest.approx(triple.pi_density(u), rel=1e-13)

    @pytest.mark.parametrize("alpha,varphi", [(0.5, 0.0), (-0.5, 0.0), (0.25, 1.0),
                                              (0.75, 1.0)])
    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    def test_levy_khintchine_roundtrip(self, alpha, varphi):
        # the triple returned by the construction reproduces the exponent by
        # quadrature of the Levy-Khintchine jump integral, without a roundoff warning
        params = GtscParams(alpha=alpha, gamma=1.0, c=1.0, varphi=varphi)
        triple, psi = build_parent(params.ladder(), varphi)
        for th in (0.5, 1.0, 3.0):
            lk = levy_khintchine_exponent(triple, th)
            ref = float(np.real(psi.eval(th)))
            assert lk == pytest.approx(ref, rel=1e-6, abs=1e-8)
