"""The six classical families: values, boundaries, and the transform identity."""

import math

import numpy as np
import pytest
from scipy import special as sps
from scipy.integrate import quad

from scalekit.bromwich import _invert_hyperbola, invert, verify_laplace_identity
from scalekit.catalog import (CORRECTIONS, build_catalog_entry, catalog_families,
                              w_abate_whitt, w_brownian, w_cramer_lundberg,
                              w_fixed_jumps, w_pssmp, w_stable, w_stable_drift)
from scalekit.errors import ParameterError, SaturationError

SINH_1 = 1.1752011936438014569
E_PRIME_3HALF_AT_1 = 1.1488295713550730142   # E'_{3/2,1}(1)
STABLE_DRIFT_AT_1 = 0.57241642384419299559   # 1 - E_{1/2,1}(-1)


class TestBrownian:
    def test_linear_case(self):
        # mu = q = 0: W = 2x/sigma^2 and W' = 2/sigma^2 exactly
        sigma = math.sqrt(2.0)
        w = w_brownian(sigma, 0.0, 0.0)
        for x in (0.0, 0.5, 3.0):
            assert w.eval(x) == pytest.approx(x, abs=1e-14)
            assert w.eval_deriv(x) == 2.0 / (sigma * sigma)

    def test_sinh_case_with_inversion_oracle(self):
        w = w_brownian(math.sqrt(2.0), 0.0, 1.0)
        assert w.eval(1.0) == pytest.approx(SINH_1, rel=1e-12)
        got, _ = invert(w.psi, 1.0, 1.0)
        assert got == pytest.approx(SINH_1, rel=1e-9)

    def test_drift_case(self):
        # q=0, mu>0: W(x) = (1 - e^{-2 mu x/sigma^2})/mu
        w = w_brownian(1.0, 0.5, 0.0)
        for x in (0.2, 1.0, 4.0):
            assert w.eval(x) == pytest.approx((1.0 - math.exp(-2 * 0.5 * x)) / 0.5,
                                              rel=1e-13)

    def test_drift_case_derivative_and_far_x(self):
        # q=0, mu>0: W'(x) = 2 e^{-2 mu x/sigma^2}/sigma^2, where cosh - (mu/rt) sinh cancels
        w = w_brownian(1.0, 0.5, 0.0)
        xs = np.array([0.2, 4.0, 20.0, 60.0])
        assert np.allclose(w.eval_deriv(xs), 2.0 * np.exp(-xs), rtol=1e-13, atol=0.0)
        assert w.eval(1e5) == 2.0      # finite although sinh(x rt/sigma^2) overflows

    def test_overflow_is_typed(self):
        # W^(q) grows like e^{Phi(q) x}: past floating-point range it raises, never inf or NaN
        w = w_brownian(1.0, 0.5, 1.0)
        for method in (w.eval, w.eval_deriv):
            with pytest.raises(SaturationError):
                method(np.array([1.0, 1e5]))


class TestStable:
    def test_q0_power(self):
        w = w_stable(1.5, 0.0)
        for x in (0.3, 1.0, 5.0):
            assert w.eval(x) == pytest.approx(x ** 0.5 / sps.gamma(1.5), rel=1e-12)

    def test_beta_two_matches_brownian(self):
        wb = w_brownian(math.sqrt(2.0), 0.0, 1.0)
        ws = w_stable(2.0, 1.0)
        for x in (0.3, 1.0, 2.5):
            assert ws.eval(x) == pytest.approx(wb.eval(x), rel=1e-10)

    def test_ml_value(self):
        w = w_stable(1.5, 1.0)
        assert w.eval(1.0) == pytest.approx(1.5 * E_PRIME_3HALF_AT_1, rel=1e-10)
        got, _ = invert(w.psi, 1.0, 1.0)
        assert got == pytest.approx(w.eval(1.0), rel=1e-8)

    @pytest.mark.parametrize("beta", [1.3, 1.5, 1.8, 2.0])
    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_deriv_against_hyperbola(self, beta, q):
        # W' = x^{beta-2} E_{beta,beta-1}(q x^beta); the hyperbola inverts s/(psi - q)
        w = w_stable(beta, q)
        xs = np.array([0.3, 1.0, 2.5, 5.0])
        ref, _ = _invert_hyperbola(w.psi, q, xs, w.phi_q + 1.0 / xs, True)
        assert np.allclose(w.eval_deriv(xs), ref, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("beta", [1.5, 2.0])
    def test_q0_far_x(self, beta):
        # at q = 0 the Mittag-Leffler argument is exactly 0, also where x^beta overflows:
        # W = x^{beta-1}/Gamma(beta) and W' = x^{beta-2}/Gamma(beta-1)
        w = build_catalog_entry("stable", beta=beta).scale
        x = 1e300
        assert w.eval(x) == pytest.approx(x ** (beta - 1.0) / math.gamma(beta), rel=1e-14)
        assert w.eval_deriv(x) == pytest.approx(x ** (beta - 2.0) / math.gamma(beta - 1.0),
                                                rel=1e-14)

    def test_range_check(self):
        with pytest.raises(ParameterError):
            w_stable(0.9)
        with pytest.raises(ParameterError):
            w_stable(2.1)


class TestStableDrift:
    def test_at_zero(self):
        assert w_stable_drift(1.5, 1.0).eval(0.0) == 0.0

    def test_value(self):
        w = w_stable_drift(1.5, 1.0)
        assert w.eval(1.0) == pytest.approx(STABLE_DRIFT_AT_1, rel=1e-10)

    def test_zero_drift_limit(self):
        x = 1.3
        ref = x ** 0.5 / sps.gamma(1.5)
        for c in (1e-3, 1e-5):
            assert w_stable_drift(1.5, c).eval(x) == pytest.approx(ref, rel=20 * c)

    def test_exponent_pairing_via_identity(self):
        w = w_stable_drift(1.5, 1.0)
        rep = verify_laplace_identity(w, [0.5, 2.0])
        assert rep.max_rel_err <= 1e-6


class TestCramerLundberg:
    def test_boundaries(self):
        w = w_cramer_lundberg(2.0, 1.0, 1.0)
        assert w.eval(0.0) == pytest.approx(0.5)
        assert w.eval(200.0) == pytest.approx(1.0 / (2.0 - 1.0), rel=1e-10)

    def test_value_vs_inversion(self):
        w = w_cramer_lundberg(2.0, 1.0, 1.0)
        got, _ = invert(w.psi, 0.0, 1.0)
        assert got == pytest.approx(w.eval(1.0), rel=1e-9)

    def test_drift_condition(self):
        with pytest.raises(ParameterError):
            w_cramer_lundberg(1.0, 2.0, 1.0)


class TestFixedJumps:
    def test_pure_drift(self):
        w = w_fixed_jumps(1.0, 0.0, 1.0)
        for x in (0.0, 0.5, 7.0):
            assert w.eval(x) == pytest.approx(1.0)

    def test_value_at_zero_and_limit(self):
        w = w_fixed_jumps(1.0, 0.5, 1.0)
        assert w.eval(0.0) == pytest.approx(1.0)
        assert w.eval(60.0) == pytest.approx(1.0 / (1.0 - 0.5), rel=1e-10)

    def test_kinks_at_multiples(self):
        # W' jumps at x = jump; W itself stays continuous
        w = w_fixed_jumps(1.0, 0.5, 1.0)
        eps = 1e-9
        assert w.eval(1.0 - eps) == pytest.approx(w.eval(1.0 + eps), rel=1e-7)
        dl = (w.eval(1.0 - eps) - w.eval(1.0 - 3 * eps)) / (2 * eps)
        dr = (w.eval(1.0 + 3 * eps) - w.eval(1.0 + eps)) / (2 * eps)
        assert abs(dl - dr) > 1e-3

    def test_drift_condition(self):
        with pytest.raises(ParameterError):
            w_fixed_jumps(1.0, 2.0, 1.0)

    # W relative tolerance per (c, lambda, jump); near the critical drift (3, 2.9, 1) the
    # alternating sum loses more digits before the two-pole tail takes over
    @pytest.mark.parametrize("ccoef,lam,jump,tol", [(1.0, 0.5, 1.0, 1e-11), (2.0, 1.5, 0.7, 1e-11),
                                                    (1.5, 0.3, 2.0, 1e-11), (3.0, 2.9, 1.0, 4e-9)])
    def test_against_exact_sum(self, ccoef, lam, jump, tol):
        import mpmath as mp

        def exact(x):
            with mp.workdps(80):
                lc, h, x = mp.mpf(lam) / ccoef, mp.mpf(jump), mp.mpf(x)
                return sum(mp.exp(-lc * (h * n - x)) * (lc * (h * n - x)) ** n
                           / mp.factorial(n) for n in range(int(x / h + 1e-12) + 1)) / ccoef

        w = w_fixed_jumps(ccoef, lam, jump)
        xs = 0.37 * jump * np.arange(1, 121)
        got, dgot = w.eval(xs), w.eval_deriv(xs)
        want = np.array([float(exact(x)) for x in xs])
        # W' = (lambda/c)(W(x) - W(x - jump)), the inverse of theta/psi - 1/c
        dwant = np.array([float(lam / ccoef * (exact(x) - (exact(x - jump) if x >= jump else 0)))
                          for x in xs])
        assert np.max(np.abs(got - want) / want) <= tol
        assert np.max(np.abs(dgot - dwant) / want) <= 1e-8
        assert np.all(dgot >= 0.0)
        assert np.all(got <= 1.0 / (ccoef - lam * jump))
        assert w.eval_deriv(0.0) == pytest.approx(lam / ccoef ** 2, rel=1e-15)


class TestAbateWhitt:
    def test_at_zero_and_infinity(self):
        w = w_abate_whitt(0.5, 1.0)
        assert w.eval(0.0) == pytest.approx(1.0, rel=1e-12)
        # the limit 1/psi'(0+) = 2 is approached at the x^{-1/2} rate:
        # extrapolate in 1/sqrt(x)
        v1, v2 = w.eval(1000.0), w.eval(4000.0)
        assert 2.0 * v2 - v1 == pytest.approx(2.0, rel=1e-3)
        assert (2.0 - v1) == pytest.approx(2.0 * (2.0 - v2), rel=0.05)

    def test_drift_condition(self):
        with pytest.raises(ParameterError):
            w_abate_whitt(1.0, 1.0)

    def test_value_vs_inversion_oracle(self):
        w = w_abate_whitt(0.5, 1.0)
        got, _ = invert(w.psi, 0.0, 1.0)
        assert got == pytest.approx(w.eval(1.0), rel=1e-8)

    @pytest.mark.parametrize("lam,mu", [(0.5, 1.0), (0.3, 2.5), (1e-15, 1.0)])
    def test_deriv_against_mpmath(self, lam, mu):
        # (1e-15, 1) takes the coalescent branch, whose closed form W' holds to x = 40
        import mpmath as mp

        def exact(x):
            rho, half = mp.mpf(lam) / mu, (1 + mp.mpf(mu)) / 2
            disc = half ** 2 - (1 - rho) * mu
            if disc < 1e-14 * half ** 2:
                u = half ** 2 * x
                lim = (1 - 2 * u) * mp.exp(u) * mp.erfc(mp.sqrt(u)) + 2 * mp.sqrt(u / mp.pi)
                return (1 - rho * lim) / (1 - rho)
            nu1, nu2 = half + mp.sqrt(disc), half - mp.sqrt(disc)

            def eta(y):
                return mp.exp(y) * mp.erfc(mp.sqrt(y))
            return (1 - rho / (nu1 - nu2) * (nu1 * eta(x * nu2 ** 2) - nu2 * eta(x * nu1 ** 2))) \
                / (1 - rho)

        w = w_abate_whitt(lam, mu)
        with mp.workdps(40):
            for x in (1e-6, 0.01, 0.3, 1.0, 4.0, 25.0):
                assert w.eval_deriv(x) == pytest.approx(float(mp.diff(exact, x)), rel=1e-12, abs=0)
        assert w.eval_deriv(0.0) == pytest.approx(lam, rel=1e-13, abs=0)

    def test_coalescent_deriv_far_against_mpmath(self):
        # from u = 40 on the coalescent W' sums the asymptotic series of
        # (1 + 2u) erfcx(sqrt u) - 2 sqrt(u/pi); the closed form lost up to 1.8e-11 there
        import mpmath as mp

        w = w_abate_whitt(1e-15, 1.0)       # nu = 1, so u = x
        xs = np.linspace(40.0, 300.0, 27)
        got = w.eval_deriv(xs)
        with mp.workdps(50):
            rho = mp.mpf(1e-15)
            for x, g in zip(xs, got):
                u = mp.mpf(x)
                f = (1 + 2 * u) * mp.exp(u) * mp.erfc(mp.sqrt(u)) - 2 * mp.sqrt(u / mp.pi)
                assert g == pytest.approx(float(rho / (1 - rho) * f), rel=1e-13, abs=0.0), x

    def test_coalescent_discriminant(self):
        # nu1 = nu2 only on the degenerate boundary mu = 1, lambda -> 0
        # (AM-GM: ((1+mu)/2)^2 >= (1-rho) mu with equality iff mu=1, rho=0);
        # the limit formula must still produce a consistent entry there
        w = w_abate_whitt(1e-15, 1.0)
        assert w.eval(0.0) == pytest.approx(1.0, rel=1e-9)
        rep = verify_laplace_identity(w, [0.5, 2.0])
        assert rep.max_rel_err <= 1e-6


class TestPssmp:
    def test_conditioned_values(self):
        w = w_pssmp(1.5, True)
        assert w.eval(1.0) == pytest.approx((1.0 - math.exp(-1.0)) ** 0.5, rel=1e-13)
        assert w.eval(60.0) == pytest.approx(1.0, rel=1e-10)

    def test_unconditioned_small_x(self):
        w = w_pssmp(1.5, False)
        x = 1e-6
        assert w.eval(x) == pytest.approx(x ** 0.5, rel=1e-5)

    def test_unconditioned_overflow_is_typed(self):
        with pytest.raises(SaturationError):
            w_pssmp(1.5, False).eval(1000.0)

    def test_conditioned_drift(self):
        w = w_pssmp(1.5, True)
        assert w.psi.drift_at_zero == pytest.approx(1.0, rel=1e-6)

    def test_exponent_far_from_origin(self):
        # Gamma(t + beta) overflows past |t| ~ 143; the ratio must not
        import mpmath

        psi = w_pssmp(1.5, True).psi
        for t in (150.0 + 30.0j, -80.0 + 170.0j, 99.0 + 1.0j, 101.0 + 1.0j):
            ref = complex(mpmath.gamma(t + 1.5) / (mpmath.gamma(t) * mpmath.gamma(1.5)))
            assert complex(psi.eval(t)) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("family", ["brownian", "stable", "stable_drift", "cramer_lundberg",
                                    "fixed_jumps", "abate_whitt", "pssmp_drift_down",
                                    "pssmp_conditioned"])
def test_exponent_accepts_complex_arrays(family):
    psi = build_catalog_entry(family).scale.psi
    s = np.array([2.0 + 0.5j, 0.3 + 5.0j, -0.5 - 3.0j, 40.0 + 120.0j])
    got = psi.eval(s)
    ref = np.array([complex(psi.eval(complex(z))) for z in s])
    assert np.allclose(got, ref, rtol=1e-13, atol=0.0)


class TestIdentityAcrossCatalog:
    @pytest.mark.parametrize("family", sorted(["brownian", "stable", "stable_drift",
                                               "cramer_lundberg", "fixed_jumps",
                                               "abate_whitt", "pssmp_drift_down",
                                               "pssmp_conditioned"]))
    def test_default_entry_identity(self, family):
        entry = build_catalog_entry(family)
        w = entry.scale
        kinks = ()
        if family == "fixed_jumps":
            kinks = tuple(np.arange(1.0, 95.0))
        rep = verify_laplace_identity(w, [w.phi_q + 0.5, w.phi_q + 1.0,
                                          w.phi_q + 2.0, w.phi_q + 5.0], kinks=kinks)
        assert rep.max_rel_err <= 1e-6, f"{family}: {rep.relative_errors}"

    def test_registry(self):
        assert set(catalog_families()) == {
            "brownian", "stable", "stable_drift", "cramer_lundberg",
            "fixed_jumps", "abate_whitt", "pssmp_drift_down", "pssmp_conditioned"}
        with pytest.raises(ParameterError):
            build_catalog_entry("nope")


class TestCorrections:
    """The shipped variants pass the transform identity; the verbatim
    transcriptions fail it by more than 1e-2 (documenting, not hiding)."""

    def test_corrections_documented(self):
        assert set(CORRECTIONS) == {"brownian", "cramer_lundberg", "fixed_jumps"}

    @staticmethod
    def _identity_err(fn, psi_fn, q, theta, upper, kinks=()):
        val, _ = quad(lambda x: math.exp(-theta * x) * fn(x), 0.0, upper,
                      limit=800, points=list(kinks) or None)
        target = 1.0 / (psi_fn(theta) - q)
        return abs(val - target) / abs(target)

    def test_brownian_verbatim_fails(self):
        sigma, mu, q = 1.0, 0.5, 1.0
        s2 = sigma ** 2

        def psi(th):
            return 0.5 * s2 * th * th + mu * th

        def verbatim(x):   # sqrt(2 q sigma^2 + mu): dimensionally inconsistent
            rt = math.sqrt(2.0 * q * s2 + mu)
            return 2.0 / rt * math.exp(-mu * x / s2) * math.sinh(x * rt / s2)

        shipped = w_brownian(sigma, mu, q)
        theta = shipped.phi_q + 1.0
        assert self._identity_err(shipped.eval, psi, q, theta, 80.0) <= 1e-6
        assert self._identity_err(verbatim, psi, q, theta, 80.0) >= 1e-2

    def test_cramer_lundberg_verbatim_fails(self):
        c, lam, mu = 2.0, 1.0, 1.0

        def psi(th):
            return c * th - lam * th / (mu + th)

        def verbatim(x):   # growing exponent
            return (1.0 + lam / (c * mu - lam)
                    * (1.0 - math.exp((mu - lam / c) * x))) / c

        shipped = w_cramer_lundberg(c, lam, mu)
        assert self._identity_err(shipped.eval, psi, 0.0, 1.0, 90.0) <= 1e-6
        assert self._identity_err(verbatim, psi, 0.0, 1.0, 90.0) >= 1e-2

    def test_fixed_jumps_verbatim_fails(self):
        c, lam, jump = 1.0, 0.5, 1.0

        def psi(th):
            return c * th - lam * (1.0 - math.exp(-jump * th))

        def verbatim(x):   # sum starting at n = 1 vanishes on [0, jump)
            nmax = int(math.floor(x / jump + 1e-12))
            tot = 0.0
            for n in range(1, nmax + 1):
                u = jump * n - x
                tot += math.exp(-lam * u / c) * (lam * u / c) ** n / math.factorial(n)
            return tot / c

        shipped = w_fixed_jumps(c, lam, jump)
        kinks = tuple(np.arange(1.0, 46.0))
        assert self._identity_err(shipped.eval, psi, 0.0, 1.0, 45.0, kinks) <= 1e-6
        assert self._identity_err(verbatim, psi, 0.0, 1.0, 45.0, kinks) >= 1e-2

# mpmath exponents of each family at its parameters, the reference for psi' and psi'(0+)
def _mp_exponent(family, p):
    import mpmath as mp

    return {
        "brownian": lambda t: p["sigma"] ** 2 * t * t / 2 + p["mu"] * t,
        "stable": lambda t: t ** p["beta"],
        "stable_drift": lambda t: t ** p["beta"] + p["c"] * t,
        "cramer_lundberg": lambda t: p["ccoef"] * t - p["lam"] * t / (p["mu"] + t),
        "fixed_jumps": lambda t: p["ccoef"] * t - p["lam"] * (1 - mp.exp(-p["jump"] * t)),
        "abate_whitt": lambda t: t - p["lam"] * t / ((p["mu"] + mp.sqrt(t)) * (1 + mp.sqrt(t))),
        "pssmp_drift_down": lambda t: mp.gamma(t - 1 + p["beta"]) * mp.rgamma(t - 1)
        / mp.gamma(p["beta"]),
        "pssmp_conditioned": lambda t: mp.gamma(t + p["beta"]) * mp.rgamma(t)
        / mp.gamma(p["beta"]),
    }[family]


@pytest.mark.parametrize("family", catalog_families())
def test_exponent_derivative_against_mpmath(family):
    # psi' in closed form on both sides of t = 0 for the pssmp families, and psi'(0+)
    import mpmath as mp

    entry = build_catalog_entry(family)
    f = _mp_exponent(family, entry.params)
    with mp.workdps(60):
        for th in (0.05, 0.25, 0.5, 1.0, 1.5, 3.0, 20.0):
            ref = float(mp.diff(f, th))
            assert entry.scale.psi.deriv(th) == pytest.approx(ref, rel=1e-12)
        ref0 = float(mp.diff(f, 0, direction=1, h=mp.mpf("1e-45")))
    assert entry.scale.psi.drift_at_zero == pytest.approx(ref0, rel=1e-12, abs=1e-12)
    assert entry.scale.psi.deriv(0.0) == pytest.approx(ref0, rel=1e-12, abs=1e-12)
