"""Polynomial construction, root classification and partial fractions."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from scalekit import polyfrac
from scalekit.cli import CASES
from scalekit.errors import CapabilityError, NumericalError, ParameterError
from scalekit.gtsc import GtscParams, ig_params, scale_function
from scalekit.levy import big_phi
from scalekit.polyfrac import (RationalAlpha, build_fq, partial_fractions,
                               roots_with_multiplicity)

ORACLE_ALPHAS = [Fraction(f) for f in ("1/2", "-1/2", "1/3", "-1/3", "2/3", "-2/3", "1/4",
                                       "-3/4", "1/5", "5/7", "-5/12", "7/12", "11/12")]


class TestRationalAlpha:
    def test_validation(self):
        RationalAlpha(1, 2)
        RationalAlpha(-1, 2)
        with pytest.raises(ParameterError):
            RationalAlpha(2, 2)
        with pytest.raises(ParameterError):
            RationalAlpha(2, 4)
        with pytest.raises(ParameterError):
            RationalAlpha(0, 3)

    def test_signs(self):
        a = RationalAlpha(-2, 3)
        assert (a.m_plus, a.m_minus) == (0, 2)
        b = RationalAlpha(2, 3)
        assert (b.m_plus, b.m_minus) == (2, 0)


class TestBuildFq:
    def test_identity_and_root_structure_alpha_half(self):
        # kappa=varphi=zeta=0, c=gamma=1, q=0: the identity
        # f_0(z) = psi(z^2-1) forces 2*sqrt(pi)*(z-1)^2*(z+1)
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0)
        fq = build_fq(params, RationalAlpha(1, 2), 0.0)
        ref = 2.0 * math.sqrt(math.pi) * np.array([1.0, -1.0, -1.0, 1.0])
        assert np.allclose(fq, ref, rtol=1e-12)
        roots, mults = roots_with_multiplicity(fq)
        assert sorted(mults) == [1, 2]
        assert roots[0].real == pytest.approx(1.0, abs=1e-9)

    def test_degree_vs_zeta(self):
        # IG-style family: degree 4 when zeta > 0, degree 3 when zeta = 0
        p0 = ig_params(1.0, 1.0)
        assert build_fq(p0, RationalAlpha(1, 2), 0.5).size - 1 == 3
        p1 = GtscParams(alpha=0.5, gamma=0.5, c=p0.c, zeta=1.0)
        assert build_fq(p1, RationalAlpha(1, 2), 0.5).size - 1 == 4

    def test_simple_root_at_gamma_root(self):
        # q=0, varphi=0, kappa>0: z = gamma^{1/n} is a simple root
        params = GtscParams(alpha=0.5, gamma=1.3, c=1.0, kappa=0.7)
        fq = build_fq(params, RationalAlpha(1, 2), 0.0)
        roots, mults = roots_with_multiplicity(fq)
        assert roots[0].real == pytest.approx(1.3 ** 0.5, rel=1e-10)
        assert mults[0] == 1

    def test_identity_at_sampled_points(self):
        params = GtscParams(alpha=-0.5, gamma=1.0, c=1.0, kappa=0.5, zeta=0.7)
        ra = RationalAlpha(-1, 2)
        q = 0.8
        fq = build_fq(params, ra, q)
        psi = params.exponent()
        for z in (0.5, 1.3, 2.0):
            lhs = npoly.polyval(z, fq)
            rhs = z ** ra.m_minus * (float(np.real(psi.eval(z ** ra.n - params.gamma))) - q)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_negative_q_rejected(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0)
        with pytest.raises(ParameterError):
            build_fq(params, RationalAlpha(1, 2), -1.0)


class TestRoots:
    def test_triple_root(self):
        roots, mults = roots_with_multiplicity([-1.0, 3.0, -3.0, 1.0])
        assert list(mults) == [3]
        assert roots[0].real == pytest.approx(1.0, abs=1e-10)

    def test_ig_structure_against_threshold(self):
        # three simple real roots below q0, one real plus a conjugate pair above
        q0 = 16.0 / 27.0
        p = ig_params(1.0, 1.0)
        below, _ = roots_with_multiplicity(build_fq(p, RationalAlpha(1, 2), 0.9 * q0))
        assert sum(1 for r in below if r.imag == 0.0) == 3
        above, _ = roots_with_multiplicity(build_fq(p, RationalAlpha(1, 2), 1.1 * q0))
        reals = [r for r in above if r.imag == 0.0]
        cplx = [r for r in above if r.imag != 0.0]
        assert len(reals) == 1 and len(cplx) == 2
        assert cplx[0].real == pytest.approx(cplx[1].real)
        assert cplx[0].imag == pytest.approx(-cplx[1].imag)

    def test_ig_double_root_at_q0(self):
        q0 = 16.0 / 27.0
        p = ig_params(1.0, 1.0)
        roots, mults = roots_with_multiplicity(build_fq(p, RationalAlpha(1, 2), q0))
        assert sorted(mults) == [1, 2]
        double = roots[list(mults).index(2)]
        assert double.real == pytest.approx(-1.0 / (3.0 * math.sqrt(2.0)), rel=1e-7)

    def test_no_real_root_error(self):
        with pytest.raises(NumericalError):
            roots_with_multiplicity([1.0, 0.0, 1.0])   # z^2 + 1

    def test_residual_bound(self):
        p = ig_params(1.0, 1.0)
        fq = build_fq(p, RationalAlpha(1, 2), 0.3)
        roots, mults = roots_with_multiplicity(fq)
        lead = abs(fq[-1])
        deg = fq.size - 1
        for r, mu in zip(roots, mults):
            res = abs(npoly.polyval(r, fq.astype(complex)))
            assert res <= 1e-8 * (1.0 + lead * max(1.0, abs(r)) ** deg)

    def test_conjugate_closure(self):
        # real coefficients: every complex root has its exact conjugate, of the same
        # multiplicity, and a real root has an imaginary part of exactly 0
        polys = [build_fq(ig_params(1.0, 1.0), RationalAlpha(1, 2), q)
                 for q in (0.3, 16.0 / 27.0, 2.0)]
        polys += [build_fq(case.params(float(a)), RationalAlpha(a.numerator, a.denominator), q)
                  for case in CASES.values() for a in ORACLE_ALPHAS for q in (0.0, 1.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for fq in polys:
                roots, mults = roots_with_multiplicity(fq)
                assert sorted(zip(roots.real, roots.imag, mults)) \
                    == sorted(zip(roots.real, -roots.imag, mults))
                near = np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots))
                assert (roots.imag[near] == 0.0).all(), roots
        # the IG cubic above q0: one real root and one conjugate pair
        roots, _ = roots_with_multiplicity(polys[2])
        assert (roots.imag == 0.0).sum() == 1 and roots[1] == np.conj(roots[2])

    def test_non_real_coefficient_refused(self):
        # f_q is real; a complex dtype is accepted only with all imaginary parts zero
        with pytest.raises(ParameterError, match="real"):
            roots_with_multiplicity([-1.0, 1e-3j, 1.0])
        with pytest.raises(ParameterError, match="real"):
            partial_fractions(np.array([-1.0, 0.0, 1.0 + 1e-300j]), 0)


def _mp_polish(coeffs, z0, mu):
    """Reference: scalar 50-digit Newton on the (mu-1)-th derivative from one cluster center."""
    work = coeffs
    for _ in range(mu - 1):
        work = npoly.polyder(work)
    cs = [mp.mpc(c) for c in work]
    dcs = [mp.mpc(c) for c in npoly.polyder(work)]
    with mp.workdps(50):
        z = mp.mpc(z0)
        for _ in range(40):
            fp = mp.polyval(dcs[::-1], z)
            if fp == 0:
                break
            step = mp.polyval(cs[::-1], z) / fp
            z -= step
            if abs(step) < mp.mpf("1e-35") * (1 + abs(z)):
                break
        return complex(z)


class TestPolish:
    """The long-double Newton pass against the 50-digit reference, center by center."""

    @staticmethod
    def _polished(monkeypatch, polys) -> list:
        """(coeffs, centers, mults, polished) of the accepted clustering of each polynomial.

        A cluster radius the validation rejects can leave a multiple root split into
        simple ones, where Newton converges only linearly; the last polish is the one
        whose roots come back.
        """
        calls, polish = [], polyfrac._polish_centers

        def record(coeffs, z0, mults):
            out = polish(coeffs, z0, mults)
            calls[-1] = (coeffs, z0, mults, out)
            return out

        monkeypatch.setattr(polyfrac, "_polish_centers", record)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for poly in polys:
                calls.append(None)
                roots_with_multiplicity(poly)
        return calls

    def _assert_within_spacing(self, calls):
        for coeffs, z0, mults, out in calls:
            for z, mu, got in zip(z0, mults, out):
                ref = _mp_polish(coeffs, z, int(mu))
                assert abs(got - ref) <= np.spacing(abs(ref)), (coeffs, z, mu)

    def test_case_grid(self, monkeypatch):
        polys = [build_fq(case.params(float(a)), RationalAlpha(a.numerator, a.denominator), q)
                 for case in CASES.values() for a in ORACLE_ALPHAS for q in (0.0, 1.0)]
        calls = self._polished(monkeypatch, polys)
        assert sum(c[1].size for c in calls) >= 1500
        self._assert_within_spacing(calls)

    def test_multiple_roots(self, monkeypatch):
        # the IG double root at q0 = 16/27 and a planted triple root
        polys = [build_fq(ig_params(1.0, 1.0), RationalAlpha(1, 2), 16.0 / 27.0),
                 npoly.polyfromroots([0.7, 0.7, 0.7, -1.2, 2.5])]
        calls = self._polished(monkeypatch, polys)
        assert {2, 3} <= {int(mu) for c in calls for mu in c[2]}
        self._assert_within_spacing(calls)

    def test_short_long_double_refused(self, monkeypatch):
        # a long double without x87's 64-bit mantissa would lose digits silently
        monkeypatch.setattr(polyfrac, "_LONG_DOUBLE_NMANT", 52)
        with pytest.raises(CapabilityError, match="nmant"):
            partial_fractions([-1.0, 0.0, 1.0], 0)
        with pytest.raises(CapabilityError, match="nmant"):
            scale_function(GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=1.0), 0.0, "rational")


class TestPartialFractions:
    def test_simple_pair(self):
        pf = partial_fractions([-1.0, 0.0, 1.0], 0)
        got = {complex(r): complex(c[0]) for r, c in zip(pf.roots, pf.coeffs)}
        assert got[1.0 + 0.0j] == pytest.approx(0.5)
        assert got[-1.0 + 0.0j] == pytest.approx(-0.5)

    def test_ig_simple_root_weights(self):
        # simple-root shortcut A_k0 = r_k^{m_-}/f_q'(r_k)
        fq = build_fq(ig_params(1.0, 1.0), RationalAlpha(1, 2), 0.3)
        pf = partial_fractions(fq, 0)
        der = npoly.polyder(fq.astype(complex))
        for r, row in zip(pf.roots, pf.coeffs):
            assert complex(row[0]) == pytest.approx(1.0 / complex(npoly.polyval(r, der)),
                                                    rel=1e-10)

    @given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           st.floats(-1.5, 1.5), st.floats(0.3, 1.8))
    @example(simple=[-0.4180119890341989, 1.0625, 0.0], double=-0.805209268363495,
             spread=0.8554751967808623)   # a simple root 0.05 from the double one
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_with_double_root(self, simple, double, spread):
        # random degree-5 polynomial with a planted double root
        roots = [double, double, simple[0], simple[1] + spread, simple[2] - spread]
        distinct = sorted(set(roots))
        if len(distinct) < 4 or min(b - a for a, b in zip(distinct, distinct[1:])) < 0.05:
            return  # distinct roots too close to classify; not the target case
        poly = npoly.polyfromroots(roots)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pf = partial_fractions(poly, 2)
        except NumericalError:
            # a typed refusal (ConditioningError is one) where a tiny planted root
            # underflows f's low coefficients or the set is ill-conditioned
            return
        rng = np.random.default_rng(99)
        for _ in range(32):
            z = 3.5 * np.exp(1j * rng.uniform(0, 2 * math.pi))
            direct = z ** 2 / npoly.polyval(z, poly.astype(complex))
            got = pf.reconstruct(z)
            assert np.isfinite(got)
            assert abs(got - direct) <= 1e-9 * (1.0 + abs(direct))

    @pytest.mark.parametrize("roots", [
        [-0.805209268363495, -0.805209268363495, -0.4180119890341989, 1.9179751967808623,
         -0.8554751967808623],
        [-1.0204352196747701, -1.0204352196747701, -1.0734658226449714, -0.785953107387358,
         -2.262223398833358],
    ])
    def test_double_root_next_to_simple_root(self, roots):
        # the rounded polynomial splits the double root; its cluster coefficients carry the
        # split's first-order term and the close simple root's residue uses an exact f'
        poly = npoly.polyfromroots(roots)
        pf = partial_fractions(poly, 2)
        assert list(pf.multiplicities).count(2) == 1
        z = 3.5 * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False))
        direct = z ** 2 / npoly.polyval(z, poly.astype(complex))
        assert (np.abs(pf.reconstruct(z) - direct) <= 1e-10 * (1.0 + np.abs(direct))).all()

    def test_arrays_read_only_and_zero_padded(self):
        # a double root and a simple one: one coefficient row per root, padded with zeros
        poly = npoly.polyfromroots([1.0, 1.0, -2.0])
        pf = partial_fractions(poly, 0)
        assert pf.coeffs.shape == (2, 2)
        assert list(pf.multiplicities) == [2, 1]
        assert pf.coeffs[1, 1] == 0.0
        for arr in (pf.roots, pf.multiplicities, pf.coeffs):
            with pytest.raises(ValueError):
                arr[0] = 0
        zs = 3.0 * np.exp(1j * np.linspace(0.0, 6.0, 7))
        direct = zs ** 0 / npoly.polyval(zs, poly)
        assert np.allclose(pf.reconstruct(zs), direct, rtol=1e-12, atol=0.0)
        assert [pf.reconstruct(z) for z in zs] == list(pf.reconstruct(zs))

    def test_phi_consistency(self):
        # r_1^n - gamma equals big_phi(psi, q)
        for q in (0.0, 0.5, 2.0):
            for kappa, varphi, zeta in ((0, 0, 0), (1, 0, 0), (0, 1, 1)):
                params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, zeta=zeta,
                                    kappa=kappa, varphi=varphi)
                fq = build_fq(params, RationalAlpha(1, 2), q)
                roots, _ = roots_with_multiplicity(fq)
                phi = big_phi(params.exponent(), q)
                assert roots[0].real ** 2 - params.gamma == pytest.approx(
                    phi, rel=1e-8, abs=1e-8)
