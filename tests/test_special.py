"""Special-function tests against frozen high-precision oracles and identities."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from scalekit.errors import ParameterError, SaturationError
from scalekit.special import (MLParams, erfc_c, erfcx_scaled, eta,
                              fransen_transform, mittag_leffler,
                              mittag_leffler_deriv, reg_lower_gamma, upper_gamma)
from scalekit.special import (_lower_gamma_series, _mp_series, _series_block,
                              _series_table, _upper_gamma_cf)

# frozen oracle values (mpmath series / quadrature at >= 40 digits)
E_HALF_HALF_AT_1 = 5.5731696643100397533        # E_{1/2,1/2}(1), 400-term series
E2D_HALF_HALF_AT_07 = 18.62261803341628579      # d^2/dz^2 E_{1/2,1/2} at z=0.7
ERFC_1 = 0.15729920705028513066
E_TIMES_ERFC_1 = 0.42758357615580700441
P_HALF_1 = 0.84270079294971486934
E_DEEP_CANCEL = complex(-103.870598410103577, -29.5735726873833711)
# ^ E_{1/3,1/3}(6 e^{i pi/6}): the series cancels through ~92 digits here


class TestMittagLeffler:
    def test_exp_identity_grid(self):
        # E_{1,1} = exp to 1e-12 on |z| <= 20
        for r in (0.1, 1.0, 5.0, 12.0, 20.0):
            for ang in (0.0, 0.7, 2.2, math.pi):
                z = r * cmath.exp(1j * ang)
                got = mittag_leffler(1.0, 1.0, z)
                assert abs(got - cmath.exp(z)) <= 1e-12 * abs(cmath.exp(z))

    def test_cosh_identity_grid(self):
        # E_{2,1}(z) = cosh(sqrt(z))
        for r in (0.3, 2.0, 9.0, 20.0):
            for ang in (0.0, 1.1, math.pi):
                z = r * cmath.exp(1j * ang)
                ref = cmath.cosh(cmath.sqrt(z))
                got = mittag_leffler(2.0, 1.0, z)
                assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))

    def test_half_half_value(self):
        got = mittag_leffler(0.5, 0.5, 1.0)
        assert got.real == pytest.approx(E_HALF_HALF_AT_1, rel=1e-11)
        assert got.imag == 0.0

    def test_wofz_identity(self):
        # E_{1/2,1}(z) = e^{z^2} erfc(-z)
        for z in (0.5, 3.0, -4.0, 2.0 + 1.5j, -3.0 + 6.0j):
            ref = cmath.exp(z * z) * erfc_c(-z)
            got = mittag_leffler(0.5, 1.0, z)
            assert abs(got - ref) <= 1e-11 * (1.0 + abs(ref))

    def test_deep_cancellation_point(self):
        z = 6.0 * cmath.exp(1j * math.pi / 6.0)
        got = mittag_leffler(1.0 / 3.0, 1.0 / 3.0, z)
        assert abs(got - E_DEEP_CANCEL) <= 1e-9 * abs(E_DEEP_CANCEL)

    def test_deriv_at_zero(self):
        assert mittag_leffler_deriv(1.0, 1.0, 1, 0.0).real == pytest.approx(1.0, abs=1e-14)
        for beta in (0.4, 0.8, 1.5):
            got = mittag_leffler_deriv(beta, 1.0, 1, 0.0).real
            assert got == pytest.approx(1.0 / math.gamma(1.0 + beta), rel=1e-13)

    def test_second_derivative_oracle(self):
        got = mittag_leffler_deriv(0.5, 0.5, 2, 0.7)
        assert got.real == pytest.approx(E2D_HALF_HALF_AT_07, rel=1e-10)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.25, 1.0), (2.0 / 3.0, 0.5), (1.5, 1.0)])
    def test_deriv_matches_finite_difference(self, a, b):
        h = 1e-5
        for z in (0.3, 1.7, -2.2):
            fd = (mittag_leffler(a, b, z + h) - mittag_leffler(a, b, z - h)) / (2 * h)
            got = mittag_leffler_deriv(a, b, 1, z)
            assert abs(got - fd) <= 1e-6 * (1.0 + abs(fd))

    def test_saturation_error(self):
        with pytest.raises(SaturationError):
            mittag_leffler(0.25, 1.0, 50.0)

    def test_invalid_index(self):
        with pytest.raises(ParameterError):
            mittag_leffler(-0.5, 1.0, 1.0)
        with pytest.raises(ParameterError):
            MLParams(a=0.0, b=1.0)

    def test_transform_pair_normalization(self):
        # quadrature of (1/j!) x^{(j+1)a-1} E^{(j)}_{a,a}(r x^a) e^{-theta x}
        # must equal 1/(theta^a - r)^{j+1}; this pins the tilted-derivative
        # transform-pair normalization used by the scale formula
        from scipy.integrate import quad

        a = 0.5
        for j, r, theta in ((0, 0.7, 2.0), (1, 0.6, 2.5), (2, -0.8, 1.5)):
            def f(x):
                val = mittag_leffler_deriv(a, a, j, r * x ** a).real
                return x ** ((j + 1) * a - 1.0) * val / math.factorial(j) \
                    * math.exp(-theta * x)

            # integrand ~ e^{-(theta - max(r,0)^2) x}: truncate before the
            # bare Mittag-Leffler factor can overflow
            x_hi = 50.0 / (theta - max(r, 0.0) ** 2)
            got, _ = quad(f, 0.0, x_hi, limit=400, points=[1e-6, 0.1])
            ref = 1.0 / (theta ** a - r) ** (j + 1)
            assert got == pytest.approx(ref, rel=1e-8)


# per a: a real z beyond the series radius 5 that the series still accepts
# (none for a = 1/4, where e^{z^4} leaves double range first), and a z inside
# the radius whose series the cancellation guard rejects
FAR_REAL = {0.25: None, 1.0 / 3.0: 5.5, 0.5: 9.0}
GUARD_REJECTED = 2.6 * cmath.exp(2.6j)


class TestBlockSeries:
    @pytest.mark.parametrize("a", [0.25, 1.0 / 3.0, 0.5])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_block_matches_one_point_and_mpmath(self, a, j):
        zs = [0.0, 0.9, 1.2 * cmath.exp(2.0j), -1.5 + 0.6j, GUARD_REJECTED]
        if FAR_REAL[a] is not None:
            zs.append(FAR_REAL[a])
        zs = np.array(zs, dtype=complex)
        bp = a * j + a
        _, ok = _series_block(a, bp, j + 1, zs)
        assert ok[0] and not ok[4]
        if FAR_REAL[a] is not None:
            assert ok[5]
        block = mittag_leffler_deriv(a, a, j, zs)
        assert block.shape == zs.shape
        for z, got in zip(zs, block):
            one = mittag_leffler_deriv(a, a, j, np.array([z]))[0]
            assert abs(got - one) <= 1e-12 * max(1.0, abs(one))
            assert mittag_leffler_deriv(a, a, j, complex(z)) == one
            ref = math.factorial(j) * _mp_series(a, bp, j + 1, complex(z))
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_duplication_above_one(self, j):
        # a > 1: rows the series rejects go through the index-splitting identity
        a, b = 1.5, 1.0
        zs = np.array([-20.0, -9.0 + 3.0j, 2.0], dtype=complex)
        _, ok = _series_block(a, a * j + b, j + 1, zs)
        assert not ok[0]
        block = mittag_leffler_deriv(a, b, j, zs)
        for z, got in zip(zs, block):
            ref = math.factorial(j) * _mp_series(a, a * j + b, j + 1, complex(z))
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))
            one = mittag_leffler_deriv(a, b, j, complex(z))
            assert abs(one - got) <= 1e-12 * max(1.0, abs(got))

    def test_shape_and_real_axis(self):
        zs = np.array([[0.5, -2.0], [1.0 + 1.0j, 3.0]])
        got = mittag_leffler(0.5, 1.0, zs)
        assert got.shape == (2, 2)
        assert got[0, 1].imag == 0.0 and got[1, 1].imag == 0.0
        with pytest.raises(SaturationError):
            mittag_leffler(0.25, 1.0, np.array([1.0, 50.0]))

    def test_coefficient_cache_bounded(self):
        maxsize = _series_table.cache_info().maxsize
        assert maxsize is not None and maxsize <= 256


class TestErfcFamily:
    def test_values(self):
        assert erfc_c(0.0) == pytest.approx(1.0, abs=1e-15)
        assert erfc_c(1.0).real == pytest.approx(ERFC_1, rel=1e-13)

    @given(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_reflection_and_conjugation(self, xr, xi):
        from hypothesis import assume

        # e^{-z^2} governs the magnitude; outside this band the true value
        # overflows double precision and cannot be represented at all
        assume(xi * xi - xr * xr < 600.0)
        z = complex(xr, xi)
        lhs = erfc_c(-z)
        rhs = 2.0 - erfc_c(z)
        assert abs(lhs - rhs) <= 1e-13 * (1.0 + abs(rhs))
        assert abs(erfc_c(z.conjugate()) - erfc_c(z).conjugate()) \
            <= 1e-13 * (1.0 + abs(erfc_c(z)))

    def test_real_reflection_literal(self):
        for x in (0.3, 1.0, 4.0, 20.0):
            assert erfc_c(-x).real == pytest.approx(2.0 - float(sps.erfc(x)), rel=1e-14)

    def test_eta(self):
        assert eta(0.0) == pytest.approx(1.0, abs=1e-15)
        assert eta(1.0) == pytest.approx(E_TIMES_ERFC_1, rel=1e-12)
        x = 1e4
        assert eta(x) == pytest.approx(1.0 / math.sqrt(math.pi * x), rel=1e-2)
        with pytest.raises(ParameterError):
            eta(-1.0)

    def test_erfcx_scaled_matches_definition(self):
        for u in (0.5, -2.0, 1.0 + 1.0j, -0.5 + 3.0j):
            ref = cmath.exp(u * u) * erfc_c(-u)
            assert abs(erfcx_scaled(u) - ref) <= 1e-12 * (1.0 + abs(ref))


class TestIncompleteGamma:
    def test_exponential_case(self):
        for x in (0.1, 1.0, 5.0):
            assert reg_lower_gamma(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-13)

    def test_boundaries(self):
        assert reg_lower_gamma(0.5, 0.0) == 0.0
        assert reg_lower_gamma(0.5, 1e8) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_value(self):
        assert reg_lower_gamma(0.5, 1.0) == pytest.approx(P_HALF_1, rel=1e-12)

    def test_monotone(self):
        xs = np.linspace(0.0, 12.0, 200)
        vals = [reg_lower_gamma(1.7, float(x)) for x in xs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.5, 7.0])
    def test_series_cf_switchover_consistency(self, a):
        # P + Q = 1 where both regional routes are evaluated at the switchover
        x = a + 1.0
        p = _lower_gamma_series(a, x)
        q = _upper_gamma_cf(a, x)
        assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_against_scipy(self):
        for a in (0.3, 1.2, 4.0):
            for x in (0.2, 1.0, 3.7, 9.0):
                assert reg_lower_gamma(a, x) == pytest.approx(
                    float(sps.gammainc(a, x)), rel=1e-12)

    def test_upper_gamma_negative_order(self):
        import mpmath as mp

        for s in (-1.5, -0.5, 0.7):
            for y in (0.02, 0.5, 3.0):
                ref = float(mp.gammainc(s, y, mp.inf))
                assert upper_gamma(s, y) == pytest.approx(ref, rel=1e-11)


class TestFransenTransform:
    def test_monotone_decreasing(self):
        vals = [fransen_transform(t) for t in (0.0, 0.5, 1.0, 2.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_refinement_stability(self):
        f0 = fransen_transform(0.0)
        f0r = fransen_transform(0.0, _refine=True)
        assert abs(f0 - f0r) <= 1e-8 * f0
        # derived value from the quadrature itself (independent dps-40 run)
        assert f0 == pytest.approx(2.8077702420285193652, rel=1e-9)

    def test_value_at_one(self):
        assert fransen_transform(1.0) == pytest.approx(0.6198584141447734496, rel=1e-9)

    def test_saturation_guard(self):
        with pytest.raises(SaturationError):
            fransen_transform(-7.0)
