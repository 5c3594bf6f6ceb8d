"""Special-function tests against frozen high-precision oracles and identities."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from scalekit.errors import ConditioningError, ParameterError, SaturationError
from scalekit.special import (erfc_c, erfcx_scaled, fransen_transform,
                              mittag_leffler, mittag_leffler_deriv, reg_lower_gamma,
                              upper_gamma)
from scalekit import special
from scalekit.special import _beyond_series, _series_block, _series_table


def _mp_series(a, bp, g, z):
    """E^g_{a,bp}(z) = sum_k (g)_k/k! z^k/Gamma(a k + bp) by its power series in mpmath.

    The largest term is about e^{|z|^{1/a}}, and the digits are enough for that
    cancellation.  The gamma argument is formed in working precision, since double
    rounding of a k + bp is amplified by the cancellation; when a m = 1 exactly for
    an integer m, the reciprocal gammas come from 1/Gamma(x + 1) = (1/Gamma(x))/x,
    m terms back.  The sum stops past k = max(8, |z|^{1/a}) once a term is below
    10^-dps of it.
    """
    import mpmath as mp

    need = abs(z) ** (1.0 / a)
    m = round(1.0 / a)
    with mp.workdps(int(30 + 0.45 * need)):
        zz, aa, bb = mp.mpc(z), mp.mpf(a), mp.mpf(bp)
        step = m if aa * m == 1 else 0
        tol = mp.mpf(10) ** -mp.mp.dps
        total, power, coeff, rg, k = mp.mpc(0), mp.mpc(1), mp.mpf(1), [], 0
        while True:
            rg.append(rg[k - step] / (aa * (k - step) + bb) if step and k >= step
                      else mp.rgamma(aa * k + bb))
            term = coeff * power * rg[k]
            total += term
            if k > max(8, need) and abs(term) < tol * abs(total):
                return complex(total)
            power *= zz
            coeff = coeff * (g + k) / (k + 1)
            k += 1


# frozen oracle values (mpmath series / quadrature at >= 40 digits)
E_HALF_HALF_AT_1 = 5.5731696643100397533        # E_{1/2,1/2}(1), 400-term series
E2D_HALF_HALF_AT_07 = 18.62261803341628579      # d^2/dz^2 E_{1/2,1/2} at z=0.7
ERFC_1 = 0.15729920705028513066
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
            mittag_leffler_deriv(0.0, 1.0, 1, 1.0)
        with pytest.raises(ParameterError):
            mittag_leffler_deriv(0.5, 1.0, -1, 1.0)

    @pytest.mark.parametrize("z", [math.nan, complex(0.0, math.nan),
                                   np.array([0.5, math.nan, 2.0]),
                                   np.array([[1.0, 2.0], [3.0, complex(math.nan, 1.0)]])],
                             ids=["scalar", "complex_scalar", "array", "array_2d"])
    @pytest.mark.parametrize("a", [0.5, 1.5])
    def test_nan_argument_is_typed(self, a, z):
        with pytest.raises(ParameterError, match="NaN"):
            mittag_leffler(a, 1.0, z)
        with pytest.raises(ParameterError, match="NaN"):
            mittag_leffler_deriv(a, 1.0, 1, z)

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

    def test_rows_past_double_range_leave_the_series(self):
        # E_{1/2,1}(u) = e^{u^2} erfc(-u): for u^2 in (650, 705) the largest series term
        # overflows double, so those rows leave the block and the contour takes them, while
        # the rows below stay on the series
        us = np.array([1.0, 25.4, 25.6, 26.0, 26.5, 26.55])
        _, ok = _series_block(0.5, 1.0, 1, us.astype(complex))
        assert ok.tolist() == [True, True, False, False, False, False]
        got = mittag_leffler(0.5, 1.0, us)
        ref = erfcx_scaled(us)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
        assert [mittag_leffler(0.5, 1.0, u) for u in us] == got.tolist()

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


class TestIndexLowering:
    """b > a + 1 at |z| > 2: E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a))/z, until b < a + 1."""

    ZS = [-3.0, -10.0, -40.0, 3j, 12j, -12 + 5j, 8.0, 20.0, 6 + 6j, -6 - 6j]

    @pytest.mark.parametrize("a,b", [(0.5, 2.0), (0.7, 1.9), (0.8, 3.0), (0.9, 2.5),
                                     (1.0, 2.2)])
    def test_matches_mpmath_series(self, a, b):
        zs = np.array(self.ZS, dtype=complex)
        block = mittag_leffler(a, b, zs)
        assert np.array_equal(block, [mittag_leffler(a, b, z) for z in self.ZS])
        for z, got in zip(self.ZS, block):
            ref = _mp_series(a, b, 1, complex(z))
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), z


# contour-only arguments (|z| > 5, off the positive axis) for a = 1/2: the first
# ray has a pole on the principal sheet, the second none
CONTOUR_Z = np.concatenate([np.linspace(5.5, 12.0, 32) * np.exp(0.4j),
                            np.linspace(5.5, 20.0, 32) * np.exp(2.5j)])


def _series_ok(a, bp, g, z):
    return np.concatenate([np.zeros(0, dtype=bool)] + [_series_block(a, bp, g, z[i:i + 64])[1]
                                                      for i in range(0, z.size, 64)])


class TestRowIndependence:
    """A point's value is the same whatever other points share its call."""

    @pytest.mark.parametrize("a,b,j,z", [
        (1.0 / math.pi, 1.0 / math.pi, 0, np.linspace(0.1, 1.8, 300)),
        (0.25, 0.25, 0, -np.linspace(0.1, 4.9, 300) * np.exp(0.3j)),
        (0.25, 1.0, 1, -np.linspace(0.1, 4.9, 300) * np.exp(0.3j)),
        (0.5, 0.5, 1, CONTOUR_Z),
    ], ids=["series-real", "series-rotated", "series-deriv", "contour"])
    def test_block_equals_one_point_calls(self, a, b, j, z):
        block = mittag_leffler_deriv(a, b, j, z)
        one = np.array([mittag_leffler_deriv(a, b, j, x) for x in z.tolist()])
        assert np.array_equal(block, one)

    def test_contour_mixed_node_counts(self):
        # pole rows at many levels get contours of many N (and residues) in one block
        z = np.concatenate([np.linspace(0.5, 12.0, 40) * np.exp(1j * t) for t in (0.1, 0.5, 1.4)])
        block = special._contour_block(0.5, 1.0, 2, z)
        assert np.array_equal(block, [special._contour_block(0.5, 1.0, 2, z[i:i + 1])[0]
                                      for i in range(z.size)])
        for x, got in zip(z[::7], block[::7]):
            ref = _mp_series(0.5, 1.0, 2, complex(x))
            assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref))


class TestPrescreen:
    @pytest.mark.parametrize("a", [0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_diverts_only_rows_the_guard_rejects(self, a, j):
        r = np.linspace(0.02, 5.0, 60)
        z = (r[:, None] * np.exp(1j * np.linspace(-math.pi, math.pi, 91))).ravel()
        far = _beyond_series(a, z)
        assert far.any() == (a <= 0.5)   # inside the disc only small a is far past the guard
        for b in (a, 1.0):
            bp = a * j + b
            assert not _series_ok(a, bp, j + 1, z[far]).any()
            # the rows the series accepts keep the series' own values
            near = z[~far]
            vals, ok = _series_block(a, bp, j + 1, near[:64])
            assert np.array_equal(special._ml_block(a, bp, j + 1, near[:64])[ok], vals[ok])


class TestContourBlock:
    """A row that fails the contour self-check, or finds no contour, is refused, not replaced."""

    def test_self_check_failure_refuses_alone(self, monkeypatch):
        a, bp = 0.5, 0.5
        clean = special._contour_block(a, bp, 1, CONTOUR_Z)
        real = special._contour_sums

        def spoiled(a, bp, g, z, mu, h, N):
            val, val2 = real(a, bp, g, z, mu, h, N)
            val[z == CONTOUR_Z[40]] += 1.0   # the coarse sum of one row disagrees
            return val, val2

        monkeypatch.setattr(special, "_contour_sums", spoiled)
        with pytest.raises(ConditioningError, match="disagree") as exc:
            special._contour_block(a, bp, 1, CONTOUR_Z)
        assert f"z = {complex(CONTOUR_Z[40])!r}:" in str(exc.value)
        rest = np.arange(CONTOUR_Z.size) != 40
        assert np.array_equal(special._contour_block(a, bp, 1, CONTOUR_Z[rest]), clean[rest])

    def test_no_admissible_contour_refuses_alone(self, monkeypatch):
        a, bp = 0.5, 0.5
        clean = special._contour_block(a, bp, 1, CONTOUR_Z)
        real = special._contours
        target = []

        def refusing(phi, q, p0):
            prm, inner = real(phi, q, p0)
            if not target:
                target.append(phi[0])   # the level of the first pole row, CONTOUR_Z[0]
            off = phi == target[0]
            prm[:, off], inner[off] = 0.0, False
            return prm, inner

        monkeypatch.setattr(special, "_contours", refusing)
        with pytest.raises(ConditioningError, match="no admissible contour") as exc:
            special._contour_block(a, bp, 1, CONTOUR_Z)
        assert f"z = {complex(CONTOUR_Z[0])!r}:" in str(exc.value)
        assert np.array_equal(special._contour_block(a, bp, 1, CONTOUR_Z[1:]), clean[1:])

    def test_one_array_pass_per_call(self, monkeypatch):
        sums = []
        real = special._contour_sums

        def counted(a, bp, g, z, mu, h, N):
            sums.append(z.size)
            return real(a, bp, g, z, mu, h, N)

        monkeypatch.setattr(special, "_contour_sums", counted)
        mittag_leffler(0.5, 0.5, CONTOUR_Z)
        assert sums == [64]


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

    @pytest.mark.parametrize("a", [1e-6, 0.3, 1.0, 2.5, 7.0, 60.0, 400.0, 1e4])
    def test_against_mpmath(self, a):
        # fixed x and the transition band x = a + k sqrt(a), where P is above 1e-100
        import mpmath as mp

        xs = [1e-8, 1e-3, 0.1, 1.0, 5.0, 30.0, 500.0] + \
            [a + k * math.sqrt(a) for k in range(-6, 7) if a + k * math.sqrt(a) > 0]
        with mp.workdps(40):
            for x in xs:
                ref = mp.gammainc(a, 0, x, regularized=True) if x < a else \
                    1 - mp.gammainc(a, x, mp.inf, regularized=True)
                if ref > mp.mpf("1e-100"):
                    assert reg_lower_gamma(a, x) == pytest.approx(float(ref), rel=1e-12)

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

    @pytest.mark.parametrize("s", [0.0, -1.0, -2.0, -0.5, 0.5, 2.0])
    def test_upper_gamma_against_mpmath(self, s):
        # integer s <= 0 is y^s E_{1-s}(y); Gamma(0, 1) = E_1(1) = 0.2194
        import mpmath as mp

        for y in (0.02, 0.5, 1.0, 3.0, 30.0):
            got = upper_gamma(s, y)
            assert math.isfinite(got)
            assert got == pytest.approx(float(mp.gammainc(s, y, mp.inf)), rel=1e-12)


class TestFransenTransform:
    def test_monotone_decreasing(self):
        vals = [fransen_transform(t) for t in (0.0, 0.5, 1.0, 2.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_refinement_stability(self):
        # against 30-digit mpmath quadrature; -3 and -6 are arguments the gamma ladder samples
        import mpmath as mp

        for theta in (0.0, 0.5, 2.0, 100.0, -3.0, -6.0):
            peak = math.exp(-theta)     # the integrand peaks near x = e^{-theta} for theta < 0
            knots = [0, 1, 3, 8, 20, 60] + ([peak - 30 * peak ** 0.5 - 50, peak,
                                             peak + 30 * peak ** 0.5 + 50] if theta < 0 else [])
            with mp.workdps(30):
                th = mp.mpf(theta)
                ref = mp.quad(lambda x: mp.exp(-th * x) * mp.rgamma(x),
                              sorted(k for k in set(knots) if k >= 0) + [mp.inf])
            assert fransen_transform(theta) == pytest.approx(float(ref), rel=1e-8), theta
        assert fransen_transform(0.0) == pytest.approx(2.8077702420285193652, rel=1e-9)

    def test_value_at_one(self):
        assert fransen_transform(1.0) == pytest.approx(0.6198584141447734496, rel=1e-9)

    def test_saturation_guard(self):
        with pytest.raises(SaturationError):
            fransen_transform(-7.0)
        with pytest.raises(SaturationError):
            fransen_transform(-6.4501)
        assert math.isfinite(fransen_transform(-6.45))

    def test_against_adaptive_quad(self):
        # the array-pass Gauss-Kronrod bisection against QUADPACK on the same knot panels
        from scipy.integrate import quad

        def by_quad(theta):
            def integrand(x):
                e = -theta * x - sps.gammaln(x)
                return math.exp(e) if x > 0.0 and e > -745.0 else 0.0

            if theta >= 0:
                knots = [0.0, 0.5, 1.5, 3.0, 8.0, 20.0, 60.0, 171.0]
            else:
                peak = math.exp(-theta)
                half = 30.0 * math.sqrt(peak) + 50.0
                knots = sorted({0.0, 0.5, 1.5, 3.0, 8.0, 20.0, max(20.0, peak - half), peak,
                                peak + half})
            scale = max(integrand(x) for x in [0.5, 1.5, 2.5] + knots[1:])
            return sum(quad(integrand, lo, hi, limit=200, epsabs=scale * 1e-12,
                            epsrel=1e-12)[0] for lo, hi in zip(knots[:-1], knots[1:]) if hi > lo)

        thetas = np.r_[np.linspace(-6.45, 0.0, 60), np.geomspace(1e-3, 1000.0, 60)]
        for theta in thetas:
            ref = by_quad(float(theta))
            assert abs(fransen_transform(float(theta)) - ref) <= 1e-12 * ref, theta

    def test_gamma_ladder_interpolant(self):
        # the alpha = 0 route interpolates h(t) = e^{-e^{-t}} F(t) once per process;
        # W'(x) = h(t)/(c x) at t = -log(gamma x) shows it between its nodes
        from scalekit.gtsc import w_gamma_case

        c, gamma = 1.3, 0.7
        ts = np.concatenate([np.linspace(-6.4, 23.9, 37), [24.5, 31.0, 77.0, 300.0, 700.0]])
        xs = np.exp(-ts) / gamma
        got = c * xs * w_gamma_case(c, gamma).eval_deriv(xs) * np.exp(gamma * xs)
        for x, g in zip(xs, got):
            assert g == pytest.approx(fransen_transform(-math.log(gamma * x)), rel=1e-12)
