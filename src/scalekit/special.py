"""Special functions backing the scale-function formulas.

Provides:

* ``mittag_leffler`` / ``mittag_leffler_deriv`` -- two-parameter
  Mittag-Leffler function E_{a,b}(z) and its z-derivatives, for a complex
  argument or an array of them.  A block power series takes every z it can
  (a cancellation guard decides; a pre-screen keeps out the z far past it);
  all other z go together through the inverse Laplace transform
  s^{a*g-b}/(s^a - z)^g on optimal parabolic contours, in one z-by-node pass
  self-checked on a finer step, plus the residue of a pole right of the
  contour.  A z that fails the self-check raises ConditioningError.
* ``erfc_c`` / ``erfcx_scaled`` -- complementary error function for complex
  argument and the scaled combination e^{u^2} erfc(-u) that the
  inverse-Gaussian formulas need in fused form.
* ``reg_lower_gamma`` / ``upper_gamma`` -- regularized lower incomplete gamma
  P(a, x) and upper incomplete Gamma(s, y), from scipy's ``gammainc``,
  ``gammaincc`` and ``expn``.
* ``fransen_transform`` -- the Laplace transform of the reciprocal gamma
  function, int_0^inf exp(-theta*x)/Gamma(x) dx.
* ``_gauss_kronrod`` -- QUADPACK's 10/21 Gauss-Kronrod pair on an array of panels, the
  one quadrature rule: of the q = 0 closed form, this transform, the identity and Z^(q).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as sps

from .errors import (CapabilityError, ConditioningError, NumericalError, ParameterError,
                     SaturationError)

__all__ = [
    "mittag_leffler",
    "mittag_leffler_deriv",
    "erfc_c",
    "erfcx_scaled",
    "reg_lower_gamma",
    "upper_gamma",
    "fransen_transform",
]

_LOG_MACH_EPS = math.log(np.finfo(float).eps)  # about -36.04
_SERIES_ATTEMPT_RADIUS = 5.0   # always try the series inside this disc
_SERIES_FAR = 9.0              # log cancellation past which the series is not tried
_SERIES_GUARD = 1.0e3          # max |term| / |sum| tolerated before rejecting
_SERIES_KMAX = 120_000
_SERIES_CHUNK = 512            # series terms per block pass
_SERIES_ROWS = 64              # arguments per block pass, which bounds its working set
_LOG_TOL = math.log(1e-14)     # contour accuracy target
_N_CAP = 1200                  # max quadrature nodes per contour half


# ---------------------------------------------------------------------------
# power series with cancellation guard
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _series_table(a: float, bp: float, g: int, k0: int):
    """The z-free part of the series terms k0 <= k < k0 + _SERIES_CHUNK.

    Returns (k, log C(k+g-1, k) - log|Gamma(a k + bp)|, sign of Gamma(a k + bp)),
    read-only, so that a block of arguments only adds k log z.
    """
    k = np.arange(k0, k0 + _SERIES_CHUNK, dtype=float)
    x = a * k + bp
    logc = sps.gammaln(k + g) - math.lgamma(g) - sps.gammaln(k + 1) - sps.gammaln(x)
    sgn = sps.gammasgn(x)
    for arr in (k, logc, sgn):
        arr.flags.writeable = False
    return k, logc, sgn


def _beyond_series(a: float, z: np.ndarray) -> np.ndarray:
    """Where the series of E_a at z certainly cancels past the guard.

    With R = |z|^{1/a} the largest term grows like e^R, the sum like
    e^{R cos(arg z / a)} (the pole's residue) or not at all, so their ratio
    is about e^{R (1 - max(cos, 0))} up to a power of R.
    """
    r = np.abs(z) ** (1.0 / a)
    cos = np.cos(np.minimum(np.abs(np.angle(z)) / a, math.pi))
    return r * (1.0 - np.maximum(cos, 0.0)) - np.log(np.maximum(r, 1.0)) > _SERIES_FAR


def _series_block(a: float, bp: float, g: int, z: np.ndarray):
    """Sum_k C(k+g-1, k) z^k / Gamma(a k + bp) on a 1-D array z, with a cancellation guard.

    Returns (values, ok).  ok[i] is False where the series would overflow,
    did not converge within the term budget or lost too many digits to
    cancellation.  Rows that have converged leave the block; the rest go on
    chunk by chunk.  No row's value depends on the other rows.
    """
    total = np.zeros(z.size, dtype=complex)
    ok = z == 0
    total[ok] = sps.rgamma(bp)
    rows = np.flatnonzero(~ok)
    log_az = np.log(np.abs(z[rows]))[:, None]
    arg_z = np.angle(z[rows])[:, None]
    max_log = np.full((rows.size, 1), -np.inf)
    k0 = 0
    while rows.size and k0 < _SERIES_KMAX:
        k, logc, sgn = _series_table(a, bp, g, k0)
        # log |term| = log C(k+g-1,k) + k log|z| - log|Gamma(a k + bp)|
        logt = logc + log_az * k
        top = logt.max(axis=1, keepdims=True)
        fit = top[:, 0] <= 650.0           # otherwise the terms overflow double
        if not fit.all():
            rows, log_az, arg_z, max_log = rows[fit], log_az[fit], arg_z[fit], max_log[fit]
            logt, top = logt[fit], top[fit]
        max_log = np.maximum(max_log, top)
        # a row sums its terms within e^60 of its largest pairwise over 128, 256 or 512
        # columns: numpy halves those widths, so zero columns past its terms change nothing
        own = logt >= max_log - 60.0
        cols = np.flatnonzero(own.any(axis=0))
        if cols.size:
            c = slice(cols[0], cols[-1] + 1)
            mag = np.exp(logt[:, c], out=np.zeros(logt[:, c].shape), where=own[:, c]) * sgn[c]
            phase = arg_z * k[c]
            part = np.zeros((rows.size, 128 << max(0, math.ceil(math.log2(c.stop / 128)))))
            np.multiply(mag, np.cos(phase), out=part[:, c])
            re = part.sum(axis=1)
            np.multiply(mag, np.sin(phase), out=part[:, c])
            total[rows] += re + 1j * part.sum(axis=1)
        # convergence: last terms negligible vs current sum and decreasing
        ref = np.abs(total[rows])
        done = ((ref > 0) & (np.exp(logt[:, -8:]).max(axis=1) < 1e-18 * ref)
                & (logt[:, -1] < logt[:, 0]))
        ok[rows[done]] = max_log[done, 0] - np.log(ref[done]) < math.log(_SERIES_GUARD)
        if done.all():
            break
        keep = ~done
        rows, log_az, arg_z, max_log = rows[keep], log_az[keep], arg_z[keep], max_log[keep]
        k0 += _SERIES_CHUNK
    return total, ok


# ---------------------------------------------------------------------------
# optimal parabolic contour (inverse Laplace transform at t=1), many z at once
# ---------------------------------------------------------------------------

def _param_bounded(phi: np.ndarray, q: int, log_tol: float):
    """Contour (mu, h, N) between the origin (level 0, zero strength) and poles q-fold at phi > 0."""
    fac = 1.01
    f_max = math.exp(log_tol - _LOG_MACH_EPS)
    sq_b = np.minimum(np.sqrt(phi), 2.0 * math.sqrt(log_tol - _LOG_MACH_EPS))
    f_bar = fac + fac / f_max * (f_max - fac)
    sq_bar_b = 2.0 * sq_b / (2.0 + f_bar ** (-1.0 / q))
    log_tol_eff = log_tol - math.log(f_bar)
    w = -(sq_bar_b ** 2) / log_tol_eff
    mu = (sq_bar_b / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol_eff
    return mu, np.full(phi.shape, h), np.maximum(np.ceil(np.sqrt(1.0 - log_tol_eff / mu) / h), 6.0)


def _param_unbounded(phi: np.ndarray, p: float, log_tol: float):
    """Contour (mu, h, N) right of singularities of strength p at phi >= 0; N = 0: none fits."""
    sq_phi = np.sqrt(phi)
    phibar = np.where(phi > 0, phi * 1.01, 0.01)
    moving = np.ones(phi.shape, dtype=bool)
    for _ in range(40):
        sqbar = np.sqrt(phibar)
        le_pt = log_tol / phibar
        N = np.maximum(np.ceil(phibar / math.pi * (1.0 - 1.5 * le_pt
                                                   + np.sqrt(1.0 - 2.0 * le_pt))), 4.0)
        A = math.pi * N / phibar
        sqmu = sqbar * np.abs(4.0 - A) / np.abs(7.0 - np.sqrt(1.0 + 12.0 * A))
        if p < 1e-14:
            break
        f_bar = ((sqbar - sq_phi) / sqmu) ** (-p)
        moving &= ~((1.0 < f_bar) & (f_bar < 10.0))
        if not moving.any():
            break
        phibar = np.where(moving, (5.0 ** (-1.0 / p) * sqmu + sq_phi) ** 2, phibar)
    mu = sqmu ** 2
    h = (-3.0 * A - 2.0 + 2.0 * np.sqrt(1.0 + 12.0 * A)) / (4.0 - A) / N
    ok = (h > 0) & (mu > 0)
    # keep exp(mu) within the round-off budget
    threshold = log_tol - _LOG_MACH_EPS
    big = ok & (mu > threshold)
    if big.any():
        Q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * np.sqrt(mu[big])
        phibar = (Q + sq_phi[big]) ** 2
        w = math.sqrt(-_LOG_MACH_EPS / (-_LOG_MACH_EPS + log_tol))
        u = np.sqrt(-phibar / _LOG_MACH_EPS)
        N[big] = np.ceil(-w * log_tol / (2.0 * math.pi * (u * w - 1.0)))
        ok[big] = (phibar < threshold) & (N[big] > 0)
        mu[big] = threshold
        h[big] = w / N[big]
    return mu, h, np.where(ok, np.maximum(N, 6.0), 0.0)


def _contours(phi: np.ndarray, q: int, p0: float):
    """(mu, h, N) per z, and whether the contour passes left of its pole (q-fold, at level phi).

    The contour runs between the origin (strength p0) and the pole (phi = 0: none), whose
    residue is then added, or right of both, whichever needs fewer nodes.  The tolerance
    is relaxed tenfold, up to five times, until one fits in _N_CAP nodes; else N = 0.
    """
    prm = np.zeros((3, phi.size))
    inner = np.zeros(phi.size, dtype=bool)
    log_tol = _LOG_TOL
    for _ in range(6):
        todo = prm[2] == 0
        if not todo.any():
            break
        cand = np.zeros((2, 3, phi.size))
        # the bounded-region formulas assume a regular inner edge
        sel = todo & (phi > 1e-14) & (p0 <= 1e-14)
        cand[0][:, sel] = _param_bounded(phi[sel], q, log_tol)
        cand[0][:, todo & (phi == 0.0)] = np.array(_param_unbounded(np.zeros(1), p0, log_tol))
        sel = todo & (phi > 0.0) & (phi < log_tol - _LOG_MACH_EPS)
        cand[1][:, sel] = _param_unbounded(phi[sel], q, log_tol)
        n_in, n_out = np.where((cand[:, 2] > 0) & (cand[:, 2] <= _N_CAP), cand[:, 2], np.inf)
        use_in = todo & np.isfinite(n_in) & (n_in <= n_out)
        use = todo & np.isfinite(np.minimum(n_in, n_out))
        prm[:, use] = np.where(use_in, cand[0], cand[1])[:, use]
        inner |= use_in & (phi > 0.0)
        log_tol += math.log(10.0)
    return prm, inner


@lru_cache(maxsize=64)
def _free_contour(p0: float) -> tuple:
    """(mu, h, N) of the contour for a z without a pole, whose origin has strength p0."""
    return tuple(_contours(np.zeros(1), 1, p0)[0][:, 0])


@lru_cache(maxsize=64)
def _node_factors(a: float, bp: float, g: int, mu, h, h2, m1: int, m2: int):
    """e^s s^{ag-bp}, s^a, s' at s = mu (1 + iu)^2, u = h k (|k| <= m1) then h2 k (|k| <= m2)."""
    u = np.concatenate([h * np.arange(-m1, m1 + 1.0), h2 * np.arange(-m2, m2 + 1.0)], axis=-1)
    s = mu * (1j * u + 1.0) ** 2
    ds = 2j * mu * (1.0 + 1j * u)
    log_s = np.log(s)
    out = np.exp(s + (a * g - bp) * log_s), np.exp(a * log_s), ds
    for arr in out:
        arr.flags.writeable = False
    return out


def _contour_sums(a: float, bp: float, g: int, z, mu, h, N):
    """Per row, h/(2 pi i) sum_{|k| <= N} e^s s^{ag-bp} (s^a - z)^{-g} s' at s = mu (1 + i h k)^2,
    and its self-check on N' = ceil(1.37 N) + 2 nodes, on one z-by-node array per
    _SERIES_ROWS rows sorted by N and padded to their largest; each run of equal N is
    summed at its own width, so that no row depends on the others.
    """
    n2 = np.ceil(N * 1.37) + 2.0
    step = np.array([h, h * N / n2])
    out = np.empty((2, z.size), dtype=complex)
    order = np.argsort(N, kind="stable")
    for i in range(0, z.size, _SERIES_ROWS):
        rows = order[i:i + _SERIES_ROWS]
        k1, k2 = N[rows].astype(int), n2[rows].astype(int)
        m1, m2, r = int(k1[-1]), int(k2[-1]), rows[0]
        if k1[0] == m1 and (mu[rows] == mu[r]).all() and (h[rows] == h[r]).all():
            A, B, ds = _node_factors(a, bp, g, float(mu[r]), float(h[r]), float(step[1, r]), m1, m2)
        else:
            A, B, ds = _node_factors.__wrapped__(a, bp, g, mu[rows, None], step[0, rows, None],
                                                 step[1, rows, None], m1, m2)
        vals = A / (B - z[rows, None]) ** g * ds
        cuts = [0, *(np.flatnonzero(np.diff(k1)) + 1), rows.size]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            n, k = k1[lo], 2 * m1 + 1 + m2
            out[0, rows[lo:hi]] = vals[lo:hi, m1 - n:m1 + n + 1].sum(axis=1)
            out[1, rows[lo:hi]] = vals[lo:hi, k - k2[lo]:k + k2[lo] + 1].sum(axis=1)
    return step * out / (2j * math.pi)


def _poles_residue(a: float, bp: float, g: int, s: np.ndarray) -> np.ndarray:
    """Residue of e^w w^{a g - bp} / (w^a - z)^g at the order-g pole w = s, per s."""
    if g == 1:
        return (1.0 / a) * s ** (1.0 - bp) * np.exp(s)
    # Taylor series in eps = w - s; (w^a - z)/eps = sum_i C(a, i+1) s^{a-i-1} eps^i
    h = [sps.binom(a, i + 1) * s ** (a - i - 1) for i in range(g)]
    hg = [1.0] + [0.0] * (g - 1)
    for _ in range(g):
        hg = series_product(hg, h, g)
    c = a * g - bp
    num = series_product([np.exp(s) / math.factorial(i) for i in range(g)],
                         [sps.binom(c, i) * s ** (c - i) for i in range(g)], g)
    return series_product(num, series_reciprocal(hg, g), g)[g - 1]


def series_product(u, v, order):
    """First ``order`` coefficients of the product of two power series (numbers or arrays)."""
    out = [0.0j] * order
    for i in range(order):
        for j in range(order - i):
            out[i + j] += u[i] * v[j]
    return out


def series_reciprocal(u, order):
    """First ``order`` coefficients of 1/u for a power series u (u[0] != 0, may be short)."""
    if np.any(u[0] == 0):
        raise ConditioningError("series reciprocal with vanishing leading coefficient")
    out = [1.0 / u[0]] + [0.0] * (order - 1)
    for i in range(1, order):
        acc = 0.0
        for j in range(1, min(i, len(u) - 1) + 1):
            acc += u[j] * out[i - j]
        out[i] = -acc / u[0]
    return out


def _contour_block(a: float, bp: float, g: int, z: np.ndarray) -> np.ndarray:
    """E^g_{a,bp}(z) by contour inversion on a 1-D array z, self-checked.

    For 0 < a <= 1 at most one pole, s = z^{1/a} where |arg z| <= a pi, is on
    the principal sheet.  The first row whose two sums differ by more than
    1e-10 max(1, |E|), or that has no admissible contour, raises ConditioningError.
    """
    p0 = max(0.0, -2.0 * (a * g - bp + 1.0))   # strength of the origin
    mu, h, N = prm = np.repeat(np.array(_free_contour(p0))[:, None], z.size, axis=1)
    theta = np.angle(z)
    poles = np.flatnonzero(np.abs(theta) <= a * math.pi)
    inner = poles[:0]
    if poles.size:
        s = np.abs(z[poles]) ** (1.0 / a) * np.exp(1j * theta[poles] / a)
        phi = (s.real + np.abs(s)) / 2.0
        poles, s, phi = poles[phi > 1e-15], s[phi > 1e-15], phi[phi > 1e-15]
        prm[:, poles], left = _contours(phi, g, p0)
        inner, s = poles[left], s[left]
    sums = np.full((2, z.size), np.nan, dtype=complex)   # NaN where no contour fits
    good = N > 0
    sums[:, good] = _contour_sums(a, bp, g, z[good], mu[good], h[good], N[good])
    out = sums[1].copy()
    if inner.size:
        out[inner] += _poles_residue(a, bp, g, s)
    bad = np.flatnonzero(~(np.abs(sums[0] - sums[1]) <= 1e-10 * np.maximum(1.0, np.abs(out))))
    if bad.size:
        i = bad[0]
        why = ("no admissible contour" if N[i] == 0 else
               f"contour sums {sums[0, i]:.17g} and {sums[1, i]:.17g} disagree")
        raise ConditioningError(f"Mittag-Leffler contour self-check failed at a = {a!r}, "
                                f"bp = {bp!r}, g = {g}, z = {complex(z[i])!r}: {why}")
    return out


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------

def _ml_block(a: float, bp: float, g: int, z: np.ndarray) -> np.ndarray:
    """E^g_{a,bp}(z) (Prabhakar form, integer g >= 1) for 0 < a <= 1 on a 1-D array z."""
    if g == 1 and a == 1.0 and bp == 1.0:
        return np.exp(z)
    out = np.empty(z.size, dtype=complex)
    todo = np.ones(z.size, dtype=bool)
    if g == 1 and bp > a + 1.0:
        # lower the second index below a+1 so the contour scheme applies:
        # E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z
        todo = np.abs(z) <= 2.0
        zb = z[~todo]
        if zb.size:
            steps = int(math.ceil((bp - (a + 1.0)) / a))
            corr = sum(sps.rgamma(bp - i * a) * zb ** (-i) for i in range(1, steps + 1))
            out[~todo] = (_ml_block(a, bp - steps * a, 1, zb) - corr * zb ** steps) / zb ** steps
    attempt = np.flatnonzero(todo & ((np.abs(z) <= _SERIES_ATTEMPT_RADIUS)
                                     | ((z.imag == 0.0) & (z.real >= 0.0))))
    attempt = attempt[~_beyond_series(a, z[attempt])]
    for i in range(0, attempt.size, _SERIES_ROWS):
        rows = attempt[i:i + _SERIES_ROWS]
        out[rows], ok = _series_block(a, bp, g, z[rows])
        todo[rows[ok]] = False
    if todo.any():
        out[todo] = _contour_block(a, bp, g, z[todo])
    return out


def _ml_a_le_1(a: float, b: float, j: int, z: np.ndarray) -> np.ndarray:
    """j! E^{j+1}_{a, a j + b}(z), the j-th derivative of E_{a,b}, for 0 < a <= 1."""
    return math.factorial(j) * _ml_block(a, a * j + b, j + 1, z)


def _check_ml_saturation(a: float, z: np.ndarray) -> None:
    """Raise when e^{z^{1/a}} overflows double range; only |z|^{1/a} > 700 can."""
    big = z[np.abs(z) > 700.0 ** a]
    if big.size:
        ang = np.angle(big) / a   # the root of s^a = z furthest right on the principal sheet
        re = np.where(np.abs(ang) <= math.pi, np.abs(big) ** (1.0 / a) * np.cos(ang), -np.inf)
        if re.max() > 705.0:
            raise SaturationError(
                f"Mittag-Leffler overflow: Re(z^(1/a)) = {re.max():.4g} beyond floating range")


def _ml_deriv(a: float, b: float, j: int, z):
    """j-th z-derivative of E_{a,b} on a number or an array z (j <= 9 checked by callers)."""
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    if np.isnan(flat).any():
        raise ParameterError("Mittag-Leffler argument must be a number, got NaN")
    _check_ml_saturation(a, flat)
    if a <= 1.0:
        out = _ml_a_le_1(a, b, j, flat)
    else:
        val, ok = _series_block(a, a * j + b, j + 1, flat)
        out = math.factorial(j) * val
        if not ok.all():
            if j > 2:
                raise CapabilityError("derivative order > 2 for a > 1 is not supported")
            # split the index, E_{a,b}(z) = (1/m) sum_h E_{a/m,b}(p_h) with p_h^m = z,
            # and differentiate through p_h(z)
            zb = flat[~ok][:, None]
            m = int(math.ceil(a))
            th = (np.angle(zb) + 2.0 * math.pi * np.arange(m)) / m
            pts = np.abs(zb) ** (1.0 / m) * np.exp(1j * th)

            def ml(i):
                return _ml_a_le_1(a / m, b, i, pts.ravel()).reshape(pts.shape)

            dp = pts / (m * zb)
            if j == 0:
                terms = ml(0)
            elif j == 1:
                terms = ml(1) * dp
            else:
                terms = ml(2) * dp ** 2 + ml(1) * dp * (1.0 / m - 1.0) / zb
            out[~ok] = terms.sum(axis=1) / m
    # zero the imaginary part on the real axis; a scalar request gets a complex back
    out[flat.imag == 0.0] = out.real[flat.imag == 0.0]
    return complex(out[0]) if zs.shape == () else out.reshape(zs.shape)


def mittag_leffler(a: float, b: float, z):
    """Two-parameter Mittag-Leffler function E_{a,b}(z), a > 0.

    z is a number or an array; an array is evaluated in one block pass and
    returned as a complex array of the same shape.  Accurate to about 1e-10
    relative over the arguments the scale-function formulas generate; raises
    SaturationError when exp(z^(1/a)) exceeds floating-point range, and
    ConditioningError where the contour inversion fails its self-check.
    """
    if not a > 0:
        raise ParameterError(f"Mittag-Leffler index a must be positive, got {a}")
    return _ml_deriv(a, b, 0, z)


def mittag_leffler_deriv(a: float, b: float, j: int, z):
    """j-th z-derivative of E_{a,b} at z (a number or an array, as in ``mittag_leffler``).

    Uses the termwise-differentiated series when safe; otherwise the
    contour scheme applied to the equivalent Prabhakar function
    j! E^{j+1}_{a, a j + b}(z).
    """
    if not a > 0:
        raise ParameterError(f"Mittag-Leffler index a must be positive, got {a}")
    if j < 0:
        raise ParameterError("derivative order must be nonnegative")
    if j > 9:
        raise CapabilityError("Mittag-Leffler derivative order capped at 9")
    return _ml_deriv(a, b, j, z)


# ---------------------------------------------------------------------------
# error-function family
# ---------------------------------------------------------------------------

def erfc_c(z: complex) -> complex:
    """Complementary error function for complex argument.

    Uses the Faddeeva function; reflection keeps accuracy for Re z < 0.
    """
    z = complex(z)
    if z.real >= 0.0:
        return complex(np.exp(-z * z) * sps.wofz(1j * z))
    return 2.0 - complex(np.exp(-z * z) * sps.wofz(-1j * z))


def erfcx_scaled(u):
    """e^{u^2} erfc(-u), the scaled combination the exit formulas need.

    u is a number (a complex back) or an array (a complex array of its shape).
    Computed without forming e^{u^2} where Re u <= 0; where Re u > 0 the
    reflected form 2 e^{u^2} - wofz(iu) is used, and SaturationError is raised
    only when the true value itself overflows.
    """
    us = np.asarray(u, dtype=complex)
    right = us.real > 0.0
    ex = np.where(right, us * us, 0.0)
    if ex.real.max(initial=0.0) > 709.0:
        raise SaturationError(f"e^{{u^2}} erfc(-u) overflow at Re u^2 = {ex.real.max():.4g}")
    with np.errstate(over="ignore", invalid="ignore"):     # each side is used where it is finite
        out = np.where(right, 2.0 * np.exp(ex) - sps.wofz(1j * us), sps.wofz(-1j * us))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# regularized lower incomplete gamma
# ---------------------------------------------------------------------------

def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    if not a > 0:
        raise ParameterError("reg_lower_gamma requires a > 0")
    if x < 0:
        raise ParameterError("reg_lower_gamma requires x >= 0")
    return float(sps.gammainc(a, x))


def upper_gamma(s: float, y: float) -> float:
    """Upper incomplete Gamma(s, y) for s > -3, y >= 0.

    Integer s = -n <= 0 is y^{-n} E_{n+1}(y); other nonpositive s is reached
    by the downward recursion Gamma(s, y) = (Gamma(s+1, y) - y^s e^{-y}) / s.
    """
    if y < 0:
        raise ParameterError("upper_gamma requires y >= 0")
    if y == 0.0:
        return math.gamma(s) if s > 0 else math.inf
    if s <= 0 and s == int(s):
        return y ** s * float(sps.expn(1 - int(s), y))
    k = 0
    s0 = s
    while s0 <= 0:
        s0 += 1.0
        k += 1
    val = sps.gammaincc(s0, y) * math.gamma(s0)
    for i in range(k):
        si = s0 - 1.0 - i
        val = (val - y ** si * math.exp(-y)) / si
    return val


# ---------------------------------------------------------------------------
# Gauss-Kronrod panels; the Laplace transform of the reciprocal gamma function
# ---------------------------------------------------------------------------

# Gauss-Kronrod 10/21-point pair on [-1, 1] (QUADPACK qk21): the Gauss points interlaced
# with eleven more, and the Kronrod weights from the ends to the centre
_G_X, _G_W = np.polynomial.legendre.leggauss(10)
_K_X = np.array([0.99565716302580808, 0.93015749135570823, 0.78081772658641690,
                 0.56275713466860468, 0.29439286270146020, 0.0])
_GK_X = np.sort(np.r_[_G_X, _K_X, -_K_X[:-1]])
_K_W = np.array([0.011694638867371874, 0.032558162307964727, 0.054755896574351996,
                 0.075039674810919953, 0.093125454583697606, 0.10938715880229764,
                 0.12349197626206585, 0.13470921731147333, 0.14277593857706008,
                 0.14773910490133849, 0.14944555400291691])
_GK_W = np.r_[_K_W, _K_W[-2::-1]]


def _gauss_kronrod(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Kronrod sum, |Kronrod - Gauss|) of f on each panel [lo, hi] of 1-D arrays; f maps the
    panels-by-21 array of nodes to values.  The weights are applied row by row, not by a BLAS
    product, so no panel depends on the others."""
    half = 0.5 * (hi - lo)
    fx = f(0.5 * (hi + lo)[:, None] + half[:, None] * _GK_X)
    kron = half * (fx * _GK_W).sum(axis=1)
    return kron, np.abs(kron - half * (fx[:, 1::2] * _G_W).sum(axis=1))


@lru_cache(maxsize=100_000)
def fransen_transform(theta: float) -> float:
    """int_0^inf exp(-theta*x) / Gamma(x) dx.

    Guaranteed to 1e-8 relative for theta >= 0; also evaluated for
    moderately negative theta (needed when integrating the alpha=0 scale
    density), raising SaturationError once the integrand leaves
    floating-point range.  Knot panels are bisected, a level in one array pass,
    until each Gauss-Kronrod pair agrees to 1e-12 of the integrand's scale or integral.
    """
    if theta < -6.45:
        raise SaturationError(f"fransen_transform integrand overflows at theta = {theta:.4g}, "
                              f"below -6.45")

    def integrand(x: np.ndarray) -> np.ndarray:
        e = -theta * x - sps.gammaln(x)
        return np.where(e > -745.0, np.exp(e), 0.0)

    if theta >= 0:
        knots = [0.0, 0.5, 1.5, 3.0, 8.0, 20.0, 60.0, 171.0]
    else:
        # integrand peaks near x* with digamma(x*) = -theta, x* ~ exp(-theta)
        xpeak = math.exp(-theta)
        halfwidth = 30.0 * math.sqrt(xpeak) + 50.0
        knots = sorted({0.0, 0.5, 1.5, 3.0, 8.0, 20.0,
                        max(20.0, xpeak - halfwidth), xpeak, xpeak + halfwidth})
    scale = float(integrand(np.array([0.5, 1.5, 2.5] + knots[1:])).max())
    lo, hi = np.array(knots[:-1]), np.array(knots[1:])
    total = 0.0
    for _ in range(60):
        kron, err = _gauss_kronrod(integrand, lo, hi)
        done = err <= 1e-12 * max(scale, abs(total + kron.sum()))
        total += kron[done].sum()
        if done.all():
            return float(total)
        mid = 0.5 * (lo + hi)[~done]
        lo, hi = np.concatenate([lo[~done], mid]), np.concatenate([mid, hi[~done]])
    raise NumericalError(f"fransen_transform quadrature did not converge at theta = {theta:.6g}")
