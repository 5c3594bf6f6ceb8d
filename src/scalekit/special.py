"""Special functions backing the scale-function formulas.

Provides:

* ``mittag_leffler`` / ``mittag_leffler_deriv`` -- two-parameter
  Mittag-Leffler function E_{a,b}(z) and its z-derivatives, for a complex
  argument or an array of them.  Evaluation uses the power series where it
  is safe (a cancellation guard decides), summed for a whole array as one
  block with cached coefficient tables, and otherwise numerical inversion of the
  Laplace transform s^{a*g-b}/(s^a - z)^g along an optimal parabolic
  contour, with explicit residues for the poles that lie right of the
  contour.  A high-precision series (mpmath) is the fallback of last
  resort.
* ``erfc_c`` / ``erfcx_scaled`` / ``eta`` -- complementary error function
  for complex argument and the scaled combinations e^{u^2} erfc(-u) and
  e^x erfc(sqrt(x)) that the inverse-Gaussian formulas need in fused form.
* ``reg_lower_gamma`` -- regularized lower incomplete gamma P(a, x),
  computed by power series / continued fraction depending on the region.
* ``fransen_transform`` -- the Laplace transform of the reciprocal gamma
  function, int_0^inf exp(-theta*x)/Gamma(x) dx.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as sps

from .errors import CapabilityError, NumericalError, ParameterError, SaturationError

__all__ = [
    "MLParams",
    "mittag_leffler",
    "mittag_leffler_deriv",
    "erfc_c",
    "erfcx_scaled",
    "eta",
    "reg_lower_gamma",
    "fransen_transform",
]

_LOG_MACH_EPS = math.log(np.finfo(float).eps)  # about -36.04
_SERIES_ATTEMPT_RADIUS = 5.0   # always try the series inside this disc
_SERIES_GUARD = 1.0e3          # max |term| / |sum| tolerated before rejecting
_SERIES_KMAX = 120_000
_SERIES_CHUNK = 512            # series terms per block pass
_N_CAP = 1200                  # max quadrature nodes per contour half


@dataclass(frozen=True)
class MLParams:
    """Parameters of a Mittag-Leffler evaluation request."""

    a: float
    b: float
    deriv_order: int = 0

    def __post_init__(self):
        if not self.a > 0:
            raise ParameterError(f"Mittag-Leffler index a must be positive, got {self.a}")
        if self.deriv_order < 0:
            raise ParameterError("derivative order must be nonnegative")


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


def _series_block(a: float, bp: float, g: int, z: np.ndarray):
    """Sum_k C(k+g-1, k) z^k / Gamma(a k + bp) on a 1-D array z, with a cancellation guard.

    Returns (values, ok).  ok[i] is False where the series would overflow,
    did not converge within the term budget or lost too many digits to
    cancellation.  Rows that have converged leave the block; the rest go on
    chunk by chunk.
    """
    total = np.zeros(z.size, dtype=complex)
    ok = z == 0
    total[ok] = sps.rgamma(bp)
    rows = np.flatnonzero(~ok)
    log_az = np.log(np.abs(z[rows]))
    arg_z = np.angle(z[rows])
    max_log = np.full(rows.size, -np.inf)
    k0 = 0
    while rows.size and k0 < _SERIES_KMAX:
        k, logc, sgn = _series_table(a, bp, g, k0)
        # log |term| = log C(k+g-1,k) + k log|z| - log|Gamma(a k + bp)|
        logt = logc + np.outer(log_az, k)
        top = logt.max(axis=1)
        fit = top <= 650.0                 # otherwise the terms overflow double
        if not fit.all():
            rows, log_az, arg_z, max_log = rows[fit], log_az[fit], arg_z[fit], max_log[fit]
            logt, top = logt[fit], top[fit]
        max_log = np.maximum(max_log, top)
        # sum only the columns holding a term within e^60 of its row's largest;
        # modulus and phase apart, as a real exp and cos/sin beat a complex exp
        cols = np.flatnonzero((logt >= (max_log - 60.0)[:, None]).any(axis=0))
        if cols.size:
            c = slice(cols[0], cols[-1] + 1)
            mag = sgn[c] * np.exp(logt[:, c])
            phase = np.outer(arg_z, k[c])
            total[rows] += ((mag * np.cos(phase)).sum(axis=1)
                            + 1j * (mag * np.sin(phase)).sum(axis=1))
        # convergence: last terms negligible vs current sum and decreasing
        ref = np.abs(total[rows])
        done = ((ref > 0) & (np.exp(logt[:, -8:]).max(axis=1) < 1e-18 * ref)
                & (logt[:, -1] < logt[:, 0]))
        ok[rows[done]] = max_log[done] - np.log(ref[done]) < math.log(_SERIES_GUARD)
        keep = ~done
        rows, log_az, arg_z, max_log = rows[keep], log_az[keep], arg_z[keep], max_log[keep]
        k0 += _SERIES_CHUNK
    return total, ok


# ---------------------------------------------------------------------------
# optimal parabolic contour (inverse Laplace transform at t=1)
# ---------------------------------------------------------------------------

def _param_bounded(phi0: float, phi1: float, q: float, log_eps: float):
    """Contour parameters for integration between singularity levels phi0 < phi1.

    phi0 is the level of the inner singularity (the branch point at the
    origin in every use here, with zero strength), phi1 the level of the
    pole with strength q.  Returns (mu, h, N) or None if not admissible.
    """
    fac = 1.01
    f_max = math.exp(log_eps - _LOG_MACH_EPS)
    sq_a = math.sqrt(phi0)
    threshold = 2.0 * math.sqrt(log_eps - _LOG_MACH_EPS)
    sq_b = min(math.sqrt(phi1), threshold - sq_a)
    if not sq_b > sq_a + 1e-12:
        return None
    if q < 1e-14:
        sq_bar_a, sq_bar_b, f_bar = sq_a, sq_b, 1.0
    else:
        f_min = fac if sq_a == 0.0 else fac * (sq_a / (sq_b - sq_a)) ** q
        f_min = max(f_min, fac)
        if f_min >= f_max:
            return None
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fq = f_bar ** (-1.0 / q)
        sq_bar_a = sq_a
        sq_bar_b = (2.0 * sq_b - fq * sq_a) / (2.0 + fq)
        if not sq_bar_b > sq_bar_a:
            return None
    log_eps_eff = log_eps - math.log(f_bar)
    w = -(sq_bar_b ** 2) / log_eps_eff
    denom = (1.0 + w) * sq_bar_a + sq_bar_b
    mu = (denom / (2.0 + w)) ** 2
    if mu <= 0.0:
        return None
    h = -2.0 * math.pi / log_eps_eff * (sq_bar_b - sq_bar_a) / denom
    N = int(math.ceil(math.sqrt(1.0 - log_eps_eff / mu) / h))
    return mu, h, max(N, 6)


def _param_unbounded(phi: float, p: float, log_eps: float):
    """Contour parameters for the region right of the outermost singularity."""
    sq_phi = math.sqrt(phi)
    phibar = phi * 1.01 if phi > 0 else 0.01
    for _ in range(40):
        sqbar = math.sqrt(phibar)
        le_pt = log_eps / phibar
        N = int(math.ceil(phibar / math.pi * (1.0 - 1.5 * le_pt + math.sqrt(1.0 - 2.0 * le_pt))))
        N = max(N, 4)
        A = math.pi * N / phibar
        sqmu = sqbar * abs(4.0 - A) / abs(7.0 - math.sqrt(1.0 + 12.0 * A))
        if p < 1e-14:
            break
        f_bar = ((sqbar - sq_phi) / sqmu) ** (-p)
        if 1.0 < f_bar < 10.0:
            break
        phibar = (5.0 ** (-1.0 / p) * sqmu + sq_phi) ** 2
    mu = sqmu ** 2
    h = (-3.0 * A - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * A)) / (4.0 - A) / N
    if h <= 0 or mu <= 0:
        return None
    # keep exp(mu) within the round-off budget
    threshold = log_eps - _LOG_MACH_EPS
    if mu > threshold:
        Q = 0.0 if p < 1e-14 else 5.0 ** (-1.0 / p) * math.sqrt(mu)
        phibar = (Q + sq_phi) ** 2
        if phibar < threshold:
            w = math.sqrt(-_LOG_MACH_EPS / (-_LOG_MACH_EPS + log_eps))
            u = math.sqrt(-phibar / _LOG_MACH_EPS)
            mu = threshold
            N = int(math.ceil(-w * log_eps / (2.0 * math.pi * (u * w - 1.0))))
            if N <= 0:
                return None
            h = w / N
        else:
            return None
    return mu, h, max(N, 6)


def _poles_on_sheet(a: float, z: complex):
    """Roots of s^a = z with |arg s| <= pi (principal sheet)."""
    theta = cmath.phase(z)
    abs_z = abs(z)
    if abs_z == 0.0:
        return []
    kmin = math.ceil(-a / 2.0 - theta / (2.0 * math.pi))
    kmax = math.floor(a / 2.0 - theta / (2.0 * math.pi))
    radius = abs_z ** (1.0 / a)
    return [radius * cmath.exp(1j * (theta + 2.0 * math.pi * k) / a)
            for k in range(kmin, kmax + 1)]


def _residue_at_pole(a: float, bp: float, g: int, z: complex, s: complex) -> complex:
    """Residue of e^w w^{a g - bp} / (w^a - z)^g at the order-g pole w = s."""
    if g == 1:
        return (1.0 / a) * s ** (1.0 - bp) * cmath.exp(s)
    G = g  # need Taylor coefficients up to order g-1
    # h(eps) = ((s+eps)^a - z)/eps = sum_i C(a, i+1) s^{a-i-1} eps^i
    def binom(w, i):
        out = 1.0
        for r in range(i):
            out *= (w - r) / (r + 1)
        return out

    h = [binom(a, i + 1) * s ** (a - i - 1) for i in range(G)]
    # h^g
    hg = [1.0 + 0.0j] + [0.0j] * (G - 1)
    for _ in range(g):
        hg = _series_mul(hg, h, G)
    inv_hg = _series_inv(hg, G)
    w = a * g - bp
    spow = [binom(w, i) * s ** (w - i) for i in range(G)]
    expser = [cmath.exp(s) / math.factorial(i) for i in range(G)]
    prod = _series_mul(_series_mul(expser, spow, G), inv_hg, G)
    return prod[G - 1]


def _series_mul(u, v, order):
    out = [0.0j] * order
    for i in range(order):
        if u[i] == 0:
            continue
        for j in range(order - i):
            out[i + j] += u[i] * v[j]
    return out


def _series_inv(u, order):
    if u[0] == 0:
        raise NumericalError("series inversion with vanishing leading coefficient")
    out = [1.0 / u[0]] + [0.0j] * (order - 1)
    for i in range(1, order):
        acc = 0.0j
        for j in range(1, i + 1):
            acc += u[j] * out[i - j]
        out[i] = -acc / u[0]
    return out


def _contour_sum(a: float, bp: float, g: int, z: complex, mu: float, h: float, N: int) -> complex:
    k = np.arange(-N, N + 1, dtype=float)
    u = h * k
    s = mu * (1j * u + 1.0) ** 2
    ds = 2j * mu * (1.0 + 1j * u)
    log_s = np.log(s)
    vals = np.exp(s + (a * g - bp) * log_s) / (np.exp(a * log_s) - z) ** g * ds
    return complex(h * vals.sum() / (2j * math.pi))


def _contour_prabhakar(a: float, bp: float, g: int, z: complex, log_eps: float = math.log(1e-14)):
    """Prabhakar Mittag-Leffler by contour inversion; returns (value, err_estimate).

    Raises NumericalError when no admissible contour reaches the target.
    """
    poles = _poles_on_sheet(a, z)
    entries = [(0.0, 0.0j, True)]  # (phi level, location, is_origin)
    p0 = max(0.0, -2.0 * (a * g - bp + 1.0))
    for s in poles:
        phi = (s.real + abs(s)) / 2.0
        if phi > 1e-15:
            entries.append((phi, s, False))
    entries.sort(key=lambda e: e[0])

    current_log_eps = log_eps
    for _ in range(6):
        candidates = []
        levels = [e[0] for e in entries] + [math.inf]
        for j in range(len(entries)):
            if levels[j] >= (current_log_eps - _LOG_MACH_EPS):
                continue
            if j + 1 < len(entries):
                if levels[j + 1] <= levels[j] + 1e-14:
                    continue
                if entries[j][2] and p0 > 1e-14:
                    continue  # bounded-region formulas assume a regular inner edge
                prm = _param_bounded(levels[j], levels[j + 1], g, current_log_eps)
            else:
                strength = p0 if entries[j][2] else g
                prm = _param_unbounded(levels[j], strength, current_log_eps)
            if prm is not None and prm[2] <= _N_CAP:
                candidates.append((prm[2], j, prm))
        if candidates:
            break
        current_log_eps += math.log(10.0)
    else:
        raise NumericalError("no admissible contour for Mittag-Leffler evaluation")
    if not candidates:
        raise NumericalError("no admissible contour for Mittag-Leffler evaluation")

    candidates.sort()
    _, jsel, (mu, h, N) = candidates[0]
    val = _contour_sum(a, bp, g, z, mu, h, N)
    # self-check with a finer step on the same contour footprint
    N2 = int(math.ceil(N * 1.37)) + 2
    h2 = h * N / N2
    val2 = _contour_sum(a, bp, g, z, mu, h2, N2)
    err = abs(val - val2)
    # residues of the poles right of the selected contour
    res = 0.0j
    for phi, s, is_origin in entries[jsel + 1:]:
        if not is_origin:
            res += _residue_at_pole(a, bp, g, z, s)
    total = val2 + res
    return total, err


# ---------------------------------------------------------------------------
# mpmath fallback
# ---------------------------------------------------------------------------

def _mp_series(a: float, bp: float, g: int, z: complex) -> complex:
    import mpmath as mp

    need = abs(z) ** (1.0 / a)
    dps = int(30 + 0.45 * need)
    if dps > 600:
        raise SaturationError(
            f"Mittag-Leffler argument too large for stable evaluation: |z|^(1/a) = {need:.3g}",
            magnitude=need)
    with mp.workdps(dps):
        zz = mp.mpc(z)
        # the gamma argument must be formed in working precision: double
        # rounding of a*k + bp is amplified by the series cancellation
        aa, bb = mp.mpf(a), mp.mpf(bp)
        total = mp.mpc(0)
        k = 0
        while True:
            coeff = mp.rf(g, k) / mp.factorial(k)
            t = coeff * zz ** k * mp.rgamma(aa * k + bb)
            total += t
            if k > 8 and abs(t) < mp.mpf(10) ** (-dps) * (1 + abs(total)):
                break
            if k > 2_000_000:
                raise NumericalError("mpmath Mittag-Leffler series did not converge")
            k += 1
        return complex(total)


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
    attempt = todo & ((np.abs(z) <= _SERIES_ATTEMPT_RADIUS) | ((z.imag == 0.0) & (z.real >= 0.0)))
    val, ok = _series_block(a, bp, g, z[attempt])
    out[attempt] = val
    todo[np.flatnonzero(attempt)[ok]] = False
    for i in np.flatnonzero(todo):
        out[i] = _ml_pointwise(a, bp, g, complex(z[i]))
    return out


def _ml_pointwise(a: float, bp: float, g: int, z: complex) -> complex:
    """Contour inversion with its self-check, else the mpmath series, for one z."""
    try:
        val, err = _contour_prabhakar(a, bp, g, z)
        if err <= 1e-10 * max(1.0, abs(val)):
            return val
    except NumericalError:
        pass
    return _mp_series(a, bp, g, z)


@lru_cache(maxsize=400_000)
def _ml_core(a: float, bp: float, g: int, z: complex) -> complex:
    """One-point ``_ml_block``, memoised for repeated scalar requests."""
    return complex(_ml_block(a, bp, g, np.array([z], dtype=complex))[0])


def _ml_a_le_1(a: float, b: float, j: int, z: np.ndarray) -> np.ndarray:
    """j! E^{j+1}_{a, a j + b}(z), the j-th derivative of E_{a,b}, for 0 < a <= 1.

    A single point goes through the memoised ``_ml_core``.
    """
    bp = a * j + b
    val = [_ml_core(a, bp, j + 1, complex(z[0]))] if z.size == 1 else _ml_block(a, bp, j + 1, z)
    return math.factorial(j) * np.asarray(val)


def _check_ml_saturation(a: float, z: np.ndarray) -> None:
    """Raise when e^{z^{1/a}} overflows double range; only |z|^{1/a} > 700 can."""
    for zi in z[np.abs(z) > 700.0 ** a]:
        re_max = max((s.real for s in _poles_on_sheet(a, complex(zi))), default=-math.inf)
        if re_max > 705.0:
            raise SaturationError(
                f"Mittag-Leffler overflow: Re(z^(1/a)) = {re_max:.4g} beyond floating range",
                magnitude=re_max)


def _ml_deriv(a: float, b: float, j: int, z):
    """j-th z-derivative of E_{a,b} on a number or an array z (j <= 9 checked by callers)."""
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
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
    SaturationError when exp(z^(1/a)) exceeds floating-point range.
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


def erfcx_scaled(u: complex) -> complex:
    """e^{u^2} erfc(-u), the scaled combination the exit formulas need.

    Computed without forming e^{u^2} when Re u <= 0; for Re u > 0 the
    reflected form 2 e^{u^2} - wofz(iu) is used and may saturate only when
    the true value itself overflows.
    """
    u = complex(u)
    if u.real <= 0.0:
        return complex(sps.wofz(-1j * u))
    ex = u * u
    if ex.real > 709.0:
        raise SaturationError("e^{u^2} erfc(-u) overflow", magnitude=float(ex.real))
    return 2.0 * cmath.exp(ex) - complex(sps.wofz(1j * u))


def eta(x: float) -> float:
    """e^x erfc(sqrt(x)) for x >= 0, evaluated in scaled form."""
    if x < 0:
        raise ParameterError("eta requires x >= 0")
    return float(sps.erfcx(math.sqrt(x)))


# ---------------------------------------------------------------------------
# regularized lower incomplete gamma
# ---------------------------------------------------------------------------

def _lower_gamma_series(a: float, x: float) -> float:
    """P(a,x) by the ascending series, preferred for x < a + 1."""
    if x == 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    n = 0
    while n < 10_000:
        n += 1
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    log_pref = a * math.log(x) - x - math.lgamma(a)
    return total * math.exp(log_pref)


def _upper_gamma_cf(a: float, x: float) -> float:
    """Q(a,x) by the Lentz continued fraction, preferred for x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    log_pref = a * math.log(x) - x - math.lgamma(a)
    return f * math.exp(log_pref)


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    if not a > 0:
        raise ParameterError("reg_lower_gamma requires a > 0")
    if x < 0:
        raise ParameterError("reg_lower_gamma requires x >= 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(1.0, _lower_gamma_series(a, x))
    return min(1.0, max(0.0, 1.0 - _upper_gamma_cf(a, x)))


def upper_gamma(s: float, y: float) -> float:
    """Upper incomplete Gamma(s, y) for s > -3, y >= 0.

    Nonpositive s is reached by the downward recursion
    Gamma(s, y) = (Gamma(s+1, y) - y^s e^{-y}) / s.
    """
    if y < 0:
        raise ParameterError("upper_gamma requires y >= 0")
    if y == 0.0:
        return math.gamma(s) if s > 0 else math.inf
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
# Laplace transform of the reciprocal gamma function
# ---------------------------------------------------------------------------

@lru_cache(maxsize=100_000)
def fransen_transform(theta: float, _refine: bool = False) -> float:
    """int_0^inf exp(-theta*x) / Gamma(x) dx.

    Guaranteed to 1e-8 relative for theta >= 0; also evaluated for
    moderately negative theta (needed when integrating the alpha=0 scale
    density), raising SaturationError once the integrand leaves
    floating-point range.
    """
    from scipy.integrate import quad

    if theta < -6.45:
        raise SaturationError("fransen_transform integrand overflows for theta < -6.45",
                              magnitude=theta)

    def integrand(x: float) -> float:
        if x <= 0.0:
            return 0.0
        e = -theta * x - sps.gammaln(x)
        return math.exp(e) if e > -745.0 else 0.0

    if theta >= 0:
        knots = [0.0, 0.5, 1.5, 3.0, 8.0, 20.0, 60.0, 171.0]
    else:
        # integrand peaks near x* with digamma(x*) = -theta, x* ~ exp(-theta)
        xpeak = math.exp(-theta)
        halfwidth = 30.0 * math.sqrt(xpeak) + 50.0
        knots = sorted({0.0, 0.5, 1.5, 3.0, 8.0, 20.0,
                        max(20.0, xpeak - halfwidth), xpeak, xpeak + halfwidth})
    scale = max(integrand(x) for x in [0.5, 1.5, 2.5] + knots[1:])
    limit = 400 if _refine else 200
    epsabs = scale * (1e-14 if _refine else 1e-12)
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        if hi <= lo:
            continue
        val, _ = quad(integrand, lo, hi, limit=limit, epsabs=epsabs, epsrel=1e-12)
        total += val
    return total
