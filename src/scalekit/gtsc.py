"""Scale functions for the Gaussian tempered stable convolution class.

The ladder height process is a (possibly killed) tempered stable
subordinator with drift: exponent

    phi(theta) = kappa + zeta*theta + c*Gamma(-alpha)*(gamma^alpha - (gamma+theta)^alpha)

(alpha = 0 understood in the limit as kappa + zeta*theta + c*log((gamma+theta)/gamma)),
and the parent process has psi(theta) = (theta - varphi) * phi(theta) with
kappa*varphi = 0.

Evaluation routes for W^(q) (``scale_function`` picks one, or Bromwich inversion):

* ``w_rational``   -- alpha = m/n: partial fractions of z^{m_-}/f_q(z) and
  tilted Mittag-Leffler derivatives, whose W' lowers their second index by
  one; near zero the equivalent convergent power series (from the expansion
  of z^{m_-}/f_q at infinity) is used, which also yields W(0+) and W'(0+)
  exactly.
* ``w0_closed``    -- q = 0, zeta = 0, alpha in (-1,1)\\{0}: single-integral
  closed forms on fixed graded Gauss-Kronrod panels, and W' in closed form.
* ``w_ig``         -- alpha = 1/2 inverse Gaussian ladder: erfc formulas,
  with the branch decided by the sign of q - q0, q0 = (16/27)*delta*gamma^3.
* ``w_gamma_case`` -- alpha = 0, q = 0: antiderivative of a Chebyshev interpolant
  of the reciprocal-gamma-transform density in log coordinates, built once per
  process; cross-checked against the incomplete-gamma time integral.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

import numpy as np
from scipy import special as sps

from .bromwich import _invert_hyperbola
from .errors import (CapabilityError, NotApplicableError, NumericalError, ParameterError,
                     SaturationError)
from .levy import LadderParams, LaplaceExponent, big_phi, parent_exponent
from .polyfrac import RationalAlpha, build_fq, partial_fractions, roots_with_multiplicity
from .scale import ScaleFunction
from .special import (_gauss_kronrod, erfcx_scaled, fransen_transform, mittag_leffler,
                      mittag_leffler_deriv, reg_lower_gamma, series_reciprocal, upper_gamma)

__all__ = [
    "GtscParams",
    "scale_function",
    "ZeroAsymptote",
    "InfinityAsymptote",
    "w_rational",
    "w0_closed",
    "w_ig",
    "w_gamma_case",
    "asymptote_zero",
    "asymptote_infinity",
]

_DRIFT_ZERO_TOL_FACTOR = 1e-10   # |psi'(0+)| below this * max(1, kappa, c) counts as critical


@dataclass(frozen=True)
class GtscParams:
    """Parameters (alpha, gamma, c, zeta, kappa, varphi) of the GTSC family."""

    alpha: float
    gamma: float
    c: float
    zeta: float = 0.0
    kappa: float = 0.0
    varphi: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ParameterError(f"GTSC parameters must be finite, got {self}")
        if self.kappa > 0 and self.varphi > 0:
            raise ParameterError("kappa*varphi must be 0")
        if self.kappa < 0 or self.varphi < 0 or self.zeta < 0:
            raise ParameterError("kappa, varphi, zeta must be nonnegative")
        if not self.c > 0:
            raise ParameterError("scaling parameter c must be positive")
        if self.alpha <= 0 and not self.gamma > 0:
            raise ParameterError("gamma must be positive when alpha <= 0")
        if self.gamma < 0:
            raise ParameterError("tempering parameter gamma must be nonnegative")
        if not -1.0 <= self.alpha < 1.0:
            raise ParameterError("stability parameter must satisfy -1 <= alpha < 1")

    # -- ladder exponent -----------------------------------------------------
    def ladder_exponent(self, theta):
        g, c, z, k, a = self.gamma, self.c, self.zeta, self.kappa, self.alpha
        if a == 0.0:
            return k + z * theta + c * _clog((g + theta) / g)
        ga = sps.gamma(-a)
        return k + z * theta + c * ga * (g ** a - _cpow(g + theta, a))

    def ladder_exponent_deriv(self, theta: float) -> float:
        g, c, z, a = self.gamma, self.c, self.zeta, self.alpha
        if a == 0.0:
            return z + c / (g + theta)
        if g + theta == 0.0:
            return math.inf     # gamma = 0: the stable ladder has infinite mean
        return z + c * sps.gamma(1.0 - a) * (g + theta) ** (a - 1.0)

    def exponent(self) -> LaplaceExponent:
        return parent_exponent(self.ladder_exponent, self.ladder_exponent_deriv, self.varphi)

    def ladder(self) -> LadderParams:
        g, c, a = self.gamma, self.c, self.alpha

        def density(x: float) -> float:
            return c * x ** (-a - 1.0) * math.exp(-g * x)

        def tail(x: float) -> float:
            if g > 0:
                return c * g ** a * upper_gamma(-a, g * x)
            return c * x ** (-a) / a    # gamma = 0 requires alpha > 0

        def density_deriv(x: float) -> float:
            return -c * math.exp(-g * x) * ((a + 1.0) * x ** (-a - 2.0)
                                            + g * x ** (-a - 1.0))

        mass = math.inf if a >= 0 else c * sps.gamma(-a) * g ** a
        # int_0^1 u density(u) du
        m1 = c * g ** (a - 1.0) * math.gamma(1.0 - a) * reg_lower_gamma(1.0 - a, g) \
            if g > 0 else c / (1.0 - a)
        return LadderParams(drift=self.zeta, levy_density=density, tail=tail,
                            exponent=self.ladder_exponent,
                            exponent_deriv=self.ladder_exponent_deriv,
                            activity_mass=mass, levy_density_deriv=density_deriv,
                            small_jump_mean=m1)

    def parent_triple(self):
        """(LevyTriple, LaplaceExponent) of the parent process.

        The jump tail part carries the structured two-component description
        c(varphi+gamma) x^{-alpha-1} e^{-gamma x} + c(alpha+1) x^{-alpha-2} e^{-gamma x},
        which the Monte Carlo sampler consumes directly.
        """
        from dataclasses import replace

        from .levy import build_parent

        triple, psi = build_parent(self.ladder(), self.varphi)
        comps = []
        if self.varphi + self.gamma > 0:
            comps.append(("tempered_power", self.c * (self.varphi + self.gamma),
                          self.alpha, self.gamma))
        if self.alpha + 1.0 > 0:
            comps.append(("tempered_power", self.c * (self.alpha + 1.0),
                          self.alpha + 1.0, self.gamma))
        triple = replace(triple, jump_components=tuple(comps))
        return triple, psi


def _cpow(base, expo):
    # principal branch; ndarrays (complex contour nodes) go through numpy
    if isinstance(base, np.ndarray):
        return np.power(base.astype(complex), expo)
    if isinstance(base, complex) or base < 0:
        return complex(base) ** expo
    return base ** expo


def _clog(v):
    if isinstance(v, np.ndarray):
        return np.log(v.astype(complex))
    return cmath.log(v) if isinstance(v, complex) else math.log(v)


# ---------------------------------------------------------------------------
# rational-alpha route
# ---------------------------------------------------------------------------

def w_rational(params: GtscParams, alpha: Optional[RationalAlpha] = None,
               q: float = 0.0) -> ScaleFunction:
    """W^(q) through the partial fraction / Mittag-Leffler representation."""
    if alpha is None:
        alpha = RationalAlpha.from_value(_to_fraction(params.alpha))
    if alpha.n > 12:
        raise CapabilityError(
            "denominator n > 12 is numerically fragile in the rational route; "
            "use the bromwich route instead")
    if not 0.0 <= q < math.inf:
        raise ParameterError(f"q must be finite and nonnegative, got {q}")
    n = alpha.n
    gamma = params.gamma
    fq = build_fq(params, alpha, q)
    pf = partial_fractions(fq, alpha.m_minus)
    phi_q = float(pf.roots[0].real) ** n - gamma

    # expansion of z^{m_-}/f_q(z) at infinity: b[i] is the z^{-i} coefficient;
    # W e^{gamma x} = sum_i b_i x^{i/n-1}/Gamma(i/n) converges for all x and is
    # the well-conditioned representation near zero, x <= x_switch, where every |r x^{1/n}| <= 0.45.
    # Over every m/n with n <= 12, cases A-F and q in {0, 1, 5} it stops by i = 75 of 8n + 60.
    bcoef, ends = _inverse_expansion(fq, alpha.m_minus, 8 * n + 60)
    rmax = np.abs(pf.roots).max()
    x_switch = (0.45 / rmax) ** n if rmax > 0 else math.inf

    inv_n = 1.0 / n
    # pf_coef[j, r] = coefficient / j! (0 for j >= mu_r); the closures below keep these
    # arrays, not pf
    pf_roots, pf_mults = pf.roots, pf.multiplicities
    max_mu = pf.coeffs.shape[1]
    pf_coef = pf.coeffs.T / sps.factorial(np.arange(max_mu))[:, None]
    # nonzero terms of the small-x series: coefficient b_i/Gamma(i/n) and power i/n - 1
    idx = np.flatnonzero(bcoef[1:]) + 1
    s_coef = bcoef[idx] * sps.rgamma(idx * inv_n)
    s_pow = idx * inv_n - 1.0
    s_late = idx > 2 * n
    # at 0+ the series leaves b_n, and b_{2n} x unless a power x^{i/n-1} in (0, 1) comes first
    w0 = bcoef[n]
    wp0 = math.inf if bcoef[n + 1:2 * n].any() else bcoef[2 * n] - gamma * w0

    def _series_sums(x: np.ndarray, deriv: bool):
        # the series and its derivative summed up to the first negligible term beyond i = 2n
        with np.errstate(over="ignore", invalid="ignore"):
            terms = s_coef * x[:, None] ** s_pow
            partial = np.cumsum(terms, axis=1)
            stop = s_late & (np.abs(terms) < 1e-18 * (np.abs(partial) + 1e-300))
        stopped = stop.any(axis=1)
        if not (ends or stopped.all()):
            raise NumericalError(f"the small-x series did not converge within {bcoef.size} "
                                 f"terms at x={x[np.argmin(stopped)]:.6g}")
        last = np.where(stopped, stop.argmax(axis=1), idx.size - 1)
        rows = np.arange(x.size)
        ds = np.cumsum(terms * s_pow / x[:, None], axis=1)[rows, last] if deriv else None
        return partial[rows, last], ds

    def _pfd_sums(x: np.ndarray, deriv: bool):
        # term (r, j < mu_r): coef x^{(j+1)/n-1} j! E^{j+1}_{1/n,(j+1)/n}(r x^{1/n}); its
        # derivative is the same with the second index and the power lowered by one
        z = np.outer(pf_roots, x ** inv_n)
        sums = []
        for d in range(1 + deriv):
            total = np.zeros(x.size, dtype=complex)
            for j in range(max_mu):
                on = pf_mults > j
                ml = mittag_leffler_deriv(inv_n, inv_n - d, j, z[on])
                # root by root, so that a point's sum does not depend on the points around it
                total += sum(c * m for c, m in zip(pf_coef[j, on], ml)) \
                    * x ** ((j + 1) * inv_n - 1.0 - d)
            sums.append(total)
        return sums[0], (sums[1] if deriv else None)

    def _real(total: np.ndarray, x: np.ndarray) -> np.ndarray:
        bad = np.abs(total.imag) > 1e-9 * (1.0 + np.abs(total.real))
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalError(f"imaginary residue {total.imag[i]:.3g} in the "
                                 f"Mittag-Leffler sum at x={x[i]:.6g}")
        return total.real

    def fused_pass(x: np.ndarray, deriv: bool):
        """W, and W' when deriv is set, on an array of x >= 0 in one pass."""
        w = np.full(x.shape, w0)
        wp = np.full(x.shape, wp0) if deriv else None
        for branch, sel in ((_series_sums, (x > 0.0) & (x <= x_switch)),
                            (_pfd_sums, x > x_switch)):
            if sel.any():
                xs = x[sel]
                (s, ds), ex = branch(xs, deriv), np.exp(-gamma * xs)
                w[sel] = _real(ex * s, xs)
                if deriv:   # W' = e^{-gamma x} ((W e^{gamma x})' - gamma W e^{gamma x})
                    wp[sel] = _real(ex * (ds - gamma * s), xs)
        return w, wp

    return ScaleFunction(q=q, phi_q=phi_q, route="rational-ML",
                         w=lambda x: fused_pass(x, False)[0], dw=lambda x: fused_pass(x, True)[1],
                         psi=params.exponent())


def _to_fraction(alpha: float):
    fr = Fraction(alpha).limit_denominator(1_000_000)
    if abs(float(fr) - alpha) > 1e-12:
        raise CapabilityError("alpha is not recognizably rational; use the bromwich route")
    return fr


def _inverse_expansion(fq: np.ndarray, m_minus: int, nterms: int) -> tuple[np.ndarray, bool]:
    """Coefficients b with z^{m_-}/f_q(z) = sum_{i>=1} b_i z^{-i} for large z, up to
    i = D - m_- + nterms - 1, and whether every later b_i is 0."""
    # 1/f_q(z) = z^{-D}/lead * sum_j e_j z^{-j}, e the reciprocal of the reversed, monic f_q
    D = fq.size - 1
    e = series_reciprocal((fq[::-1] / fq[-1]).tolist(), nterms)
    b = np.zeros(D - m_minus + nterms)
    b[D - m_minus:] = np.asarray(e) / fq[-1]
    # e obeys a recurrence of D terms, so D zeros in a row end it
    return b, not any(e[-D:])


# ---------------------------------------------------------------------------
# closed forms for q=0, zeta=0, alpha in (-1,1)\{0}
# ---------------------------------------------------------------------------

def _closed_panels(abar: float, lam: float, rate: float, x: float) -> np.ndarray:
    """Edges in s on [0, 1]: graded in y = x s^{1/abar} (ratio 0.35) down to y_lo, where rate*y
    and |lam| y^abar are small, then in s (five levels of 0.2), plus s* = 5/(|lam| x^abar)."""
    y_lo = min(x, 0.1 / (rate + abs(lam) ** (1.0 / abar)))
    body = 0.35 ** (abar * np.arange(math.ceil(math.log(x / y_lo) / math.log(1.0 / 0.35))))
    s_star = min(1.0, 5.0 / (abs(lam) * x ** abar)) if lam != 0.0 else 1.0
    return np.unique(np.r_[body, (y_lo / x) ** abar * 0.2 ** np.arange(6), 0.0, s_star])


def _closed_pass(params: GtscParams, x: np.ndarray, deriv: bool) -> np.ndarray:
    """W, or W' when deriv is set, of the q = 0 closed form on an array of x >= 0.

    W = e^{varphi x} (base + pref I(x)), I(x) = int_0^x e^{-(gamma+varphi) y} y^{abar-1}
    E_{abar,abar}(lam y^abar) dy = (x^abar/abar) int_0^1 e^{-(gamma+varphi) x s^{1/abar}}
    E_{abar,abar}(lam x^abar s) ds, s = (y/x)^abar, on fixed Gauss-Kronrod panels.
    """
    a, g, varphi = params.alpha, params.gamma, params.varphi
    cg = params.c * sps.gamma(-a)
    A = params.kappa + cg * g ** a
    abar, lam, base, pref = (a, A / cg, 0.0, -1 / cg) if a > 0 else (-a, cg / A, 1 / A, cg / A / A)
    xp = x[x > 0.0]
    w = np.full(x.shape, base)
    if xp.size and (not deriv or varphi != 0.0):
        edges = [_closed_panels(abar, lam, g + varphi, xi) for xi in xp]
        lo, hi = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
        counts = [e.size - 1 for e in edges]

        def f(s: np.ndarray) -> np.ndarray:
            y = np.repeat(xp, counts)[:, None] * s ** (1.0 / abar)
            return np.exp(-(g + varphi) * y) * mittag_leffler(abar, abar, lam * y ** abar).real

        kron, err = _gauss_kronrod(f, lo, hi)
        starts = np.cumsum(counts) - counts
        val, est = xp ** abar / abar * np.add.reduceat(np.c_[kron, err], starts).T
        if (est > 1e-9 * (1.0 + np.abs(val))).any():
            raise NumericalError(f"closed-form quadrature error estimate {est.max():.2g} too large")
        w[x > 0.0] = np.exp(varphi * xp) * (base + pref * val)
    if deriv:   # W' = varphi W + pref e^{-gamma x} x^{abar-1} E_{abar,abar}(lam x^abar)
        ml = mittag_leffler(abar, abar, lam * xp ** abar).real
        w[x > 0.0] = varphi * w[x > 0.0] + pref * np.exp(-g * xp) * xp ** (abar - 1.0) * ml
        w[x == 0.0] = math.inf
    return w


def w0_closed(params: GtscParams) -> ScaleFunction:
    """W for q = 0, zeta = 0 through the single-integral closed form (route 'closed-form'),
    W' in closed form too."""
    if params.zeta != 0.0 or not -1.0 < params.alpha < 1.0 or params.alpha == 0.0:
        raise ParameterError("closed form requires zeta = 0 and alpha in (-1,1) excluding 0")
    psi = params.exponent()
    return ScaleFunction(0.0, big_phi(psi, 0.0), "closed-form",
                         lambda x: _closed_pass(params, x, False),
                         lambda x: _closed_pass(params, x, True), psi)


# ---------------------------------------------------------------------------
# inverse Gaussian ladder (alpha = 1/2)
# ---------------------------------------------------------------------------

def ig_q0_threshold(delta: float, gamma: float) -> float:
    """q0 = (16/27) delta gamma^3, where the cubic's root pattern changes."""
    return 16.0 / 27.0 * delta * gamma ** 3


def ig_params(delta: float, gamma: float) -> GtscParams:
    """Tempered stable parameters of the IG(delta, gamma) ladder."""
    return GtscParams(alpha=0.5, gamma=gamma ** 2 / 2.0, c=delta / math.sqrt(2.0 * math.pi))


def w_ig(delta: float, gamma: float, q: float = 0.0) -> ScaleFunction:
    """W^(q) for the inverse Gaussian ladder, all in erfc closed forms.

    zeta = varphi = kappa = 0 throughout.  The q = q0 boundary (detected to
    1e-9 relative) uses the double-root branch.  W' is in closed form on
    every branch, with W'(0+) = inf.
    """
    if not (delta > 0 and gamma > 0):
        raise ParameterError("delta and gamma must be positive")
    if not 0.0 <= q < math.inf:
        raise ParameterError(f"q must be finite and nonnegative, got {q}")
    params = ig_params(delta, gamma)
    psi = params.exponent()
    q0 = ig_q0_threshold(delta, gamma)
    c0 = gamma ** 2 / 2.0

    if q == 0.0:
        def value(x: np.ndarray) -> np.ndarray:
            sx = np.sqrt(x)
            term = ((1.0 + gamma ** 2 * x) * sps.erfc(-gamma * sx / math.sqrt(2.0))
                    + gamma * sx * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * gamma ** 2 * x)
                    - 1.0)
            return term / (2.0 * delta * gamma)

        def deriv(x: np.ndarray) -> np.ndarray:
            return (gamma / (2.0 * delta)) * sps.erfc(-gamma * np.sqrt(x / 2.0)) \
                + np.exp(-0.5 * gamma ** 2 * x) / (delta * np.sqrt(2.0 * math.pi * x))

        return ScaleFunction(0.0, 0.0, "ig", value, deriv, psi)

    fq = build_fq(params, RationalAlpha(1, 2), q)
    roots, mults = roots_with_multiplicity(fq)
    phi_q = float(roots[0].real) ** 2 - c0

    if abs(q - q0) <= 1e-9 * q0:
        def pair(x: np.ndarray, deriv: bool) -> np.ndarray:
            """W (or W') on x >= 0; W = (t1 + t2 - (15 + 2 gamma^2 x) e3)/(36 delta gamma)."""
            sx = np.sqrt(x)
            g2x = gamma ** 2 * x
            t2 = 15.0 * _scaled_eta((8.0 / 9.0) * g2x, -(5.0 * gamma / 3.0) * sx / math.sqrt(2.0))
            e3 = np.exp(-(4.0 / 9.0) * g2x) * sps.erfc((gamma / 3.0) * sx / math.sqrt(2.0))
            if not deriv:
                t1 = 6.0 * gamma * math.sqrt(2.0 / math.pi) * sx * np.exp(-0.5 * g2x)
                return (t1 + t2 - (15.0 + 2.0 * g2x) * e3).real / (36.0 * delta * gamma)
            # t1' + t2' - t3', the e^{-gamma^2 x/2}/sqrt(x) parts of all three gathered
            d = gamma ** 2 * (8.0 * t2 + (42.0 + 8.0 * g2x) * e3) / 9.0 + math.sqrt(2.0) * gamma \
                * np.exp(-0.5 * g2x) * (18.0 - (8.0 / 3.0) * g2x) / np.sqrt(math.pi * x)
            return d.real / (36.0 * delta * gamma)

        return ScaleFunction(q, phi_q, "ig", lambda x: pair(x, False), lambda x: pair(x, True),
                             psi)

    if (mults != 1).any():
        raise NumericalError("unexpected multiple root away from q0 in the IG cubic")
    # W = sum_r w_r e^{(r^2 - c0) x} erfc(-r sqrt x), w_r = r/f_q'(r), and W(0) = sum_r w_r = 0
    weights = roots / np.polynomial.polynomial.polyval(
        roots, np.polynomial.polynomial.polyder(np.asarray(fq)))
    wr_sum = complex(np.sum(weights * roots))

    def value(x: np.ndarray) -> np.ndarray:
        sx = np.sqrt(x)
        total = sum(w * _scaled_eta((r * r - c0) * x, -r * sx) for r, w in zip(roots, weights))
        bad = (x > 0.0) & (np.abs(total.imag) > 1e-9 * (1.0 + np.abs(total.real)))
        if bad.any():
            raise NumericalError(f"imaginary residue in IG scale sum at x={x[bad][0]}")
        return np.where(x > 0.0, total.real, 0.0)

    def deriv(x: np.ndarray) -> np.ndarray:
        sx = np.sqrt(x)
        total = sum(w * (r * r - c0) * _scaled_eta((r * r - c0) * x, -r * sx)
                    for r, w in zip(roots, weights))
        total += wr_sum * np.exp(-c0 * x) / np.sqrt(math.pi * x)
        return np.where(x > 0.0, total.real, math.inf)

    return ScaleFunction(q, phi_q, "ig", value, deriv, psi)


def _scaled_eta(s, u):
    """e^s erfc(u) with s - u^2 bounded: computed as e^{s-u^2} * (e^{u^2} erfc(u))."""
    return np.exp(s - u * u) * erfcx_scaled(-u)


# ---------------------------------------------------------------------------
# gamma ladder (alpha = 0), q = 0
# ---------------------------------------------------------------------------

# panels in v = 1/(10 + t) for k(v) = h(t)/v^2, h(t) = e^{-e^{-t}} F(t), which tends to 1 as
# t -> inf; t = -log(gamma x) >= -6.45 keeps F in floating-point range
_LADDER_EDGES = np.array([0.0, 0.04, 0.08, 0.12, 0.18, 1.0 / 3.55])


@cache
def _ladder_table():
    """Per panel, Chebyshev coefficients of k and of G(t) = int_0^v k; built once per process."""
    cheb = np.polynomial.chebyshev

    def k(v: float) -> float:      # h(t)/v^2 at t = 1/v - 10
        return math.exp(-math.exp(10.0 - 1.0 / v)) * fransen_transform(1.0 / v - 10.0) / v ** 2

    rows, left = [], 0.0
    for lo, hi in zip(_LADDER_EDGES[:-1], _LADDER_EDGES[1:]):
        coef = cheb.chebinterpolate(
            lambda s: np.array([k(lo + 0.5 * (hi - lo) * (1.0 + si)) for si in s]), 31)
        if abs(coef[-1]) > 1e-12 * np.abs(coef).max():
            raise NumericalError(f"gamma-ladder interpolant did not converge on v in [{lo}, {hi}]")
        rows.append((coef, cheb.chebint(coef, lbnd=-1, k=left, scl=0.5 * (hi - lo))))
        left = cheb.chebval(1.0, rows[-1][1])
    return rows


def _gamma_ladder(c: float, gamma: float, x: np.ndarray, deriv: bool) -> np.ndarray:
    """W = G(t)/c, or W' = h(t)/(c x) when deriv is set, with t = -log(gamma x), on x >= 0."""
    pos = x > 0.0
    out = np.full(x.shape, math.inf if deriv else 0.0)
    t = -np.log(gamma * x[pos])
    if (t < -6.45).any():
        raise SaturationError(f"gamma-ladder W needs gamma*x <= e^6.45, not e^{-t.min():.4g}")
    v = 1.0 / (10.0 + t)
    row = np.searchsorted(_LADDER_EDGES, v) - 1
    val = np.empty(v.shape)
    for r in np.unique(row):
        on, (lo, hi) = row == r, _LADDER_EDGES[r:r + 2]
        val[on] = np.polynomial.chebyshev.chebval((2.0 * v[on] - lo - hi) / (hi - lo),
                                                  _ladder_table()[r][0 if deriv else 1])
    out[pos] = val * v ** 2 / (c * x[pos]) if deriv else val / c
    return out


def w_gamma_case(c: float, gamma: float) -> ScaleFunction:
    """W of the gamma subordinator ladder (alpha=0, q=0, kappa=zeta=varphi=0), route 'gamma-case':
    G(-log(gamma x))/c, G(t) = int_t^inf e^{-e^{-t'}} F(t') dt', F reciprocal-gamma."""
    return ScaleFunction(0.0, 0.0, "gamma-case", lambda x: _gamma_ladder(c, gamma, x, False),
                         lambda x: _gamma_ladder(c, gamma, x, True),
                         GtscParams(alpha=0.0, gamma=gamma, c=c).exponent())


def w_gamma_case_dual(c: float, gamma: float, x: float) -> float:
    """Oracle route: W(x) = int_0^inf P(c t, gamma x) dt by direct quadrature."""
    from scipy.integrate import quad

    if x <= 0.0:
        return 0.0
    z = gamma * x
    T = (z + 40.0 * math.sqrt(z) + 50.0) / c
    val, _ = quad(lambda t: reg_lower_gamma(c * t, z), 0.0, T, limit=300,
                  epsabs=1e-11, epsrel=1e-10)
    return val


# ---------------------------------------------------------------------------
# boundary behaviour reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroAsymptote:
    w0: float
    wprime0: float          # may be math.inf
    leading_term: str


@dataclass(frozen=True)
class InfinityAsymptote:
    regime: str             # 'constant' | 'exponential' | 'linear'
    constant: float
    rate: float


def asymptote_zero(params: GtscParams, q: float = 0.0) -> ZeroAsymptote:
    """Behaviour of W^(q) at 0+ (independent of q except W'(0+) at alpha = -1)."""
    a, g, c, zeta, kappa = params.alpha, params.gamma, params.c, params.zeta, params.kappa
    if zeta > 0:
        return ZeroAsymptote(w0=0.0, wprime0=1.0 / zeta, leading_term="W ~ x/zeta")
    if a > 0:
        cg = c * sps.gamma(-a)
        coef = -1.0 / (cg * sps.gamma(1.0 + a))
        return ZeroAsymptote(w0=0.0, wprime0=math.inf,
                             leading_term=f"W ~ {coef:.12g} * x^{a:g}")
    if a == 0.0:
        return ZeroAsymptote(w0=0.0, wprime0=math.inf, leading_term="W ~ o(x^eps) (gamma ladder)")
    A = kappa + c * sps.gamma(-a) * g ** a
    # at alpha = -1 the parent has bounded variation, drift A and jump mass
    # m = c (varphi + gamma)/gamma, so W = 1/A + ((m + q)/A^2) x + ...
    coef = (c * (params.varphi + g) / g + q) / A ** 2 if a == -1.0 else c / A ** 2
    return ZeroAsymptote(w0=1.0 / A, wprime0=coef if a == -1.0 else math.inf,
                         leading_term=f"W ~ {1.0 / A:.12g} + {coef / (-a):.12g} * x^{-a:g}")


def asymptote_infinity(params: GtscParams, q: float = 0.0) -> InfinityAsymptote:
    """Behaviour of W^(q) at infinity."""
    psi = params.exponent()
    if q > 0:
        phi_q = big_phi(psi, q)
        return InfinityAsymptote(regime="exponential",
                                 constant=1.0 / psi.deriv(phi_q), rate=phi_q)
    drift = psi.drift_at_zero
    tol = _DRIFT_ZERO_TOL_FACTOR * max(1.0, params.kappa, params.c)
    if drift > tol:
        return InfinityAsymptote(regime="constant", constant=1.0 / drift, rate=0.0)
    if drift < -tol:
        varphi = params.varphi
        denom = float(np.real(params.ladder_exponent(varphi)))
        return InfinityAsymptote(regime="exponential", constant=1.0 / denom, rate=varphi)
    if params.gamma == 0.0:
        raise NotApplicableError("with gamma = 0 and psi'(0+) = 0, W grows like x^alpha: "
                                 "neither linear, nor constant, nor exponential")
    slope = 1.0 / params.ladder_exponent_deriv(0.0)
    return InfinityAsymptote(regime="linear", constant=slope, rate=0.0)


# ---------------------------------------------------------------------------
# route selection
# ---------------------------------------------------------------------------

def scale_function(params: GtscParams, q: float = 0.0, route: str = "auto") -> ScaleFunction:
    """W^(q) of a GTSC parameter set by the named route.

    ``auto`` takes the first that applies: the IG erfc forms (alpha = 1/2,
    gamma > 0, kappa = zeta = varphi = 0), the gamma ladder (alpha = 0,
    q = kappa = zeta = varphi = 0), the rational Mittag-Leffler route
    (alpha = m/n with 0 < |m| < n <= 12), and Bromwich inversion otherwise.
    ``rational``, ``closed``, ``ig`` and ``bromwich`` name a route directly
    and raise ParameterError where it does not apply (CapabilityError for
    ``rational`` with n > 12).
    """
    a = params.alpha
    plain = params.kappa == 0.0 and params.varphi == 0.0 and params.zeta == 0.0
    standing_ig = a == 0.5 and plain and params.gamma > 0.0
    if route == "auto":
        if standing_ig:
            route = "ig"
        elif a == 0.0 and q == 0.0 and plain:
            route = "closed"
        elif _small_rational(a):
            route = "rational"
        else:
            route = "bromwich"
    if route == "rational":
        return w_rational(params, None, q)
    if route == "ig":
        if not standing_ig:
            raise ParameterError(
                "the ig route requires alpha=1/2, gamma > 0 and kappa=varphi=zeta=0")
        return w_ig(params.c * math.sqrt(2.0 * math.pi), math.sqrt(2.0 * params.gamma), q)
    if route == "closed":
        if a == 0.0:
            if q != 0.0 or not plain:
                raise ParameterError("alpha = 0 supports only q=0, kappa=zeta=varphi=0")
            return w_gamma_case(params.c, params.gamma)
        if q != 0.0:
            raise ParameterError("the closed route requires q = 0")
        return w0_closed(params)
    if route == "bromwich":
        psi = params.exponent()
        phi_q = big_phi(psi, q)
        zero = asymptote_zero(params, q)

        def inverse(x: np.ndarray, deriv: bool, at_zero: float) -> np.ndarray:
            out, pos = np.full(x.shape, at_zero), x > 0.0
            out[pos] = _invert_hyperbola(psi, q, x[pos], phi_q + 1.0 / x[pos], deriv)[0]
            return out

        return ScaleFunction(q, phi_q, "bromwich", lambda x: inverse(x, False, zero.w0),
                             lambda x: inverse(x, True, zero.wprime0), psi)
    raise ParameterError(f"unknown route '{route}'")


def _small_rational(alpha: float) -> bool:
    """alpha = m/n with 0 < |m| < n <= 12, the domain of the rational route."""
    try:
        frac = _to_fraction(alpha)
    except CapabilityError:
        return False
    return 0 < abs(frac.numerator) < frac.denominator <= 12
