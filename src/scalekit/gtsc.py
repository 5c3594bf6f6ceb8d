"""Scale functions for the Gaussian tempered stable convolution class.

The ladder height process is a (possibly killed) tempered stable
subordinator with drift: exponent

    phi(theta) = kappa + zeta*theta + c*Gamma(-alpha)*(gamma^alpha - (gamma+theta)^alpha)

(alpha = 0 understood in the limit as kappa + zeta*theta + c*log((gamma+theta)/gamma)),
and the parent process has psi(theta) = (theta - varphi) * phi(theta) with
kappa*varphi = 0.

Evaluation routes for W^(q):

* ``w_rational``   -- alpha = m/n: partial fractions of z^{m_-}/f_q(z) and
  tilted Mittag-Leffler derivatives; near zero the equivalent convergent
  power series (from the expansion of z^{m_-}/f_q at infinity) is used,
  which also yields W(0+) and W'(0+) exactly.
* ``w0_closed``    -- q = 0, zeta = 0, alpha in (-1,1)\\{0}: single-integral
  closed forms.
* ``w_ig``         -- alpha = 1/2 inverse Gaussian ladder: erfc formulas,
  with the branch decided by the sign of q - q0, q0 = (16/27)*delta*gamma^3.
* ``w_gamma_case`` -- alpha = 0, q = 0: reciprocal-gamma-transform density
  integrated in log coordinates, cross-checkable against the
  incomplete-gamma time integral.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import special as sps
from scipy.integrate import quad

from .errors import CapabilityError, NumericalError, ParameterError
from .levy import LadderParams, LaplaceExponent, big_phi
from .polyfrac import RationalAlpha, build_fq, partial_fractions, roots_with_multiplicity
from .special import (erfcx_scaled, fransen_transform, mittag_leffler,
                      mittag_leffler_deriv, reg_lower_gamma, upper_gamma)

__all__ = [
    "GtscParams",
    "ScaleFunction",
    "ZeroAsymptote",
    "InfinityAsymptote",
    "w_rational",
    "w0_closed",
    "w0_closed_scale",
    "w_ig",
    "w_gamma_case",
    "w_gamma_scale",
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
        return z + c * sps.gamma(1.0 - a) * (g + theta) ** (a - 1.0)

    def drift_at_zero(self) -> float:
        """psi'(0+) in closed form."""
        return self.kappa - self.varphi * self.ladder_exponent_deriv(0.0)

    def exponent(self) -> LaplaceExponent:
        varphi = self.varphi

        def psi_eval(theta):
            return (theta - varphi) * self.ladder_exponent(theta)

        def psi_deriv(theta: float) -> float:
            return (float(np.real(self.ladder_exponent(theta)))
                    + (theta - varphi) * self.ladder_exponent_deriv(theta))

        return LaplaceExponent(eval=psi_eval, deriv=psi_deriv, domain_edge=-self.gamma,
                               descriptor="gtsc", drift_at_zero=self.drift_at_zero())

    def ladder(self) -> LadderParams:
        g, c, a = self.gamma, self.c, self.alpha

        def density(x: float) -> float:
            return c * x ** (-a - 1.0) * math.exp(-g * x)

        def tail(x: float) -> float:
            if g > 0:
                return c * g ** a * upper_gamma(-a, g * x)
            return c * x ** (-a) / a if a < 0 else math.inf

        def density_deriv(x: float) -> float:
            return -c * math.exp(-g * x) * ((a + 1.0) * x ** (-a - 2.0)
                                            + g * x ** (-a - 1.0))

        mass = math.inf if a >= 0 else c * sps.gamma(-a) * g ** a
        return LadderParams(kill_rate=self.kappa, drift=self.zeta,
                            levy_density=density, tail=tail,
                            exponent=self.ladder_exponent,
                            exponent_deriv=self.ladder_exponent_deriv,
                            activity_mass=mass, domain_edge=-g,
                            levy_density_deriv=density_deriv)

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
    if isinstance(base, complex):
        return base ** expo
    if base < 0:
        return complex(base) ** expo
    return base ** expo


def _clog(v):
    return cmath.log(v) if isinstance(v, complex) else math.log(v)


# ---------------------------------------------------------------------------
# the scale function object
# ---------------------------------------------------------------------------

class ScaleFunction:
    """Evaluable q-scale function W^(q) with provenance.

    ``eval`` returns W^(q)(x) (0 for x < 0, the right limit at 0);
    ``eval_deriv`` the derivative on (0, inf).  Both take a number or an
    array.  A route that supplies ``pair_fn(x, deriv)`` -- W, and W' when
    deriv is set, on an array of x >= 0 -- has arrays evaluated by it in one
    pass; other routes loop over the points.  Instances are immutable apart
    from an internal memo of scalar values and safe to share.
    """

    def __init__(self, q: float, phi_q: float, route: str,
                 eval_fn: Callable[[float], float],
                 deriv_fn: Optional[Callable[[float], float]] = None,
                 psi: Optional[LaplaceExponent] = None,
                 value_at_zero: Optional[float] = None,
                 pair_fn: Optional[Callable[[np.ndarray, bool], tuple]] = None):
        self.q = q
        self.phi_q = phi_q
        self.route = route
        self.psi = psi
        self._eval_fn = eval_fn
        self._deriv_fn = deriv_fn
        self._value_at_zero = value_at_zero
        self._pair_fn = pair_fn
        self._memo: dict[float, float] = {}

    def _array_pair(self, x, deriv: bool):
        x = np.asarray(x, dtype=float)
        w = np.zeros(x.shape)
        wp = np.zeros(x.shape)
        on = ~(x < 0.0)             # NaN goes on to the route, which rejects it
        w[on], d = self._pair_fn(x[on], deriv)
        if deriv:
            wp[on] = d
        return w, wp

    def eval(self, x):
        if np.ndim(x) > 0:
            if self._pair_fn is not None:
                return self._array_pair(x, False)[0]
            return np.array([self.eval(float(v)) for v in np.asarray(x).ravel()]).reshape(np.shape(x))
        x = float(x)
        if x < 0.0:
            return 0.0
        if x == 0.0 and self._value_at_zero is not None:
            return self._value_at_zero
        got = self._memo.get(x)
        if got is None:
            got = self._eval_fn(x)
            if len(self._memo) < 200_000:
                self._memo[x] = got
        return got

    __call__ = eval

    def eval_deriv(self, x):
        if np.ndim(x) > 0:
            if self._pair_fn is not None:
                return self._array_pair(x, True)[1]
            return np.array([self.eval_deriv(float(v)) for v in np.asarray(x).ravel()]).reshape(np.shape(x))
        x = float(x)
        if x < 0.0:
            return 0.0
        if self._deriv_fn is not None:
            return self._deriv_fn(x)
        h = max(1e-6, 1e-7 * x)
        return (self.eval(x + h) - self.eval(max(x - h, 0.0))) / (h + min(h, x))


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
    if q < 0:
        raise ParameterError("q must be nonnegative")
    n = alpha.n
    gamma = params.gamma
    fq = build_fq(params, alpha, q)
    roots, mults = roots_with_multiplicity(fq)
    pf = partial_fractions(fq, alpha.m_minus, roots=roots, mults=mults)
    phi_q = float(roots[0].real) ** n - gamma

    # expansion of z^{m_-}/f_q(z) at infinity: b[i] is the z^{-i} coefficient;
    # W e^{gamma x} = sum_i b_i x^{i/n-1}/Gamma(i/n) converges for all x and is
    # the well-conditioned representation near zero.
    bcoef = _inverse_expansion(fq, alpha.m_minus, 40 * n + 240)
    rmax = max(abs(r) for r in roots)
    x_switch = (0.45 / rmax) ** n if rmax > 0 else math.inf

    inv_n = 1.0 / n
    # partial fractions as arrays: pf_coef[j, r] = coefficient / j! (0 for j >= mu_r)
    pf_roots = np.asarray(pf.roots, dtype=complex)
    pf_mults = np.asarray(pf.multiplicities)
    max_mu = int(pf_mults.max())
    pf_coef = np.zeros((max_mu, pf_roots.size), dtype=complex)
    for r, (mu, row) in enumerate(zip(pf.multiplicities, pf.coeffs)):
        pf_coef[:mu, r] = [row[j] / math.factorial(j) for j in range(mu)]
    # nonzero terms of the small-x series: coefficient b_i/Gamma(i/n) and power i/n - 1
    idx = np.flatnonzero(bcoef[1:]) + 1
    s_coef = bcoef[idx] * sps.rgamma(idx * inv_n)
    s_pow = idx * inv_n - 1.0
    s_late = idx > 2 * n
    w0 = bcoef[n] if len(bcoef) > n else 0.0
    wp0 = asymptote_zero(params, q).wprime0

    def _series_pair(x: np.ndarray, deriv: bool):
        # the series summed up to its first negligible term beyond i = 2n, per x
        with np.errstate(over="ignore", invalid="ignore"):
            terms = s_coef * x[:, None] ** s_pow
            partial = np.cumsum(terms, axis=1)
            stop = s_late & (np.abs(terms) < 1e-18 * (np.abs(partial) + 1e-300))
        last = np.where(stop.any(axis=1), stop.argmax(axis=1), idx.size - 1)
        rows = np.arange(x.size)
        ex = np.exp(-gamma * x)
        s = partial[rows, last]
        if not deriv:
            return ex * s, None
        sd = np.cumsum(terms * s_pow / x[:, None], axis=1)[rows, last]
        return ex * s, ex * (sd - gamma * s)

    def _real(total: np.ndarray, x: np.ndarray) -> np.ndarray:
        bad = np.abs(total.imag) > 1e-9 * (1.0 + np.abs(total.real))
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericalError(f"imaginary residue {total.imag[i]:.3g} in the "
                                 f"Mittag-Leffler sum at x={x[i]:.6g}")
        return total.real

    def _pfd_pair(x: np.ndarray, deriv: bool):
        # ML_j(r x^{1/n}) for all roots r at once, j <= mu (j < mu for W alone)
        z = np.outer(pf_roots, x ** inv_n)
        ml = []
        for j in range(max_mu + deriv):
            on = pf_mults + deriv > j
            ml_j = np.zeros(z.shape, dtype=complex)
            ml_j[on] = mittag_leffler_deriv(inv_n, inv_n, j, z[on])
            ml.append(ml_j)
        total = np.zeros(x.size, dtype=complex)
        dtotal = np.zeros(x.size, dtype=complex)
        for j in range(max_mu):
            p1 = (j + 1) * inv_n - 1.0
            # root by root, so that a point's sum does not depend on the points around it
            s_j = sum(c * m for c, m in zip(pf_coef[j], ml[j]))
            total += s_j * x ** p1
            if deriv:
                t_j = sum(c * r * m for c, r, m in zip(pf_coef[j], pf_roots, ml[j + 1]))
                dtotal += p1 * s_j * x ** (p1 - 1.0) + inv_n * t_j * x ** ((j + 2) * inv_n - 2.0)
        ex = np.exp(-gamma * x)
        w = _real(total * ex, x)
        return w, (_real(dtotal * ex, x) - gamma * w if deriv else None)

    def pair_fn(x: np.ndarray, deriv: bool):
        """W, and W' when deriv is set, on an array of x >= 0 in one pass."""
        if np.isnan(x).any():
            raise ParameterError("x must be a number, got NaN")
        w = np.full(x.shape, w0)
        wp = np.full(x.shape, wp0) if deriv else None
        for branch, sel in ((_series_pair, (x > 0.0) & (x <= x_switch)),
                            (_pfd_pair, x > x_switch)):
            if sel.any():
                w[sel], d = branch(x[sel], deriv)
                if deriv:
                    wp[sel] = d
        return w, wp

    def eval_fn(x: float) -> float:
        return float(pair_fn(np.array([x]), False)[0][0])

    def deriv_fn(x: float) -> float:
        return float(pair_fn(np.array([x]), True)[1][0])

    return ScaleFunction(q=q, phi_q=phi_q, route="rational-ML",
                         eval_fn=eval_fn, deriv_fn=deriv_fn,
                         psi=params.exponent(), value_at_zero=w0, pair_fn=pair_fn)


def _to_fraction(alpha: float):
    from fractions import Fraction

    fr = Fraction(alpha).limit_denominator(1_000_000)
    if abs(float(fr) - alpha) > 1e-12:
        raise CapabilityError("alpha is not recognizably rational; use the bromwich route")
    return fr


def _inverse_expansion(fq: np.ndarray, m_minus: int, nterms: int) -> np.ndarray:
    """Coefficients b with z^{m_-}/f_q(z) = sum_{i>=1} b_i z^{-i} for large z."""
    coeffs = np.asarray(fq, dtype=float)
    D = coeffs.size - 1
    lead = coeffs[-1]
    # e_j recursion for 1/(1 + sum_{l>=1} (d_l/d0) z^{-l}), d_l = c_{D-l}/lead
    L = nterms
    e = np.zeros(L)
    e[0] = 1.0
    dd = np.zeros(min(D, L - 1) + 1)
    for l in range(1, dd.size):
        dd[l] = coeffs[D - l] / lead
    for j in range(1, L):
        acc = 0.0
        for l in range(1, min(j, dd.size - 1) + 1):
            acc += dd[l] * e[j - l]
        e[j] = -acc
    b = np.zeros(L + D - m_minus + 1)
    for j in range(L):
        i = D - m_minus + j
        if i < b.size:
            b[i] = e[j] / lead
    return b


# ---------------------------------------------------------------------------
# closed forms for q=0, zeta=0, alpha in (-1,1)\{0}
# ---------------------------------------------------------------------------

def w0_closed(params: GtscParams, x: float) -> float:
    """W(x) for q = 0, zeta = 0 through the single-integral closed form."""
    if params.zeta != 0.0:
        raise ParameterError("closed form requires zeta = 0 (wrong branch)")
    a = params.alpha
    if not (-1.0 < a < 1.0) or a == 0.0:
        raise ParameterError("closed form requires alpha in (-1,1) excluding 0")
    if x < 0.0:
        return 0.0
    g, c, kappa, varphi = params.gamma, params.c, params.kappa, params.varphi
    cg = c * sps.gamma(-a)

    if a > 0:
        base = 0.0
        pref = -math.exp(varphi * x) / cg
        abar = a
        lam = (kappa + cg * g ** a) / cg
    else:
        A = kappa + cg * g ** a
        base = math.exp(varphi * x) / A
        pref = cg * math.exp(varphi * x) / A ** 2
        abar = -a
        lam = cg / A
    if x == 0.0:
        return base if a < 0 else 0.0

    def integrand(y: float) -> float:
        e = mittag_leffler(abar, abar, lam * y ** abar).real
        return math.exp(-(g + varphi) * y) * y ** (abar - 1.0) * e

    pts = []
    if lam != 0.0:
        ystar = (5.0 / abs(lam)) ** (1.0 / abar)
        if 0.0 < ystar < x:
            pts.append(ystar)
    val, est = quad(integrand, 0.0, x, points=pts or None, limit=300,
                    epsabs=1e-12, epsrel=1e-11)
    if abs(est) > 1e-9 * (1.0 + abs(val)):
        raise NumericalError(f"closed-form quadrature error estimate {est:.2g} too large")
    return base + pref * val


def w0_closed_scale(params: GtscParams) -> ScaleFunction:
    """ScaleFunction wrapper around ``w0_closed`` (route 'closed-form')."""
    psi = params.exponent()
    phi0 = big_phi(psi, 0.0)
    a = params.alpha
    if a < 0:
        w0 = 1.0 / (params.kappa + params.c * sps.gamma(-a) * params.gamma ** a)
    else:
        w0 = 0.0
    return ScaleFunction(q=0.0, phi_q=phi0, route="closed-form",
                         eval_fn=lambda x: w0_closed(params, x),
                         psi=psi, value_at_zero=w0)


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
    1e-9 relative) uses the double-root branch; derivative by complex-step
    differentiation, which is exact for these entire expressions.
    """
    if delta <= 0 or gamma <= 0:
        raise ParameterError("delta and gamma must be positive")
    if q < 0:
        raise ParameterError("q must be nonnegative")
    params = ig_params(delta, gamma)
    q0 = ig_q0_threshold(delta, gamma)
    c0 = gamma ** 2 / 2.0

    if q == 0.0:
        def value(x: float) -> float:
            if x < 0.0:
                return 0.0
            sx = math.sqrt(x)
            term = ((1.0 + gamma ** 2 * x) * sps.erfc(-gamma * sx / math.sqrt(2.0))
                    + gamma * sx * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * gamma ** 2 * x)
                    - 1.0)
            return term / (2.0 * delta * gamma)

        def deriv(x: float) -> float:
            if x <= 0.0:
                return math.inf
            return (gamma / (2.0 * delta)) * sps.erfc(-gamma * math.sqrt(x / 2.0)) \
                + math.exp(-0.5 * gamma ** 2 * x) / (delta * math.sqrt(2.0 * math.pi * x))

        return ScaleFunction(q=0.0, phi_q=0.0, route="ig", eval_fn=value,
                             deriv_fn=deriv, psi=params.exponent(), value_at_zero=0.0)

    fq = build_fq(params, RationalAlpha(1, 2), q)
    roots, mults = roots_with_multiplicity(fq)
    phi_q = float(roots[0].real) ** 2 - c0

    if abs(q - q0) <= 1e-9 * q0:
        def value(x: float) -> float:
            if x < 0.0:
                return 0.0
            sx = math.sqrt(x)
            g2x = gamma ** 2 * x
            t1 = 6.0 * gamma * math.sqrt(2.0 / math.pi) * sx * math.exp(-0.5 * g2x)
            t2 = 15.0 * _scaled_eta((8.0 / 9.0) * g2x, -(5.0 * gamma / 3.0) * sx / math.sqrt(2.0))
            t3 = math.exp(-(4.0 / 9.0) * g2x) * (15.0 + 2.0 * g2x) \
                * sps.erfc((gamma / 3.0) * sx / math.sqrt(2.0))
            return float(np.real(t1 + t2 - t3)) / (36.0 * delta * gamma)

        def deriv(x: float) -> float:
            # double-root branch is exercised on a measure-zero set; a
            # Richardson-extrapolated central difference is plenty here
            if x <= 0.0:
                return math.inf
            h = 1e-5 * (1.0 + x)
            d1 = (value(x + h) - value(max(x - h, 0.0))) / (2.0 * h)
            d2 = (value(x + h / 2) - value(max(x - h / 2, 0.0))) / h
            return (4.0 * d2 - d1) / 3.0

        return ScaleFunction(q=q, phi_q=phi_q, route="ig", eval_fn=value,
                             deriv_fn=deriv, psi=params.exponent(), value_at_zero=0.0)

    der = np.polynomial.polynomial.polyder(np.asarray(fq))
    weights = []
    ordered = []
    for r, mu in zip(roots, mults):
        if mu != 1:
            raise NumericalError("unexpected multiple root away from q0 in the IG cubic")
        fp = np.polynomial.polynomial.polyval(r, der)
        weights.append(r / fp)
        ordered.append(r)
    wr_sum = complex(sum(w * r for w, r in zip(weights, ordered)))

    def value(x: float) -> float:
        if x < 0.0:
            return 0.0
        sx = math.sqrt(x)
        total = 0.0j
        for r, w in zip(ordered, weights):
            total += w * _scaled_eta((r * r - c0) * x, -r * sx)
        if abs(total.imag) > 1e-9 * (1.0 + abs(total.real)):
            raise NumericalError(f"imaginary residue in IG scale sum at x={x}")
        return total.real

    def deriv(x: float) -> float:
        if x <= 0.0:
            return math.inf
        sx = math.sqrt(x)
        total = 0.0j
        for r, w in zip(ordered, weights):
            total += w * (r * r - c0) * _scaled_eta((r * r - c0) * x, -r * sx)
        total += wr_sum * math.exp(-c0 * x) / math.sqrt(math.pi * x)
        return total.real

    return ScaleFunction(q=q, phi_q=phi_q, route="ig", eval_fn=value,
                         deriv_fn=deriv, psi=params.exponent(), value_at_zero=0.0)


def _scaled_eta(s, u):
    """e^s erfc(u) with s - u^2 bounded: computed as e^{s-u^2} * (e^{u^2} erfc(u))."""
    ex = s - u * u
    return cmath.exp(ex) * erfcx_scaled(-u) if isinstance(ex, complex) \
        else math.exp(ex) * erfcx_scaled(complex(-u))


# ---------------------------------------------------------------------------
# gamma ladder (alpha = 0), q = 0
# ---------------------------------------------------------------------------

def w_gamma_case(c: float, gamma: float, x: float) -> float:
    """W(x) for the gamma subordinator ladder (alpha=0, q=0, kappa=zeta=varphi=0).

    Integrates the scale density W'(y) = (1/c) y^{-1} e^{-gamma y} F(-log(gamma y))
    in the substitution y = e^{-t}/gamma, which removes the logarithmic
    endpoint singularity at y = 0; F is the reciprocal-gamma transform.
    """
    if c <= 0 or gamma <= 0:
        raise ParameterError("c and gamma must be positive")
    if x <= 0.0:
        return 0.0
    t0 = -math.log(gamma * x)

    def integrand(t: float) -> float:
        return math.exp(-math.exp(-t)) * fransen_transform(t)

    val, est = quad(integrand, t0, np.inf, limit=300, epsabs=1e-11, epsrel=1e-10)
    if abs(est) > 1e-7 * (1.0 + abs(val)):
        raise NumericalError(
            f"alpha=0 quadrature stagnated (estimate {est:.2g}); the integrand's "
            "log-singularity split may need refinement")
    return val / c


def w_gamma_case_dual(c: float, gamma: float, x: float) -> float:
    """Oracle route: W(x) = int_0^inf P(c t, gamma x) dt by direct quadrature."""
    if x <= 0.0:
        return 0.0
    z = gamma * x
    T = (z + 40.0 * math.sqrt(z) + 50.0) / c
    val, _ = quad(lambda t: reg_lower_gamma(c * t, z), 0.0, T, limit=300,
                  epsabs=1e-11, epsrel=1e-10)
    return val


def w_gamma_scale(c: float, gamma: float) -> ScaleFunction:
    params = GtscParams(alpha=0.0, gamma=gamma, c=c)
    psi = params.exponent()

    def deriv_fn(x: float) -> float:
        if x <= 0.0:
            return math.inf
        return fransen_transform(-math.log(gamma * x)) * math.exp(-gamma * x) / (c * x)

    return ScaleFunction(q=0.0, phi_q=0.0, route="gamma-case",
                         eval_fn=lambda x: w_gamma_case(c, gamma, x),
                         deriv_fn=deriv_fn, psi=psi, value_at_zero=0.0)


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
    """Behaviour of W^(q) at 0+ (independent of q)."""
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
    coef = c / A ** 2
    return ZeroAsymptote(w0=1.0 / A, wprime0=math.inf,
                         leading_term=f"W ~ {1.0 / A:.12g} + {coef / (-a):.12g} * x^{-a:g}")


def asymptote_infinity(params: GtscParams, q: float = 0.0) -> InfinityAsymptote:
    """Behaviour of W^(q) at infinity."""
    psi = params.exponent()
    if q > 0:
        phi_q = big_phi(psi, q)
        return InfinityAsymptote(regime="exponential",
                                 constant=1.0 / psi.deriv(phi_q), rate=phi_q)
    drift = params.drift_at_zero()
    tol = _DRIFT_ZERO_TOL_FACTOR * max(1.0, params.kappa, params.c)
    if drift > tol:
        return InfinityAsymptote(regime="constant", constant=1.0 / drift, rate=0.0)
    if drift < -tol:
        varphi = params.varphi
        denom = float(np.real(params.ladder_exponent(varphi)))
        return InfinityAsymptote(regime="exponential", constant=1.0 / denom, rate=varphi)
    slope = 1.0 / params.ladder_exponent_deriv(0.0)
    return InfinityAsymptote(regime="linear", constant=slope, rate=0.0)
