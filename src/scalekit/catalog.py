"""The classical explicit scale-function families.

Each constructor returns a ScaleFunction paired with its Laplace exponent,
so every entry can be checked against the defining transform identity
int_0^inf exp(-theta x) W(x) dx = 1/(psi(theta) - q).

CORRECTIONS.  Three printed formulas circulating for these families fail
that identity and are shipped here in the identity-passing form:

* brownian     -- the sinh argument must carry mu^2 (not mu) under the
                  square root: sqrt(mu^2 + 2 q sigma^2).
* cramer_lundberg -- the exponent must decay: exp(-(mu - lambda/c) x).
* fixed_jumps  -- the sum starts at n = 0 (the n >= 1 version vanishes on
                  [0, jump) and misses W(0+) = 1/c).

Each corrected family carries a regression test demonstrating that the
uncorrected variant violates the transform identity by more than 1e-2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as sps

from .errors import ParameterError
from .levy import LaplaceExponent
from .scale import ScaleFunction
from .special import mittag_leffler

__all__ = [
    "CatalogEntry",
    "CORRECTIONS",
    "w_brownian",
    "w_stable",
    "w_stable_drift",
    "w_cramer_lundberg",
    "w_fixed_jumps",
    "w_abate_whitt",
    "w_pssmp",
    "catalog_families",
    "family_parameters",
    "build_catalog_entry",
]

CORRECTIONS = {
    "brownian": "sinh argument corrected to sqrt(mu^2 + 2 q sigma^2)",
    "cramer_lundberg": "exponent sign corrected to exp(-(mu - lambda/c) x)",
    "fixed_jumps": "sum index corrected to start at n = 0",
}


@dataclass(frozen=True)
class CatalogEntry:
    """A family's parameters and its scale function, whose ``psi`` is the family's exponent."""

    params: dict
    scale: ScaleFunction


# ---------------------------------------------------------------------------
# 1. Brownian motion with drift
# ---------------------------------------------------------------------------

def w_brownian(sigma: float, mu: float, q: float = 0.0) -> ScaleFunction:
    """W^(q) for psi(theta) = sigma^2 theta^2 / 2 + mu theta."""
    if not sigma > 0:
        raise ParameterError("sigma must be positive")
    if not 0.0 <= q < math.inf:
        raise ParameterError(f"q must be finite and nonnegative, got {q}")
    s2 = sigma * sigma
    disc = mu * mu + 2.0 * q * s2
    rt = math.sqrt(disc)

    if rt == 0.0:
        def value(x: np.ndarray) -> np.ndarray:
            return 2.0 * x / s2 * np.exp(-mu * x / s2)

        def deriv(x: np.ndarray) -> np.ndarray:
            return (2.0 / s2 - 2.0 * x * mu / s2 ** 2) * np.exp(-mu * x / s2)
    else:
        def value(x: np.ndarray) -> np.ndarray:
            # (2/rt) e^{-mu x/s2} sinh(x rt/s2), finite wherever W is (rt >= |mu|)
            return -np.exp((rt - mu) * x / s2) * np.expm1(-2.0 * rt * x / s2) / rt

        def deriv(x: np.ndarray) -> np.ndarray:
            # (2/s2) e^{-mu x/s2} (cosh - (mu/rt) sinh)(x rt/s2) without the cancellation
            return ((1.0 - mu / rt) * np.exp((rt - mu) * x / s2)
                    + (1.0 + mu / rt) * np.exp(-(rt + mu) * x / s2)) / s2

    def psi_eval(theta):
        return 0.5 * s2 * theta * theta + mu * theta

    psi = LaplaceExponent(eval=psi_eval, drift_at_zero=mu)
    phi_q = (-mu + rt) / s2
    return ScaleFunction(q, phi_q, "catalog", value, deriv, psi)


# ---------------------------------------------------------------------------
# 2. Stable (and stable plus drift)
# ---------------------------------------------------------------------------

def w_stable(beta: float, q: float = 0.0) -> ScaleFunction:
    """W^(q)(x) = x^{beta-1} E_{beta,beta}(q x^beta) for psi(theta) = theta^beta, and
    W'(x) = x^{beta-2} E_{beta,beta-1}(q x^beta).

    beta = 2 is admitted as the Brownian boundary (psi = theta^2).
    """
    if not 1.0 < beta <= 2.0:
        raise ParameterError("stable index beta must lie in (1, 2]")
    if not 0.0 <= q < math.inf:
        raise ParameterError(f"q must be finite and nonnegative, got {q}")

    def arg(x: np.ndarray) -> np.ndarray:
        # exactly 0 at q = 0, also where x^beta overflows
        return q * x ** beta if q > 0 else np.zeros(x.shape)

    def value(x: np.ndarray) -> np.ndarray:
        return x ** (beta - 1.0) * mittag_leffler(beta, beta, arg(x)).real

    def deriv(x: np.ndarray) -> np.ndarray:
        return x ** (beta - 2.0) * mittag_leffler(beta, beta - 1.0, arg(x)).real

    def psi_eval(theta):
        return theta ** beta

    psi = LaplaceExponent(eval=psi_eval, drift_at_zero=0.0)
    return ScaleFunction(q, q ** (1.0 / beta), "catalog", value, deriv, psi)


def w_stable_drift(beta: float, c: float) -> ScaleFunction:
    """q = 0 scale function of psi(theta) = theta^beta + c theta, c > 0.

    W(x) = (1/c)(1 - E_{beta-1}(-c x^{beta-1})), W' = x^{beta-2} E_{beta-1,beta-1}(-c x^{beta-1});
    the exponent pairing is validated by the transform identity before the entry is enabled.
    """
    if not 1.0 < beta < 2.0:
        raise ParameterError("stable index beta must lie in (1, 2)")
    if not c > 0:
        raise ParameterError("drift c must be positive")
    bm1 = beta - 1.0

    def value(x: np.ndarray) -> np.ndarray:
        return (1.0 - mittag_leffler(bm1, 1.0, -c * x ** bm1).real) / c

    def deriv(x: np.ndarray) -> np.ndarray:
        return x ** (bm1 - 1.0) * mittag_leffler(bm1, bm1, -c * x ** bm1).real

    def psi_eval(theta):
        return theta ** beta + c * theta

    psi = LaplaceExponent(eval=psi_eval, drift_at_zero=c)
    return ScaleFunction(0.0, 0.0, "catalog", value, deriv, psi)


# ---------------------------------------------------------------------------
# 3. Cramer-Lundberg with exponential claims
# ---------------------------------------------------------------------------

def w_cramer_lundberg(ccoef: float, lam: float, mu: float) -> ScaleFunction:
    """q = 0 scale function of psi(theta) = c theta - lambda theta/(mu + theta).

    Requires positive net drift c - lambda/mu > 0.  W(0+) = 1/c and
    W(inf) = 1/(c - lambda/mu).
    """
    if not (ccoef > 0 and lam > 0 and mu > 0):
        raise ParameterError("ccoef, lambda, mu must be positive")
    if ccoef - lam / mu <= 0:
        raise ParameterError("net drift must be positive: ccoef - lambda/mu > 0")
    rate = mu - lam / ccoef   # > 0 under the net-drift condition

    def value(x: np.ndarray) -> np.ndarray:
        return (1.0 + lam / (ccoef * mu - lam) * (1.0 - np.exp(-rate * x))) / ccoef

    def deriv(x: np.ndarray) -> np.ndarray:
        return lam * rate / (ccoef * (ccoef * mu - lam)) * np.exp(-rate * x)

    def psi_eval(theta):
        return ccoef * theta - lam * theta / (mu + theta)

    psi = LaplaceExponent(eval=psi_eval, drift_at_zero=ccoef - lam / mu)
    return ScaleFunction(0.0, 0.0, "catalog", value, deriv, psi)


# ---------------------------------------------------------------------------
# 4. Drift minus compound Poisson with fixed jump size
# ---------------------------------------------------------------------------

def w_fixed_jumps(ccoef: float, lam: float, jump: float) -> ScaleFunction:
    """q = 0 scale function of psi(theta) = c theta - lambda (1 - exp(-jump*theta)).

    W(x) = (1/c) sum_{n=0}^{floor(x/jump)} e^{-lam(jump n - x)/c} (lam/c)^n (jump n - x)^n / n!
    (piecewise smooth with kinks at multiples of the jump size) and
    W'(x) = (lam/c)(W(x) - W(x - jump)), the inverse of theta/psi - 1/c, with W = 0 for x < 0.
    The zeros of psi are theta_k = lam/c + W_k(-a e^{-a})/jump, a = lam jump/c, W_k the
    branches of the Lambert W function: k = 0 gives 0, k = -1 the negative zero theta2, and
    k >= 1 the complex pairs, theta_k with its conjugate theta_{-k-1}.  Where the pair k = 4
    weighs below 1e-16 W(inf), the alternating sum gives way to the pole sum
    W = 1/psi'(0+) + sum_k e^{theta_k x}/psi'(theta_k) over theta2 and the pairs k = 1, 2, 3.
    """
    if not (ccoef > 0 and lam >= 0 and jump > 0):
        raise ParameterError("ccoef, jump must be positive and lambda nonnegative")
    if ccoef - lam * jump <= 0:
        raise ParameterError("net drift must be positive: ccoef - lambda*jump > 0")
    lc = lam / ccoef
    drift0 = ccoef - lam * jump

    def psi_eval(theta):
        return ccoef * theta - lam * (1.0 - np.exp(-jump * theta))

    def psi_deriv(theta):
        return ccoef - lam * jump * np.exp(-jump * theta)

    x_tail, poles, resid = math.inf, np.zeros(0), np.zeros(0)    # without jumps, no tail
    if lam > 0:
        a = lc * jump
        # branches k = -1 (theta2) and 1-4; the pair k = 4 only places the switch
        theta = lc + sps.lambertw(-a * math.exp(-a), np.array([-1, 1, 2, 3, 4])) / jump
        theta[0] = theta[0].real
        # a pair weighs 2 |e^{theta_k x}/psi'(theta_k)|, against W(inf) = 1/psi'(0+)
        x_tail = math.log(2e16 * drift0 / abs(psi_deriv(theta[4]))) / -theta[4].real
        poles = theta[:4]
        resid = np.array([1.0, 2.0, 2.0, 2.0]) / psi_deriv(poles)

    def value(x: np.ndarray) -> np.ndarray:
        """W on any x: 0 below 0, the alternating sum up to x_tail, the pole sum beyond."""
        out = np.zeros(x.shape)
        body, tail = (x >= 0.0) & (x < x_tail), x >= x_tail
        if body.any():
            out[body] = alternating(x[body])
        out[tail] = 1.0 / drift0 + pole_sum(x[tail], resid)
        return out

    def pole_sum(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # pole by pole in a fixed order, so no x depends on the others
        return sum(w * np.exp(p * x) for p, w in zip(poles, weights)).real

    def alternating(x: np.ndarray) -> np.ndarray:
        # term n of row x: e^{-lam u/c} (lam u / c)^n / n!, u = jump n - x <= 0, so the signs
        # alternate; a row ends at floor(x/jump), snapped so kinks sit exactly at multiples
        top = np.floor(x / jump + 1e-12) if lam > 0 else np.zeros(x.shape)
        n = np.arange(top.max() + 1.0)
        u = jump * n - x[:, None]
        logmag = -lc * u + n * np.log(np.abs(lc * u, where=n > 0, out=np.ones_like(u))) \
            - sps.gammaln(n + 1.0)      # -inf where u = 0 < n, so that term is 0
        logmag[:, 0] = lc * x
        vals = np.where(n % 2 == 0, 1.0, -1.0) * np.exp(logmag)
        # rows of one length summed together, so each row gets numpy's pairwise sum of
        # exactly its own terms, whatever the other rows are
        out = np.empty(x.shape)
        for t in np.unique(top):
            on = top == t
            out[on] = vals[on, :int(t) + 1].sum(axis=1)
        return out / ccoef

    def deriv(x: np.ndarray) -> np.ndarray:
        out, tail = np.empty(x.shape), x >= x_tail
        out[~tail] = lc * (value(x[~tail]) - value(x[~tail] - jump))
        out[tail] = pole_sum(x[tail], resid * poles)
        return out

    psi = LaplaceExponent(eval=psi_eval, drift_at_zero=drift0)
    return ScaleFunction(0.0, 0.0, "catalog", value, deriv, psi)


# ---------------------------------------------------------------------------
# 5. Unit drift minus heavy-tailed compound Poisson (erfc family)
# ---------------------------------------------------------------------------

def w_abate_whitt(lam: float, mu: float) -> ScaleFunction:
    """q = 0 scale function for the unit-drift queueing family.

    psi(theta) = theta - lambda*theta/((mu + sqrt(theta))(1 + sqrt(theta))),
    W(x) = (1-lam/mu)^{-1} [1 - (lam/mu)/(nu1 - nu2) (nu1 eta(x nu2^2) - nu2 eta(x nu1^2))]
    with eta(x) = e^x erfc(sqrt(x)), and W' in closed form, W'(0) = lambda.
    Coalescing nu1 = nu2 is handled by the limit formula.
    """
    if not (lam > 0 and mu > 0):
        raise ParameterError("lambda and mu must be positive")
    rho = lam / mu
    if rho >= 1.0:
        raise ParameterError("drift condition requires lambda/mu < 1")
    half = (1.0 + mu) / 2.0
    disc = half * half - (1.0 - rho) * mu
    pref = 1.0 / (1.0 - rho)

    if abs(disc) < 1e-14 * half * half:
        nu = half

        def value(x: np.ndarray) -> np.ndarray:
            u = nu * nu * x
            et = sps.erfcx(np.sqrt(u))
            lim = (1.0 - 2.0 * u) * et + 2.0 * np.sqrt(u / math.pi)
            return pref * (1.0 - rho * lim)

        def deriv(x: np.ndarray) -> np.ndarray:
            return pref * rho * nu * nu * _coalescent_slope(nu * nu * x)
    else:
        root = math.sqrt(disc)
        nu1, nu2 = half + root, half - root

        def value(x: np.ndarray) -> np.ndarray:
            e1 = sps.erfcx(np.sqrt(x) * nu2)
            e2 = sps.erfcx(np.sqrt(x) * nu1)
            return pref * (1.0 - rho / (nu1 - nu2) * (nu1 * e1 - nu2 * e2))

        def deriv(x: np.ndarray) -> np.ndarray:
            # d/dx erfcx(nu sqrt x) = nu^2 erfcx(nu sqrt x) - nu/sqrt(pi x); 1/sqrt x cancels
            e1 = sps.erfcx(np.sqrt(x) * nu2)
            e2 = sps.erfcx(np.sqrt(x) * nu1)
            return -pref * rho * nu1 * nu2 * (nu2 * e1 - nu1 * e2) / (nu1 - nu2)

    def psi_eval(theta):
        rt = np.sqrt(theta + 0j)
        return theta - lam * theta / ((mu + rt) * (1.0 + rt))

    psi = LaplaceExponent(eval=psi_eval, drift_at_zero=1.0 - rho)
    return ScaleFunction(0.0, 0.0, "catalog", value, deriv, psi)


# (1 + 2u) erfcx(sqrt u) - 2 sqrt(u/pi) is 1/u^2 the size of its terms.  Against 50-digit mpmath
# the direct form errs by up to 1.4e-12 relative at u = 40 and 1.8e-11 at u = 300, while the
# asymptotic series sum_{k=1}^{40} -2k e_k u^{-k}/sqrt(pi u), e_k = (-1)^k (2k-1)!!/2^k the
# coefficients of erfcx(sqrt u) sqrt(pi u), errs by 1e-14 at u = 40 and by 2e-16 from u = 45.
_COALESCENT_U = 40.0
_COALESCENT_SERIES = (-2.0 * np.arange(1, 41)
                      * np.cumprod(-(2.0 * np.arange(1, 41) - 1.0) / 2.0))[::-1]


def _coalescent_slope(u: np.ndarray) -> np.ndarray:
    """(1 + 2u) erfcx(sqrt u) - 2 sqrt(u/pi) on u >= 0, by its asymptotic series from u = 40."""
    out, far = np.empty(u.shape), u >= _COALESCENT_U
    near, v = u[~far], 1.0 / u[far]
    out[~far] = (1.0 + 2.0 * near) * sps.erfcx(np.sqrt(near)) - 2.0 * np.sqrt(near / math.pi)
    out[far] = v * np.polyval(_COALESCENT_SERIES, v) / np.sqrt(math.pi * u[far])
    return out


# ---------------------------------------------------------------------------
# 6. Self-similar growth-fragmentation related family
# ---------------------------------------------------------------------------

def w_pssmp(beta: float, conditioned: bool) -> ScaleFunction:
    """q = 0 scale functions from positive self-similar Markov processes.

    Unconditioned: W(x) = (1 - e^{-x})^{beta-1} e^x with
    psi(theta) = Gamma(theta - 1 + beta)/(Gamma(theta - 1) Gamma(beta));
    conditioned to drift to +inf: W(x) = (1 - e^{-x})^{beta-1} with
    psi(theta) = Gamma(theta + beta)/(Gamma(theta) Gamma(beta)).
    """
    if not 1.0 < beta < 2.0:
        raise ParameterError("beta must lie in (1, 2)")
    lgb = sps.gammaln(beta)

    if conditioned:
        def value(x: np.ndarray) -> np.ndarray:
            return (-np.expm1(-x)) ** (beta - 1.0)

        def deriv(x: np.ndarray) -> np.ndarray:
            return (beta - 1.0) * (-np.expm1(-x)) ** (beta - 2.0) * np.exp(-x)

        shift = 0.0
        phi0 = 0.0
        drift0 = 1.0
    else:
        def value(x: np.ndarray) -> np.ndarray:
            return (-np.expm1(-x)) ** (beta - 1.0) * np.exp(x)

        def deriv(x: np.ndarray) -> np.ndarray:
            em = -np.expm1(-x)
            return np.exp(x) * em ** (beta - 2.0) * ((beta - 1.0) * np.exp(-x) + em)

        shift = 1.0
        phi0 = 1.0
        drift0 = -1.0 / (beta - 1.0)

    def psi_eval(theta):
        return _gamma_ratio(theta - shift, beta, lgb)

    psi = LaplaceExponent(eval=psi_eval, drift_at_zero=drift0)
    return ScaleFunction(0.0, phi0, "catalog", value, deriv, psi)


def _gamma_ratio(t, beta, lgb):
    """Gamma(t + beta) / (Gamma(t) Gamma(beta)), entire in t via rgamma.

    For |t| >= 100, where Gamma(t + beta) overflows, the log-gamma difference
    is used instead.
    """
    t = np.asarray(t, dtype=complex)
    lg = sps.loggamma(t + beta) - lgb
    with np.errstate(all="ignore"):
        out = np.where(np.abs(t) < 100.0, np.exp(lg) * sps.rgamma(t),
                       np.exp(lg - sps.loggamma(t)))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "brownian": {"sigma": 1.0, "mu": 0.5, "q": 0.0},
    "stable": {"beta": 1.5, "q": 0.0},
    "stable_drift": {"beta": 1.5, "c": 1.0},
    "cramer_lundberg": {"ccoef": 2.0, "lam": 1.0, "mu": 1.0},
    "fixed_jumps": {"ccoef": 1.0, "lam": 0.5, "jump": 1.0},
    "abate_whitt": {"lam": 0.5, "mu": 1.0},
    "pssmp_drift_down": {"beta": 1.5, "conditioned": False},
    "pssmp_conditioned": {"beta": 1.5, "conditioned": True},
}

_BUILDERS: dict[str, Callable[..., ScaleFunction]] = {
    "brownian": w_brownian,
    "stable": w_stable,
    "stable_drift": w_stable_drift,
    "cramer_lundberg": w_cramer_lundberg,
    "fixed_jumps": w_fixed_jumps,
    "abate_whitt": w_abate_whitt,
    "pssmp_drift_down": w_pssmp,
    "pssmp_conditioned": w_pssmp,
}


def catalog_families() -> list[str]:
    return sorted(_BUILDERS)


def family_parameters(family: str) -> tuple[str, ...]:
    """Names of the parameters ``build_catalog_entry`` takes for a family."""
    return tuple(_DEFAULTS.get(family, ()))


def build_catalog_entry(family: str, **overrides) -> CatalogEntry:
    """Construct a family at its default parameters with optional overrides."""
    if family not in _BUILDERS:
        raise ParameterError(f"unknown catalog family '{family}'; "
                             f"choose from {', '.join(catalog_families())}")
    params = dict(_DEFAULTS[family])
    params.update(overrides)
    if not all(map(math.isfinite, params.values())):
        raise ParameterError(f"catalog parameters must be finite, got {params}")
    return CatalogEntry(params=params, scale=_BUILDERS[family](**params))
