"""Laplace exponents, ladder height processes and the parent-process construction.

A spectrally negative Levy process is handled through its Laplace exponent
psi(theta) = log E[exp(theta X_1)], strictly convex with psi(0) = 0.  Given a
killed subordinator H (the prescribed descending ladder height process) with
exponent phi and a kill parameter varphi for the ascending ladder, the parent
process has

    psi(theta) = (theta - varphi) * phi(theta),

Gaussian coefficient sigma = sqrt(2*zeta) and jump tail
Pi(-inf, -x) = varphi * Upsilon(x, inf) + dUpsilon/dx (x).  ``parent_exponent``
forms psi and psi'(0+) from phi and phi'; a ``LaplaceExponent`` is psi with
its mean psi'(0+) in closed form, the one value of psi' read from it.
Nothing here differentiates or integrates numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError, ParameterError

__all__ = [
    "LaplaceExponent",
    "LadderParams",
    "LevyTriple",
    "big_phi",
    "build_parent",
    "parent_exponent",
]


@dataclass(frozen=True)
class LaplaceExponent:
    """Evaluable Laplace exponent psi with its mean.

    ``eval`` accepts real or complex numbers and complex ndarrays;
    ``drift_at_zero`` is psi'(0+), the mean of X_1, in closed form.
    """

    eval: Callable[[complex], complex]
    drift_at_zero: float


@dataclass(frozen=True)
class LadderParams:
    """Descending ladder height process: killed subordinator with drift.

    The Levy density must be non-increasing on (0, inf); that is what makes
    the parent construction valid.  The exponent's derivative and the
    density's derivative are given in closed form: they become the parent's
    psi'(0+) and jump density.  The kill rate is phi(0) and ``small_jump_mean``
    is int_0^1 u upsilon(u) du.
    """

    drift: float
    levy_density: Callable[[float], float]
    tail: Callable[[float], float]
    exponent: Callable[[complex], complex]
    exponent_deriv: Callable[[float], float]
    levy_density_deriv: Callable[[float], float]
    small_jump_mean: float

    def __post_init__(self):
        if complex(self.exponent(0.0)).real < 0 or self.drift < 0:
            raise ParameterError("ladder kill rate and drift must be nonnegative")
        # spot-check the structural requirements on a coarse grid
        xs = [1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0]
        dens = [self.levy_density(x) for x in xs]
        for lo, hi in zip(dens[1:], dens[:-1]):
            if lo > hi * (1 + 1e-9) + 1e-12:
                raise ParameterError("ladder Levy density must be non-increasing")


@dataclass(frozen=True)
class LevyTriple:
    """(a, sigma, Pi) of a spectrally negative process.

    ``pi_tail(x)`` is Pi(-inf, -x) for x > 0; ``pi_density(x)`` the density of
    the jump magnitude at x when available.  ``jump_components`` gives the
    jump law in closed form; Monte Carlo reads its jumps, drift and E X_1 from them.
    """

    a: float
    sigma: float
    pi_tail: Callable[[float], float]
    pi_density: Optional[Callable[[float], float]] = None
    jump_components: tuple = field(default=())


# ---------------------------------------------------------------------------
# right inverse of psi
# ---------------------------------------------------------------------------

def big_phi(psi: LaplaceExponent, q: float) -> float:
    """Largest root of psi(theta) = q for q >= 0.

    For q = 0 this is 0 when psi'(0+) >= 0 and the strictly positive root
    otherwise.  Convexity makes the bracketing globally convergent.
    """
    if not 0.0 <= q < math.inf:
        raise ParameterError(f"big_phi requires a finite q >= 0, got {q}")

    def f(th: float) -> float:
        return float(np.real(psi.eval(th))) - q

    if q == 0.0:
        if psi.drift_at_zero >= 0.0:
            return 0.0
        # psi dips below zero then crosses back at Phi(0) > 0
        lo = 1e-8
        for _ in range(200):
            if f(lo) < 0:
                break
            lo *= 0.5
        else:
            raise NumericalError("big_phi: psi'(0+) < 0 but psi(theta) >= 0 for every theta "
                                 "down to 1e-8 * 2^-199 (inconsistent exponent?)")
    else:
        lo = 0.0

    hi = max(1.0, 2.0 * lo)
    for _ in range(200):
        if f(hi) > 0:
            break
        hi *= 2.0
    else:
        raise NumericalError("big_phi: could not bracket the root (malformed exponent?)")
    return _brentq(f, lo, hi)


def _brentq(f, xpre: float, xcur: float) -> float:
    """Root of f between xpre and xcur, where f changes sign, by Brent's method (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4), step for step the C loop of
    scipy's brentq at xtol = 1e-300, rtol = 4 eps and 300 iterations: the same double comes out."""
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError(f"Brent's method: no sign change on the bracket [{xpre!r}, {xcur!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(300):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (1e-300 + 4.0 * np.finfo(float).eps * abs(xcur)) / 2     # xtol, rtol
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NumericalError(f"Brent's method did not converge, last iterate {xcur!r}")


# ---------------------------------------------------------------------------
# parent process construction
# ---------------------------------------------------------------------------

def parent_exponent(phi_l, phi_l_deriv, varphi: float) -> LaplaceExponent:
    """psi(theta) = (theta - varphi) phi_l(theta) from a ladder exponent and its derivative.

    psi'(0+) = phi_l(0) - varphi phi_l'(0+), which is phi_l(0) when varphi = 0
    even where phi_l'(0+) is infinite.
    """
    def psi_eval(theta):
        return (theta - varphi) * phi_l(theta)

    drift0 = float(np.real(phi_l(0.0)))
    if varphi != 0.0:
        drift0 -= varphi * phi_l_deriv(0.0)
    return LaplaceExponent(eval=psi_eval, drift_at_zero=drift0)


def build_parent(ladder: LadderParams, varphi: float) -> tuple[LevyTriple, LaplaceExponent]:
    """Spectrally negative process whose descending ladder height process is ``ladder``.

    ``varphi`` is the kill rate of the (unit-drift) ascending ladder and equals
    Phi(0) of the parent when positive.  At most one of the two ladder
    processes may be killed, hence ``varphi * kappa`` must vanish.  The location
    a = -kappa + varphi (zeta + m_1) - upsilon(1) - Upsilon(1), m_1 = ``small_jump_mean``,
    follows by parts from E X_1 = -a - int_1^inf u pi(u) du = psi'(0+).
    """
    if varphi < 0:
        raise ParameterError("varphi must be nonnegative")
    kappa = complex(ladder.exponent(0.0)).real
    if varphi > 0 and kappa > 0:
        raise ParameterError("both ladder processes killed: varphi * kappa must be 0")

    sigma = math.sqrt(2.0 * ladder.drift)

    def pi_tail(x: float) -> float:
        return varphi * ladder.tail(x) + ladder.levy_density(x)

    def pi_density(x: float) -> float:
        return varphi * ladder.levy_density(x) - ladder.levy_density_deriv(x)

    a = (-kappa + varphi * (ladder.drift + ladder.small_jump_mean)
         - ladder.levy_density(1.0) - ladder.tail(1.0))
    triple = LevyTriple(a=a, sigma=sigma, pi_tail=pi_tail, pi_density=pi_density)
    return triple, parent_exponent(ladder.exponent, ladder.exponent_deriv, varphi)
