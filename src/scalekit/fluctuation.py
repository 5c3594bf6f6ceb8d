"""Applied quantities built on scale functions.

Two-sided exit probabilities W^(q)(x)/W^(q)(a), ruin probabilities
1 - psi'(0+) W(x), the integrated scale function Z^(q), the stationary
workload law of the reflected process, and the dividend barrier a* (the
global minimizer of W^(q)') with its value function.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotApplicableError, ParameterError, ScalekitError
from .levy import LaplaceExponent
from .scale import ScaleFunction
from .special import _gauss_kronrod

__all__ = [
    "two_sided_exit",
    "ruin_probability",
    "z_q",
    "dividend_barrier",
    "dividend_value",
    "mpi1_workload",
]


def two_sided_exit(scale: ScaleFunction, x: float, a: float) -> float:
    """E_x[e^{-q tau_a^+}; up-crossing before ruin] = W^(q)(x)/W^(q)(a), q = scale.q."""
    if not a > 0:
        raise ParameterError("upper level a must be positive")
    if not 0.0 <= x <= a:
        raise ParameterError("start point must satisfy 0 <= x <= a")
    return scale.eval(x) / scale.eval(a)


def ruin_probability(scale: ScaleFunction, psi: LaplaceExponent, x: float) -> float:
    """P_x(ruin) = 1 - psi'(0+) W(x); requires positive drift.

    psi must have the drift psi'(0+) of ``scale.psi``, the one value read from it.
    """
    if scale.q != 0.0:
        raise ParameterError("ruin probability uses the q = 0 scale function")
    drift = scale.psi.drift_at_zero
    if psi.drift_at_zero != drift:
        raise ParameterError(f"psi'(0+) = {psi.drift_at_zero:.6g} is not the drift "
                             f"{drift:.6g} of the scale function's exponent")
    if drift <= 0:
        raise NotApplicableError(
            "ruin is certain (or the process oscillates): psi'(0+) <= 0")
    return 1.0 - drift * scale.eval(x)


def mpi1_workload(scale: ScaleFunction):
    """Stationary workload distribution function of the reflected process.

    Returns the cdf x -> psi'(0+) W(x), psi = scale.psi, the exact complement
    of the ruin probability.
    """
    if scale.q != 0.0:
        raise ParameterError("workload law uses the q = 0 scale function")
    drift = scale.psi.drift_at_zero
    if drift <= 0:
        raise NotApplicableError("no stationary workload: psi'(0+) <= 0")

    def cdf(x: float) -> float:
        if x < 0:
            return 0.0
        return min(1.0, drift * scale.eval(x))

    return cdf


# ---------------------------------------------------------------------------
# integrated scale function
# ---------------------------------------------------------------------------

def z_q(scale: ScaleFunction, x: float) -> float:
    """Z^(q)(x) = 1 + q int_0^x W^(q)(y) dy, by one W call on the Gauss-Kronrod nodes of
    panels graded toward 0, which cope with the x^{alpha}-type derivative blow-up there."""
    if not x < math.inf:
        raise ParameterError(f"x must be a finite number, got {x}")
    if x <= 0 or scale.q == 0.0:
        return 1.0
    edges = [0.0, min(1e-6, x / 4.0)]
    while edges[-1] < x:
        edges.append(2.0 * edges[-1])
    edges[-1] = x
    kron, _ = _gauss_kronrod(scale.eval, np.array(edges[:-1]), np.array(edges[1:]))
    return 1.0 + scale.q * float(kron.sum())


# ---------------------------------------------------------------------------
# De Finetti dividend barrier
# ---------------------------------------------------------------------------

def dividend_barrier(scale: ScaleFunction) -> float:
    """a* = global minimizer of W^(q)' on [0, inf), q > 0.

    Valid for parents whose dual jump density is completely monotone (W^(q)'
    is then convex, so Brent's bounded method on a bracket suffices).  The
    bracket comes from a walk up the grid x = 1e-3 * 1.6^k, k < 40, to the
    first increase of W^(q)'; NotApplicableError when there is none.
    """
    if scale.q <= 0:
        raise ParameterError("the dividend barrier needs q > 0")
    xs = np.r_[1e-9, 1e-3 * (1.6 ** np.arange(0, 40))]
    ds = np.full(xs.size, np.nan)
    ds[0] = scale.eval_deriv(1e-9)
    for i in range(1, xs.size, 8):      # eight grid points per W' call
        at = slice(i, i + 8)
        try:
            ds[at] = scale.eval_deriv(xs[at])
        except ScalekitError:       # raise where the one-point walk would, if it gets there
            for j, x in enumerate(xs[at], i):
                ds[j] = scale.eval_deriv(float(x))
                if ds[j] > ds[j - 1]:
                    break
        rise = np.flatnonzero(np.diff(ds[i - 1:i + 8]) > 0.0)
        if rise.size:
            up = i + int(rise[0])
            break
    else:
        raise NotApplicableError(
            f"W^(q)' is still decreasing at x = {xs[-1]:.4g}: no minimizer on the search grid")
    lo, hi = max(xs[up - 1] / 1.6, 0.0), float(xs[up])
    if hi <= 2e-3 and ds[0] <= scale.eval_deriv(2e-3):
        # increasing from the start: minimizer at the origin
        return 0.0
    return _bounded_minimum(lambda y: scale.eval_deriv(float(y)), lo, hi)


def _bounded_minimum(f, a: float, b: float) -> float:
    """Minimizer of f on [a, b] by Brent's bounded method (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5), step for step scipy's minimize_scalar
    (method="bounded") at xatol = 1e-8 and 500 evaluations, so the same double comes out."""
    sqrt_eps, golden_mean, xatol = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0)), 1e-8
    nfc = xf = fulc = a + golden_mean * (b - a)
    ffulc = fnfc = fx = f(xf)
    rat = e = 0.0
    num = 1
    while True:
        xm, tol1 = 0.5 * (a + b), sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(xf - xm) <= tol2 - 0.5 * (b - a) or num >= 500:
            return float(xf)
        golden = True
        if abs(e) > tol1:           # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p, q, r, e = (-p if q > 0.0 else p), abs(q), e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden, rat = False, p / q
                if xf + rat - a < tol2 or b - (xf + rat) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (max(abs(rat), tol1) if rat >= 0.0 else -max(abs(rat), tol1))
        fu = f(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu


def dividend_value(scale: ScaleFunction, a: float, x: float) -> float:
    """Value of the reflect-at-a dividend strategy started at x."""
    wpa = scale.eval_deriv(a)
    if not wpa > 0:
        raise ParameterError("W^(q)'(a) must be positive")
    if not x > a:      # a NaN x goes to eval, which raises ParameterError
        return scale.eval(x) / wpa
    return x - a + scale.eval(a) / wpa
