"""Applied quantities built on scale functions.

Two-sided exit probabilities W^(q)(x)/W^(q)(a), ruin probabilities
1 - psi'(0+) W(x), the integrated scale function Z^(q), the stationary
workload law of the reflected process, and the dividend barrier a* (the
global minimizer of W^(q)') with its value function.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

from .bromwich import gauss_panel
from .errors import NotApplicableError, ParameterError
from .levy import LaplaceExponent
from .scale import ScaleFunction

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
    """Z^(q)(x) = 1 + q int_0^x W^(q)(y) dy."""
    if x <= 0 or scale.q == 0.0:
        return 1.0
    # graded panels cope with the x^{alpha}-type derivative blow-up at zero
    edges = [0.0]
    e = min(1e-6, x / 4.0)
    while e < x:
        edges.append(e)
        e *= 2.0
    edges.append(x)
    total = sum(gauss_panel(scale.eval, lo, hi)
                for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo)
    return 1.0 + scale.q * total


# ---------------------------------------------------------------------------
# De Finetti dividend barrier
# ---------------------------------------------------------------------------

def dividend_barrier(scale: ScaleFunction) -> float:
    """a* = global minimizer of W^(q)' on [0, inf), q > 0.

    Valid for parents whose dual jump density is completely monotone
    (W^(q)' is then convex, so a bracketed golden-section search suffices).
    Raises NotApplicableError when W^(q)' is still decreasing at the end of
    the search grid, x = 1e-3 * 1.6^39.
    """
    if scale.q <= 0:
        raise ParameterError("the dividend barrier needs q > 0")
    d0 = scale.eval_deriv(1e-9)
    grid = 1e-3 * (1.6 ** np.arange(0, 40))
    prev_x, prev_d = 1e-9, d0
    bracket = None
    for g in grid:
        d = scale.eval_deriv(float(g))
        if d > prev_d:
            bracket = (max(prev_x / 1.6, 0.0), g)
            break
        prev_x, prev_d = g, d
    if bracket is None:
        raise NotApplicableError(
            f"W^(q)' is still decreasing at x = {grid[-1]:.4g}: no minimizer on the search grid")
    lo, hi = bracket
    if hi <= 2e-3 and scale.eval_deriv(1e-9) <= scale.eval_deriv(2e-3):
        # increasing from the start: minimizer at the origin
        return 0.0
    res = minimize_scalar(lambda y: scale.eval_deriv(float(y)),
                          bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-8})
    return float(res.x)


def dividend_value(scale: ScaleFunction, a: float, x: float) -> float:
    """Value of the reflect-at-a dividend strategy started at x."""
    wpa = scale.eval_deriv(a)
    if not wpa > 0:
        raise ParameterError("W^(q)'(a) must be positive")
    if x <= a:
        return scale.eval(x) / wpa
    return x - a + scale.eval(a) / wpa
