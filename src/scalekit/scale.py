"""The evaluable q-scale function object shared by every route and family."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ParameterError, SaturationError
from .levy import LaplaceExponent

__all__ = ["ScaleFunction"]

_CHUNK = 64     # points per route call, which bounds the working set of array routes


class ScaleFunction:
    """Evaluable q-scale function W^(q) with provenance.

    ``w`` and ``dw`` map a 1-D array of x >= 0 to W and W' (each at 0 is the
    route's right limit); every route supplies its own W', and nothing is
    differentiated numerically.  ``psi`` is the Laplace exponent of the
    process W belongs to.  ``eval`` returns W^(q)(x) and ``eval_deriv`` W';
    both are 0 for x < 0 and take a number (returning a float) or an array
    (returning the input's shape), and raise SaturationError on a NaN or, at
    x > 0, an infinity.  Instances are safe to share: their fields never change, and
    the one state a route keeps, the rational route's Mittag-Leffler values of its last
    chunk, is read once per call and replaced whole, so no value depends on it.
    """

    def __init__(self, q: float, phi_q: float, route: str,
                 w: Callable[[np.ndarray], np.ndarray],
                 dw: Callable[[np.ndarray], np.ndarray],
                 psi: LaplaceExponent):
        self.q = q
        self.phi_q = phi_q
        self.route = route
        self.psi = psi
        self._w = w
        self._dw = dw

    def eval(self, x):
        return _on_nonnegative(self._w, x)

    def eval_deriv(self, x):
        return _on_nonnegative(self._dw, x)


def _on_nonnegative(f: Callable[[np.ndarray], np.ndarray], x):
    """f, an array function of x >= 0, on a number (a float back) or an array; 0 for x < 0."""
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    if np.isnan(flat).any():
        raise ParameterError("x must be a number, got NaN")
    out = np.zeros(flat.shape)
    on = np.flatnonzero(flat >= 0.0)
    with np.errstate(all="ignore"):     # W'(0+) may be 1/0; what else is not finite raises
        for i in range(0, on.size, _CHUNK):
            at = on[i:i + _CHUNK]
            out[at] = f(flat[at])
    lost = np.isnan(out) | (np.isinf(out) & (flat > 0.0))
    if lost.any():
        raise SaturationError(f"W or W' beyond floating-point range at x = {flat[lost][0]:.6g}")
    out = out.reshape(xs.shape)
    return float(out) if out.ndim == 0 else out

