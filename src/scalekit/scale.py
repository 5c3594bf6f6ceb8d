"""The evaluable q-scale function object shared by every route and family."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .levy import LaplaceExponent

__all__ = ["ScaleFunction"]


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
