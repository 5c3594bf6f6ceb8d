"""Numerical Laplace inversion of 1/(psi(theta) - q) and the transform verifier.

W^(q)(x) = (1/2 pi i) Int e^{sx} ds / (psi(s) - q) along a contour that leaves
every zero of psi - q and the branch cut of psi on its left.  Two contours:

* ``invert``, the hyperbola: the hyperbolic contour of J.A.C. Weideman and
  L.N. Trefethen, Math. Comp. 76 (2007) 1341-1356, with the optimised
  w(t) = 2.246 N (1 - sin(1.1721 - 0.3443 i t)) of Trefethen, Weideman and
  Schmelzer, BIT 46 (2006) 653-670: nodes s = sigma + w(t)/x with
  sigma = Phi(q) + 1/x, N = 32 midpoints on (-pi, pi), the upper half of a
  block of x evaluated in one x-by-node array call of psi.  N = 24 gives the
  error estimate; N stays fixed because round-off grows like e^{0.176 N}.
  An argument-principle count, bisected only where it is coarse, certifies
  that no zero of psi - q lies right of the hyperbola (where its weight
  e^{Re w} exceeds e^{-25}); otherwise InversionError is raised.  The same
  node values times s give W' = L^-1[s/(psi(s) - q)] at x > 0, since
  L[W'] = theta/(psi - q) - W(0+) and a constant inverts to 0 there.
* ``invert_line``, the shifted line (reference oracle): W(x) = (e^{rx}/pi) * Int_0^inf
  [Re F(u) cos(xu) - Im F(u) sin(xu)] du with F(u) = 1/(psi(r+iu) - q), by
  QUADPACK's oscillatory integrator with Euler-type extrapolation, which
  converges for the slow decay |F| ~ u^{-(alpha+1)} of tempered-stable
  exponents, including the principal-value (conditionally convergent) cases.
  The abscissa starts at r = Phi(q) + max(1, Phi(q)/2) and steps toward Phi(q)
  at large x.

``verify_laplace_identity`` integrates W forward on graded panels, by the
Gauss-Kronrod rule of ``special``, with an exponential-tail correction and
reports relative errors against 1/(psi(theta) - q).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InversionError, ParameterError, ScalekitError
from .levy import LaplaceExponent, big_phi
from .special import _gauss_kronrod

__all__ = [
    "IdentityReport",
    "invert",
    "invert_line",
    "verify_laplace_identity",
    "laplace_transform_numeric",
]


def _phi_q(psi: LaplaceExponent, q: float, x: float) -> float:
    """Phi(q), after the precondition x > 0 shared by both contours (big_phi checks q)."""
    if not x > 0:
        raise ParameterError("inversion requires x > 0")
    return big_phi(psi, q)


def invert(psi: LaplaceExponent, q: float, x: float) -> tuple[float, float]:
    """W^(q)(x) on the hyperbolic contour; returns (value, error estimate)."""
    phi_q = _phi_q(psi, q, x)
    value, err = _invert_hyperbola(psi, q, np.array([x], dtype=float),
                                   np.array([phi_q + 1.0 / x]), False)
    return float(value[0]), float(err[0])


def invert_line(psi: LaplaceExponent, q: float, x: float) -> tuple[float, float]:
    """W^(q)(x) on the shifted line, the reference oracle; returns (value, error estimate)."""
    phi_q = _phi_q(psi, q, x)
    return _invert_line(psi, q, x, phi_q + max(1.0, 0.5 * phi_q), phi_q)


# ---------------------------------------------------------------------------
# hyperbolic contour
# ---------------------------------------------------------------------------

_CUTOFF = 25.0          # zeros with Re w < -25 weigh below e^-25 and are not counted
_HEIGHT = 1e4           # nor are zeros above Im w = 1e4
_MAX_STEP = math.pi / 3.0
_MAX_PATH = 4096


def _upper_nodes(n: int):
    """w and w' at the upper midpoint nodes of the optimised hyperbola for n."""
    arg = 1.1721 - 0.3443j * (np.arange(n // 2) + 0.5) * (2.0 * math.pi / n)
    return 2.246 * n * (1.0 - np.sin(arg)), 0.3443j * 2.246 * n * np.cos(arg)


_W_MAIN, _DW_MAIN = _upper_nodes(32)
_W_CHECK, _DW_CHECK = _upper_nodes(24)
# closed path around the region right of the main hyperbola, upper half only
# (psi(conj s) = conj psi(s)): from the vertex along the nodes to Re w = -_CUTOFF,
# up that line to _HEIGHT, across, and down the vertical through the vertex
_MU = 2.246 * 32
_VERTEX = _MU * (1.0 - math.sin(1.1721))
_CUT_IM = _MU * math.cos(1.1721) * math.sqrt(((1.0 + _CUTOFF / _MU) / math.sin(1.1721)) ** 2 - 1.0)
_PATH = np.concatenate([[_VERTEX], _W_MAIN[_W_MAIN.real > -_CUTOFF],
                        -_CUTOFF + 1j * np.geomspace(_CUT_IM, _HEIGHT, 24),
                        np.linspace(-_CUTOFF, _VERTEX, 8)[1:] + 1j * _HEIGHT,
                        _VERTEX + 1j * np.append(np.geomspace(_HEIGHT, 1.0, 30)[1:], 0.0)])
_W_ALL = np.concatenate([_W_MAIN, _W_CHECK, _PATH])


def _psi_minus_q(psi, q, s) -> np.ndarray:
    with np.errstate(all="ignore"):
        g = np.asarray(psi.eval(s), dtype=complex) - q
    if not np.all(np.isfinite(g)) or np.any(g == 0):
        raise InversionError("psi - q is not finite and nonzero on the hyperbolic contour; "
                             "use the shifted-line contour")
    return g


def _zero_count(psi, q, x, sigma, path, g) -> int:
    """Winding number of psi - q around ``path`` at one x, bisecting coarse steps."""
    while path.size <= _MAX_PATH:
        steps = np.angle(g[1:] / g[:-1])
        coarse = np.abs(steps) > _MAX_STEP
        if not coarse.any():
            return round(float(steps.sum()) / (2.0 * math.pi))
        at = np.flatnonzero(coarse)
        mid = 0.5 * (path[at] + path[at + 1])
        path = np.insert(path, at + 1, mid)
        g = np.insert(g, at + 1, _psi_minus_q(psi, q, sigma + mid / x))
    raise InversionError("could not resolve the zero count of psi - q around the "
                         "hyperbolic contour; use the shifted-line contour")


def _invert_hyperbola(psi, q, x: np.ndarray, sigma: np.ndarray,
                      deriv: bool) -> tuple[np.ndarray, np.ndarray]:
    """(W, error estimate) at each x > 0 of a 1-D array, or (W', error estimate) when deriv
    is set: one x-by-node call of psi, each row summed at a fixed width on its own."""
    if (sigma * x > 700.0).any():
        raise InversionError("W^(q)(x) overflows double precision at this x")
    s = sigma[:, None] + _W_ALL / x[:, None]
    g = _psi_minus_q(psi, q, s)
    n1, n2 = _W_MAIN.size, _W_CHECK.size
    terms = np.exp(_W_MAIN) * _DW_MAIN / g[:, :n1]
    check = np.exp(_W_CHECK) * _DW_CHECK / g[:, n1:n1 + n2]
    if deriv:
        terms, check = terms * s[:, :n1], check * s[:, n1:n1 + n2]
    scale = 2.0 * np.exp(sigma * x) / x
    value = scale * terms.imag.sum(axis=1) / (2 * n1)
    err = np.maximum(np.abs(value - scale * check.imag.sum(axis=1) / (2 * n2)),
                     np.finfo(float).eps * scale * np.abs(terms).sum(axis=1) / (2 * n1))
    # winding number per row; only rows with a step above _MAX_STEP are bisected
    steps = np.angle(g[:, n1 + n2 + 1:] / g[:, n1 + n2:-1])
    winding = np.rint(steps.sum(axis=1) / (2.0 * math.pi))
    for i in np.flatnonzero((np.abs(steps) > _MAX_STEP).any(axis=1)):
        winding[i] = _zero_count(psi, q, x[i], sigma[i], _PATH, g[i, n1 + n2:])
    failed = (winding != 0) | ~(np.isfinite(value) & (err <= 1e-5 * (1.0 + np.abs(value))))
    if failed.any():
        i = int(np.argmax(failed))      # the first row that fails, as one x at a time finds it
        if winding[i] != 0:
            raise InversionError("psi - q has a zero right of the hyperbolic contour; "
                                 "use the shifted-line contour")
        raise InversionError(f"hyperbolic-contour inversion error estimate {err[i]:.3g} above "
                             f"tolerance at best value {value[i]:.10g}")
    return value, err


# ---------------------------------------------------------------------------
# shifted line with Fourier-weight quadrature
# ---------------------------------------------------------------------------

def _line_pass(psi, q, x, r) -> tuple[float, float]:
    from scipy.integrate import IntegrationWarning, quad

    def f(u: float, part: str) -> float:
        return getattr(1.0 / (complex(psi.eval(r + 1j * u)) - q), part)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        vc, ec, *_ = quad(f, 0.0, np.inf, args=("real",), weight="cos", wvar=x,
                          limlst=600, limit=400, epsabs=1e-12, full_output=True)
        vs, es, *_ = quad(f, 0.0, np.inf, args=("imag",), weight="sin", wvar=x,
                          limlst=600, limit=400, epsabs=1e-12, full_output=True)
    scale = math.exp(r * x) / math.pi
    return scale * (vc - vs), scale * (abs(ec) + abs(es))


def _invert_line(psi, q, x, r, phi_q) -> tuple[float, float]:
    # the exp(r x) prefactor amplifies the quadrature error, so for large x
    # the abscissa moves toward Phi(q) along a ladder until the estimate
    # meets tolerance; two passes also cross-validate each other
    ladder = [r]
    for margin in (3.0 / x, 0.8 / x):
        cand = phi_q + min(max(margin, 0.01), 1.0)
        if cand < ladder[-1] * (1.0 - 1e-9):
            ladder.append(cand)
    results = []
    for ri in ladder:
        value, err = _line_pass(psi, q, x, ri)
        results.append((err, value))
        if err <= 1e-9 * (1.0 + abs(value)):
            break
    ranked = sorted(results)
    err, value = ranked[0]
    # cross-validate against the runner-up only when it is itself credible;
    # a blown-up pass (huge own estimate) carries no information
    if len(ranked) > 1 and ranked[1][0] <= 1e-3 * (1.0 + abs(ranked[1][1])):
        err = max(err, 0.25 * abs(value - ranked[1][1]))
    if err > 1e-5 * (1.0 + abs(value)):
        raise InversionError(f"line-contour inversion error estimate {err:.3g} above "
                             f"tolerance at best value {value:.10g}")
    return value, err


# ---------------------------------------------------------------------------
# forward transform check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    thetas: tuple
    relative_errors: tuple
    max_rel_err: float
    flags: tuple = field(default=())

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= 1e-6 and not self.flags


def _panels(x_max: float, kinks: Sequence[float] = ()) -> np.ndarray:
    """Graded panel edges: dyadic from 1e-9 to 1, then geometric to x_max, split at kinks."""
    edges = [0.0]
    e = 1e-9
    while e < min(1.0, x_max):
        edges.append(e)
        e *= 2.0
    e = 1.0
    while e < x_max:
        edges.append(e)
        e *= 1.35
    edges.append(x_max)
    edges += [k for k in kinks if 0.0 < k < x_max]
    return np.unique(edges)


def laplace_transform_numeric(w: Callable[[np.ndarray], np.ndarray], thetas: Sequence[float],
                              phi_q: float, kinks: Sequence[float] = ()) -> list[float]:
    """int_0^inf exp(-theta x) w(x) dx for each theta, on graded Gauss-Kronrod panels.

    w maps an array of x to W.  It is called once on the union of the
    Kronrod nodes of all thetas, which share their panels below the shortest
    truncation point X = max(45/(theta - phi_q), 10).  Requires theta > phi_q;
    beyond X the integrand is extended by the exponential profile
    w ~ w(X) e^{phi_q (x - X)}, a correction below about e^{-45} of the
    total for any w that grows no faster than e^{phi_q x}.
    """
    thetas = np.asarray(thetas, dtype=float)
    rates = thetas - phi_q
    if (rates <= 0).any():
        raise ParameterError("transform quadrature requires theta > Phi(q)")
    x_maxes = np.maximum(45.0 / rates, 10.0)
    edges = [_panels(x_max, kinks) for x_max in x_maxes]
    counts = [e.size - 1 for e in edges]
    theta_rows = np.repeat(thetas, counts)[:, None]
    w_max = []

    def integrand(x: np.ndarray) -> np.ndarray:
        xs, back = np.unique(np.r_[x.ravel(), x_maxes], return_inverse=True)
        values = w(xs)[back]
        w_max.extend(values[x.size:])
        return values[:x.size].reshape(x.shape) * np.exp(-theta_rows * x)

    kron, _ = _gauss_kronrod(integrand, np.concatenate([e[:-1] for e in edges]),
                             np.concatenate([e[1:] for e in edges]))
    totals = np.add.reduceat(kron, np.cumsum(counts) - counts)
    return [float(total + w_x * math.exp(-theta * x_max) / rate) for total, w_x, theta, x_max, rate
            in zip(totals, w_max, thetas, x_maxes, rates)]


def verify_laplace_identity(scale, thetas: Sequence[float],
                            kinks: Sequence[float] = ()) -> IdentityReport:
    """Relative errors of the forward quadrature of W against 1/(psi - q), psi = scale.psi.

    W is evaluated once for all thetas, so a ScalekitError raised there (a
    quadrature stagnation, say) flags every theta and makes a partial report.
    """
    for th in thetas:
        if th <= scale.phi_q:
            raise ParameterError(f"theta = {th} must exceed Phi(q) = {scale.phi_q}")
    try:
        got = laplace_transform_numeric(scale.eval, thetas, scale.phi_q, kinks=kinks)
    except ScalekitError as exc:   # quadrature stagnation -> partial report
        return IdentityReport(thetas=tuple(thetas), relative_errors=(math.inf,) * len(thetas),
                              max_rel_err=math.inf,
                              flags=tuple(f"theta={th}: {exc}" for th in thetas))
    errs = [abs(value - target) / abs(target) for value, target in
            zip(got, [1.0 / (float(np.real(scale.psi.eval(th))) - scale.q) for th in thetas])]
    return IdentityReport(thetas=tuple(thetas), relative_errors=tuple(errs),
                          max_rel_err=max(errs))
