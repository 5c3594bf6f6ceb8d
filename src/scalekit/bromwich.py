"""Numerical Laplace inversion of 1/(psi(theta) - q) and the transform verifier.

Two contours are provided:

* shifted-line (reference mode): W(x) = (e^{rx}/pi) * Int_0^inf
  [Re F(u) cos(xu) - Im F(u) sin(xu)] du with F(u) = 1/(psi(r+iu) - q).
  The Fourier tail is handled by QUADPACK's oscillatory integrator with
  Euler-type extrapolation, which converges for the slow algebraic decay
  |F| ~ u^{-(alpha+1)} of tempered-stable exponents, including the
  principal-value (conditionally convergent) cases.

* talbot: the cotangent contour applied in tempering-shifted coordinates
  s = theta + gamma, so that the branch cut of (gamma + theta)^alpha maps
  onto (-inf, 0] and the windmill wraps it.  The contour scale is enlarged
  until every zero of psi - q is enclosed.

``verify_laplace_identity`` integrates W forward on graded panels with an
exponential-tail correction and reports relative errors against
1/(psi(theta) - q).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import InversionError, ParameterError, ScalekitError
from .levy import LaplaceExponent, big_phi

__all__ = [
    "InversionConfig",
    "IdentityReport",
    "invert",
    "verify_laplace_identity",
    "laplace_transform_numeric",
]


@dataclass(frozen=True)
class InversionConfig:
    contour: str = "shifted-line"            # or "talbot"
    r: Optional[float] = None                # abscissa; default Phi(q)+max(1, Phi(q)/2)
    truncation: float = 1e7                  # cap on the line-contour frequency range
    nodes: int = 64
    integrability: str = "auto"              # lebesgue | principal-value | auto

    def __post_init__(self):
        if self.contour not in ("shifted-line", "talbot"):
            raise ParameterError("contour must be 'shifted-line' or 'talbot'")
        if self.integrability not in ("auto", "lebesgue", "principal-value"):
            raise ParameterError("integrability must be auto, lebesgue or principal-value")
        if self.nodes < 64:
            raise ParameterError("nodes must be at least 64")


def classify_integrability(psi: LaplaceExponent, q: float, probe_r: float) -> str:
    """'lebesgue' when |1/(psi-q)| decays faster than 1/u along the contour."""
    u1, u2 = 1e3, 1e6
    f1 = abs(1.0 / (complex(psi.eval(probe_r + 1j * u1)) - q))
    f2 = abs(1.0 / (complex(psi.eval(probe_r + 1j * u2)) - q))
    if f2 <= 0 or f1 <= 0:
        return "lebesgue"
    p = math.log(f1 / f2) / math.log(u2 / u1)
    return "lebesgue" if p > 1.05 else "principal-value"


def invert(psi: LaplaceExponent, q: float, x: float,
           cfg: Optional[InversionConfig] = None) -> tuple[float, float]:
    """W^(q)(x) by contour inversion; returns (value, error estimate)."""
    if x <= 0:
        raise ParameterError("inversion requires x > 0")
    if q < 0:
        raise ParameterError("q must be nonnegative")
    cfg = cfg or InversionConfig()
    phi_q = big_phi(psi, q)
    r = cfg.r if cfg.r is not None else phi_q + max(1.0, 0.5 * phi_q)
    if r <= phi_q:
        raise ParameterError("abscissa r must exceed Phi(q)")

    mode = cfg.integrability
    if mode == "auto":
        mode = classify_integrability(psi, q, r)

    if cfg.contour == "talbot":
        return _invert_talbot(psi, q, x, phi_q, cfg)
    return _invert_line(psi, q, x, r, phi_q, mode, cfg)


# ---------------------------------------------------------------------------
# shifted line with Fourier-weight quadrature
# ---------------------------------------------------------------------------

def _line_pass(psi, q, x, r, mode) -> tuple[float, float]:
    def f_re(u: float) -> float:
        return (1.0 / (complex(psi.eval(r + 1j * u)) - q)).real

    def f_im(u: float) -> float:
        return (1.0 / (complex(psi.eval(r + 1j * u)) - q)).imag

    limit_cycles = 600 if mode == "principal-value" else 300
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        vc, ec, *_ = quad(f_re, 0.0, np.inf, weight="cos", wvar=x,
                          limlst=limit_cycles, limit=400, epsabs=1e-12,
                          full_output=True)
        vs, es, *_ = quad(f_im, 0.0, np.inf, weight="sin", wvar=x,
                          limlst=limit_cycles, limit=400, epsabs=1e-12,
                          full_output=True)
    scale = math.exp(r * x) / math.pi
    return scale * (vc - vs), scale * (abs(ec) + abs(es))


def _invert_line(psi, q, x, r, phi_q, mode, cfg) -> tuple[float, float]:
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
        value, err = _line_pass(psi, q, x, ri, mode)
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
        raise InversionError("line-contour inversion error estimate above tolerance",
                             best_value=value, error_estimate=err)
    return value, err


# ---------------------------------------------------------------------------
# shifted fixed-Talbot contour
# ---------------------------------------------------------------------------

def _singularity_radius(psi, q, shift, phi_q) -> float:
    """Radius (in shifted coordinates) enclosing every zero of psi - q."""
    R = 2.0 * (phi_q + shift + 1.0)
    for _ in range(40):
        ang = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        s = R * np.exp(1j * ang)
        vals = np.array([abs(complex(psi.eval(sv - shift)) - q) for sv in s])
        if vals.min() > 2.0 * (1.0 + q):
            return R
        R *= 1.7
    raise InversionError("could not bound the zero set of psi - q for the talbot contour")


def _invert_talbot(psi, q, x, phi_q, cfg) -> tuple[float, float]:
    # Double-precision fixed Talbot: the contour scale r_t = 2M/(5x) amplifies
    # round-off by exp(r_t x) = exp(2M/5), so M is capped; when enclosing the
    # zero set of psi - q would need a larger scale, the mode is refused in
    # favour of the shifted line.
    shift = max(0.0, -psi.domain_edge) if math.isfinite(psi.domain_edge) else 0.0
    R = _singularity_radius(psi, q, shift, phi_q)
    m_need = int(math.ceil(2.5 * x * 1.25 * R))
    M = max(24, m_need)
    if 2.0 * M / 5.0 > 42.0:
        raise InversionError(
            "talbot mode outside its double-precision envelope for this (psi, x); "
            "use the shifted-line contour")

    def talbot_sum(M: int) -> float:
        r_t = 2.0 * M / (5.0 * x)
        theta = (np.arange(1, M) * math.pi) / M
        cot = 1.0 / np.tan(theta)
        s = r_t * theta * (cot + 1j)
        sigma = theta + (theta * cot - 1.0) * cot
        g = np.array([1.0 / (complex(psi.eval(sv - shift)) - q) for sv in s])
        terms = np.exp(x * s) * g * (1.0 + 1j * sigma)
        total = 0.5 * math.exp(r_t * x) / (complex(psi.eval(r_t - shift)) - q) + terms.sum()
        return float(np.real(total)) * r_t / M * math.exp(-shift * x)

    v1 = talbot_sum(M)
    v2 = talbot_sum(M + max(8, M // 3))
    err = abs(v1 - v2)
    floor = 5e-16 * math.exp(2.0 * M / 5.0) * (1.0 + abs(v2))
    err = max(err, floor)
    if err > 1e-5 * (1.0 + abs(v2)):
        raise InversionError("talbot inversion failed to converge",
                             best_value=v2, error_estimate=err)
    return v2, err


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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _panel_integral(f_vals: np.ndarray, lo: float, hi: float) -> float:
    return 0.5 * (hi - lo) * float(np.dot(_GL_WEIGHTS, f_vals))


def _panels(x_max: float, kinks: Sequence[float] = ()) -> list[tuple[float, float]]:
    """Graded panels: dyadic from 1e-9 to 1, then geometric to x_max, split at kinks."""
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
    for k in kinks:
        if 0.0 < k < x_max:
            edges.append(k)
    edges = sorted(set(edges))
    return [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def laplace_transform_numeric(w: Callable[[float], float], theta: float,
                              phi_q: float, kinks: Sequence[float] = (),
                              rel_tol: float = 1e-8) -> float:
    """int_0^inf exp(-theta x) w(x) dx by graded-panel quadrature.

    Requires theta > phi_q; beyond the truncation point the integrand is
    extended by the exponential profile w ~ w(X) e^{phi_q (x - X)}.
    """
    rate = theta - phi_q
    if rate <= 0:
        raise ParameterError("transform quadrature requires theta > Phi(q)")
    x_max = max(45.0 / rate, 10.0)
    total = 0.0
    for lo, hi in _panels(x_max, kinks):
        mid = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _GL_NODES
        vals = np.array([w(float(xx)) for xx in mid]) * np.exp(-theta * mid)
        total += _panel_integral(vals, lo, hi)
    # exponential tail correction with its own size as the uncertainty proxy
    wX = w(x_max)
    tail = wX * math.exp(-theta * x_max) / rate
    total += tail
    if abs(tail) > rel_tol * abs(total):
        # extend until the correction is negligible
        x2 = x_max
        while abs(tail) > rel_tol * abs(total) and x2 < 60.0 * max(1.0, 1.0 / rate):
            lo, hi = x2, x2 * 1.25
            mid = 0.5 * (hi + lo) + 0.5 * (hi - lo) * _GL_NODES
            vals = np.array([w(float(xx)) for xx in mid]) * np.exp(-theta * mid)
            total -= tail
            total += _panel_integral(vals, lo, hi)
            x2 = hi
            wX = w(x2)
            tail = wX * math.exp(-theta * x2) / rate
            total += tail
    return total


def verify_laplace_identity(scale, psi: LaplaceExponent, thetas: Sequence[float],
                            kinks: Sequence[float] = ()) -> IdentityReport:
    """Relative errors of the forward quadrature of W against 1/(psi - q)."""
    q = scale.q
    errs = []
    flags = []
    for th in thetas:
        if th <= scale.phi_q:
            raise ParameterError(f"theta = {th} must exceed Phi(q) = {scale.phi_q}")
        target = 1.0 / (float(np.real(psi.eval(th))) - q)
        try:
            got = laplace_transform_numeric(scale.eval, th, scale.phi_q, kinks=kinks)
            errs.append(abs(got - target) / abs(target))
        except ScalekitError as exc:   # quadrature stagnation -> partial report
            errs.append(math.inf)
            flags.append(f"theta={th}: {exc}")
    return IdentityReport(thetas=tuple(thetas), relative_errors=tuple(errs),
                          max_rel_err=max(errs), flags=tuple(flags))
