"""Polynomial machinery for the rational-stability scale formula.

Builds f_q(z) = (z^n - gamma - varphi) * B(z) - q z^{m_-} with

    B(z) = (kappa - zeta*gamma + c*Gamma(-alpha)*gamma^alpha) z^{m_-}
           + zeta z^{n+m_-} - c*Gamma(-alpha) z^{m_+},

finds its roots with multiplicities (the real companion-matrix eigensolve,
array clustering, and one multiplicity-aware Newton pass over all cluster
centres in complex long double) and produces the partial fraction
decomposition of z^{m_-} / f_q(z).  f_q has real coefficients, and the real
eigensolver returns each root either with an imaginary part of exactly 0 or
as one of an exact conjugate pair; clustering and the polish keep both.
The polish needs the 64-bit mantissa of x87 extended precision,
np.finfo(np.longdouble).nmant >= 63; on any other host roots_with_multiplicity
and partial_fractions raise CapabilityError instead of losing digits.

The bracket constant carries -zeta*gamma: that is what the defining identity
f_q(z) = z^{m_-} (psi(z^n - gamma) - q) requires, and the identity is checked
at sampled points for every build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import special as sps

from .errors import CapabilityError, ConditioningError, NumericalError, ParameterError
from .special import series_product, series_reciprocal

__all__ = [
    "RationalAlpha",
    "PartialFraction",
    "build_fq",
    "roots_with_multiplicity",
    "partial_fractions",
]

_CLUSTER_TOL = 1e-6     # cluster radius factor: tol = _CLUSTER_TOL * (1 + |r|)
_POLISH_STEP = 1e-12    # a Newton step below this * |r| leaves an error far below long double
_LONG_DOUBLE_NMANT = np.finfo(np.longdouble).nmant   # 63 for x87 extended precision


@dataclass(frozen=True)
class RationalAlpha:
    """Stability parameter alpha = m/n in (-1, 1) \\ {0} in lowest terms."""

    m: int
    n: int

    def __post_init__(self):
        if self.n <= 0:
            raise ParameterError("denominator n must be positive")
        if not 0 < abs(self.m) < self.n:
            raise ParameterError("rational stability requires 0 < |m| < n")
        if math.gcd(abs(self.m), self.n) != 1:
            raise ParameterError("m/n must be in lowest terms")

    @classmethod
    def from_value(cls, alpha) -> "RationalAlpha":
        frac = Fraction(alpha) if not isinstance(alpha, Fraction) else alpha
        return cls(frac.numerator, frac.denominator)

    @property
    def value(self) -> float:
        return self.m / self.n

    @property
    def m_plus(self) -> int:
        return max(self.m, 0)

    @property
    def m_minus(self) -> int:
        return max(-self.m, 0)


@dataclass(frozen=True, eq=False)
class PartialFraction:
    """Decomposition z^{m_-}/f_q(z) = sum_k sum_j coeffs[k, j] / (z - roots[k])^{j+1}.

    Read-only arrays: the roots, the largest real root first (index 0), their
    multiplicities, and coeffs, one row per root, zero past its multiplicity.
    """

    roots: np.ndarray
    multiplicities: np.ndarray
    coeffs: np.ndarray

    def terms(self, z) -> np.ndarray:
        """coeffs[k, j] / (z - roots[k])^{j+1} at each z of a number or array, shape z + coeffs."""
        d = np.asarray(z, dtype=complex)[..., None, None] - self.roots[:, None]
        return self.coeffs / d ** np.arange(1.0, self.coeffs.shape[1] + 1.0)

    def reconstruct(self, z):
        """The sum of the partial fractions at a number (a complex back) or an array of z."""
        out = self.terms(z).sum(axis=(-2, -1))
        return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# polynomial construction
# ---------------------------------------------------------------------------

def build_fq(params, alpha: RationalAlpha, q: float) -> np.ndarray:
    """Ascending coefficient array of f_q(z) for a GTSC parameter set."""
    if not 0.0 <= q < math.inf:
        raise ParameterError(f"q must be finite and nonnegative, got {q}")
    if abs(params.alpha - alpha.value) > 1e-12:
        raise ParameterError("params.alpha does not match the rational m/n")
    n, m_minus, m_plus = alpha.n, alpha.m_minus, alpha.m_plus
    gamma, c, zeta = params.gamma, params.c, params.zeta
    kappa, varphi = params.kappa, params.varphi
    cg = c * sps.gamma(-alpha.value)

    bracket = np.zeros(n + m_minus + 1)
    bracket[m_minus] += kappa - zeta * gamma + cg * gamma ** alpha.value
    if zeta != 0.0:
        bracket[n + m_minus] += zeta
    bracket[m_plus] += -cg

    lead = np.zeros(n + 1)
    lead[0] = -(gamma + varphi)
    lead[n] = 1.0

    fq = npoly.polymul(lead, np.trim_zeros(bracket, "b"))
    fq = npoly.polysub(fq, [0.0] * m_minus + [q])
    fq = np.asarray(np.trim_zeros(fq, "b"), dtype=float)

    # the defining identity pins the construction down
    psi = params.exponent().eval
    for z in (0.57, 1.31, 2.03):
        lhs = npoly.polyval(z, fq)
        rhs = z ** m_minus * (psi(z ** n - gamma) - q)
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(rhs)):
            raise NumericalError("f_q identity check failed; inconsistent parameters")
    return fq


# ---------------------------------------------------------------------------
# roots with multiplicities
# ---------------------------------------------------------------------------

def roots_with_multiplicity(poly) -> tuple[np.ndarray, np.ndarray]:
    """All roots of the real polynomial, clustered into multiple roots.

    Returns (roots, multiplicities) with the largest real root first.  The
    guaranteed real root must exist; its absence signals invalid parameters.
    Companion-matrix eigenvalue splitting of an exact m-fold root grows like
    eps^(1/m), so the clustering radius is widened automatically until every
    reported root passes its residual bound.  Real roots come back with an
    imaginary part of exactly 0, complex ones in exact conjugate pairs.
    """
    coeffs = _real_coeffs(poly)
    raw = npoly.polyroots(coeffs)
    last_err: NumericalError | None = None
    for tol in (_CLUSTER_TOL, 1e-5, 3e-5, 3e-4, 1e-3):
        try:
            return _cluster_and_validate(coeffs, raw, tol)
        except NumericalError as exc:
            last_err = exc
    raise last_err


def _real_coeffs(poly) -> np.ndarray:
    """Ascending float coefficients, trailing zeros trimmed; a complex dtype must be real."""
    coeffs = np.asarray(poly)
    if np.iscomplexobj(coeffs):
        if (coeffs.imag != 0.0).any():
            raise ParameterError("polynomial coefficients must be real")
        coeffs = coeffs.real
    coeffs = np.trim_zeros(coeffs.astype(float), "b")
    if coeffs.size < 2:
        raise ParameterError("polynomial degree must be at least 1")
    return coeffs


def _cluster_and_validate(coeffs: np.ndarray, raw: np.ndarray, tol: float):
    # single-linkage clustering at radius tol*(1+|r|): the connected components of the
    # link graph, found by squaring its reachability matrix; first[i] is the first member
    # of i's cluster, and clusters are numbered in the order of their first members
    size = np.abs(raw)
    link = np.abs(raw[:, None] - raw) <= tol * (1.0 + np.maximum(size[:, None], size))
    while not ((wider := link @ link) == link).all():
        link = wider
    first = link.argmax(axis=1)
    member = np.searchsorted(np.flatnonzero(first == np.arange(first.size)), first)
    mults = np.bincount(member)
    centers = (np.bincount(member, raw.real) + 1j * np.bincount(member, raw.imag)) / mults

    # the link graph is closed under conjugation, so a cluster is real or one of a pair;
    # the polish keeps real centres real and conjugate centres exact conjugates
    roots = _polish_centers(coeffs, centers, mults)

    der = npoly.polyder(coeffs)
    size = np.abs(roots)
    # scale against the local evaluation magnitude S(r) = sum |c_k| |r|^k;
    # an m-fold pseudo-root carries residual ~ (cluster radius)^m
    res = np.abs(npoly.polyval(roots, coeffs))
    bound = np.maximum(1e-8, (3.0 * _CLUSTER_TOL) ** mults) \
        * (npoly.polyval(size, np.abs(coeffs)) + 1e-300)
    over = res > bound
    if over.any():
        k = over.argmax()
        raise NumericalError(f"root residual {res[k]:.3g} exceeds tolerance at {roots[k]:.6g} "
                             f"(multiplicity {mults[k]})")
    # |f'(r)| = |lead| prod |r - r_j|: far below its evaluation scale at a simple root
    # means an unresolved multiple hides at r
    flat = (mults == 1) & (np.abs(npoly.polyval(roots, der))
                           < 1e-7 * (npoly.polyval(size, np.abs(der)) + 1e-300))
    if flat.any():
        raise NumericalError(f"simple-root classification inconsistent at "
                             f"{roots[flat.argmax()]:.6g} (nearly multiple)")
    idx = np.arange(roots.size)
    if (np.abs(roots[:, None] - roots) < 1e-5 * (1.0 + size[:, None]))[idx[:, None] < idx].any():
        raise NumericalError("distinct reported roots are closer than the "
                             "classification can support")

    real = roots.imag == 0.0
    if not real.any():
        raise NumericalError("no real root found; invalid parameters or numerical failure")
    i1 = np.flatnonzero(real)[roots.real[real].argmax()]

    order = sorted(idx, key=lambda i: (i != i1, -roots[i].real,
                                       -abs(roots[i].imag), roots[i].imag))
    return roots[order], mults[order]


def _polish_centers(coeffs: np.ndarray, z0: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """Refine each cluster center as a root of f's (mu-1)-th derivative, all in one Newton pass.

    For an exact m-fold root of f that derivative has a simple root there, so
    plain Newton converges quadratically; for a rounding-split cluster it
    lands on the center that minimizes the reconstruction error.  The pass
    runs in complex long double, which needs the 64-bit mantissa of x87
    extended precision (nmant >= 63); a shorter one would lose digits silently.
    """
    if _LONG_DOUBLE_NMANT < 63:
        raise CapabilityError(f"root polishing needs np.finfo(np.longdouble).nmant >= 63; "
                              f"this host's is {_LONG_DOUBLE_NMANT}")
    # one row of descending coefficients per center, zero-padded at the leading end
    work = np.zeros((mults.size, coeffs.size), dtype=np.clongdouble)
    for mu in set(mults.tolist()):
        row = npoly.polyder(coeffs, mu - 1)
        work[mults == mu, coeffs.size - row.size:] = row[::-1]
    z = z0.astype(np.clongdouble)
    for _ in range(40):
        f, fp = work[:, 0], np.zeros_like(z)
        for col in work.T[1:]:       # Horner for the row and its derivative together
            fp = fp * z + f
            f = f * z + col
        stall = fp == 0              # no step where the derivative vanishes
        step = np.where(stall, 0, f) / np.where(stall, 1, fp)
        z -= step
        if (np.abs(step) <= _POLISH_STEP * np.abs(z)).all():
            break
    return z.astype(complex)


# ---------------------------------------------------------------------------
# partial fractions
# ---------------------------------------------------------------------------

def partial_fractions(poly, m_minus: int) -> PartialFraction:
    """Partial fraction decomposition of z^{m_-} / f_q(z).

    Simple roots use A_k0 = r^{m_-}/f_q'(r), with f_q' formed and evaluated in
    long double; clusters are resolved through the local Taylor expansion of
    z^{m_-}/(f_q(z)/(z-r)^mu), a triangular solve on the cluster, corrected to
    first order for the remainder by which the rounded f_q splits the cluster.
    A reconstruction check at 32 sample points guards against misclassified
    clusters.
    """
    coeffs = _real_coeffs(poly)
    roots, mults = roots_with_multiplicity(coeffs)
    # f_q' at a simple root next to a cluster is far below its evaluation scale:
    # form and evaluate it in (complex) long double, where k * coeffs[k] is exact
    der = npoly.polyder(coeffs.astype(np.longdouble))

    pf_coeffs = np.zeros((roots.size, mults.max()), dtype=complex)
    for k, (r, mu) in enumerate(zip(roots, mults)):
        if mu == 1:
            pf_coeffs[k, 0] = r ** m_minus / complex(npoly.polyval(np.clongdouble(r), der))
            continue
        # f_q(r + w) = t(w) + w^mu L(w), where t (f_q's first mu Taylor coefficients at r)
        # is the rounding remainder of a split cluster.  The principal part of z^{m_-}/f_q
        # is that of z^{m_-}/(w^mu L) less t z^{m_-}/(w^{2 mu} L^2), up to O(t^2).  Without
        # the correction the cluster's coefficients miss those of the rounded f_q, whose
        # close simple roots' residues are exact, by O(t / dist^{mu+1})
        num_taylor = np.array([math.comb(m_minus, i) * r ** (m_minus - i) if i <= m_minus else 0.0
                               for i in range(2 * mu)], dtype=complex)
        taylor = _taylor_coeffs(coeffs, r, 3 * mu)
        local, rest = taylor[mu:], np.r_[taylor[:mu], np.zeros(mu)]
        inv = series_reciprocal(local, 2 * mu)
        c = series_product(num_taylor, inv, mu)
        corr = series_product(series_product(rest, num_taylor, 2 * mu),
                              series_product(inv, inv, 2 * mu), 2 * mu)[mu:]
        pf_coeffs[k, :mu] = np.subtract(c, corr)[::-1]
    for arr in (roots, mults, pf_coeffs):
        arr.flags.writeable = False
    pf = PartialFraction(roots=roots, multiplicities=mults, coeffs=pf_coeffs)

    angles = np.random.default_rng(20).uniform(0.0, 2.0 * math.pi, 32)
    z = (1.0 + 2.0 * np.abs(roots).max()) * np.exp(1j * angles)
    direct = z ** m_minus / npoly.polyval(z, coeffs)
    # near-degenerate clusters carry large, cancelling coefficients; the
    # representable accuracy is then limited by eps * sum |terms|
    tol = 1e-9 * (1.0 + np.abs(direct)) + 2e-13 * np.abs(pf.terms(z)).sum(axis=(-2, -1))
    if (np.abs(pf.reconstruct(z) - direct) > tol).any():
        raise ConditioningError(
            "partial fraction reconstruction failed; a root cluster may be misclassified")
    return pf


def _taylor_coeffs(coeffs: np.ndarray, r: complex, order: int) -> np.ndarray:
    """First ``order`` Taylor coefficients of the polynomial at z = r.

    Repeated synthetic division by (z - r) in place: pass i leaves the i-th
    remainder in work[i] and the quotient above it.  The division runs in complex
    long double, so the near-zero low coefficients at a cluster keep their digits.
    """
    work = np.asarray(coeffs, dtype=np.clongdouble).copy()
    r = np.clongdouble(r)
    out = np.zeros(order, dtype=complex)
    for i in range(min(order, work.size)):
        for k in range(work.size - 2, i - 1, -1):
            work[k] += r * work[k + 1]
        out[i] = work[i]
    return out
