"""Acceptance criteria.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  The
shared 60-configuration grid (alpha in {1/4,1/3,1/2,2/3,3/4} x cases A-F x
q in {0,1}) is built once per session.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import special as sps

from scalekit.bromwich import verify_laplace_identity
from scalekit.catalog import build_catalog_entry, catalog_families
from scalekit.cli import CASES
from scalekit.fluctuation import dividend_barrier
from scalekit.gtsc import (GtscParams, ig_params, ig_q0_threshold, scale_function, w_ig,
                           w_rational)
from scalekit.montecarlo import SimConfig, simulate_exit, simulate_ruin
from scalekit.polyfrac import RationalAlpha, build_fq, roots_with_multiplicity
from scalekit.special import (erfc_c, fransen_transform, mittag_leffler,
                              mittag_leffler_deriv)

ALPHAS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
QS = (0.0, 1.0)


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" -- {detail}" if detail else ""))


@pytest.fixture(scope="module")
def grid():
    """The 60-configuration GTSC grid, rational route, built once."""
    out = {}
    for label, case in CASES.items():
        for fr in ALPHAS:
            for q in QS:
                params = case.params(float(fr))
                out[(label, fr, q)] = (params, w_rational(
                    params, RationalAlpha(fr.numerator, fr.denominator), q))
    return out


class TestCriterion1:
    def test_master_laplace_identity(self, grid):
        t0 = time.time()
        worst = 0.0
        worst_at = None
        for (label, fr, q), (params, w) in grid.items():
            rep = verify_laplace_identity(
                w, [w.phi_q + off for off in (0.5, 1.0, 2.0, 5.0)])
            if rep.max_rel_err > worst:
                worst, worst_at = rep.max_rel_err, (label, str(fr), q)
            assert rep.max_rel_err <= 1e-6, (label, fr, q, rep.relative_errors)
        elapsed = time.time() - t0
        _report("criterion 1a: GTSC grid Laplace identity (60 configs x 4 thetas)",
                worst <= 1e-6 and elapsed < 120.0,
                f"max rel err {worst:.2e} at {worst_at}, {elapsed:.0f}s")
        assert elapsed < 120.0

    def test_catalog_identity(self):
        worst = 0.0
        for family in catalog_families():
            entry = build_catalog_entry(family)
            w = entry.scale
            kinks = tuple(np.arange(1.0, 95.0)) if family == "fixed_jumps" else ()
            rep = verify_laplace_identity(
                w, [w.phi_q + off for off in (0.5, 1.0, 2.0, 5.0)],
                kinks=kinks)
            worst = max(worst, rep.max_rel_err)
            assert rep.max_rel_err <= 1e-6, (family, rep.relative_errors)
        _report("criterion 1b: catalog families Laplace identity",
                worst <= 1e-6, f"max rel err {worst:.2e}")


class TestCriterion2:
    def test_rational_vs_bromwich_grid(self, grid):
        xs = np.linspace(0.05, 10.0, 101)
        worst = 0.0
        worst_at = None
        for (label, fr, q), (params, w) in grid.items():
            ref = scale_function(params, q, "bromwich").eval(xs)
            rel = np.abs(w.eval(xs) - ref) / np.maximum(np.abs(ref), 1e-300)
            if rel.max() > worst:
                worst, worst_at = rel.max(), (label, str(fr), q, float(xs[rel.argmax()]))
        _report("criterion 2: rational-ML vs bromwich on the 60-config grid",
                worst <= 1e-6, f"max rel dev {worst:.2e} at {worst_at}")
        assert worst <= 1e-6

    def test_ig_vs_rational(self):
        worst = 0.0
        for q in (0.0, 0.4, 1.0):
            wig = w_ig(1.0, 1.0, q)
            wra = w_rational(ig_params(1.0, 1.0), RationalAlpha(1, 2), q)
            xs = np.linspace(0.05, 10.0, 101)
            got = wig.eval(xs)
            rel = np.abs(got - wra.eval(xs)) / np.maximum(np.abs(got), 1e-300)
            worst = max(worst, rel.max())
        _report("criterion 2: IG closed form vs rational route",
                worst <= 1e-8, f"max rel dev {worst:.2e}")
        assert worst <= 1e-8


class TestCriterion3:
    def test_ig_root_structure_and_continuity(self):
        q0 = ig_q0_threshold(1.0, 1.0)
        p = ig_params(1.0, 1.0)
        below, mb = roots_with_multiplicity(build_fq(p, RationalAlpha(1, 2), 0.9 * q0))
        three_real = sum(1 for r in below if r.imag == 0.0) == 3 and all(mb == 1)
        above, ma = roots_with_multiplicity(build_fq(p, RationalAlpha(1, 2), 1.1 * q0))
        one_plus_pair = (sum(1 for r in above if r.imag == 0.0) == 1
                         and sum(1 for r in above if r.imag != 0.0) == 2
                         and all(ma == 1))
        eps = 1e-7 * q0
        wm, wp = w_ig(1.0, 1.0, q0 - eps), w_ig(1.0, 1.0, q0 + eps)
        jump = max(abs(wm.eval(x) - wp.eval(x)) for x in (0.5, 1.0, 2.0))
        ok = three_real and one_plus_pair and jump <= 1e-6
        _report("criterion 3: IG root classification and continuity across q0",
                ok, f"roots: {three_real}/{one_plus_pair}, |W jump| = {jump:.2e}")
        assert ok


def _richardson_zero_limit(f, n, h0=4e-3, levels=8):
    # W'(h) - W'(0+) expands in powers h^{k/n}: eliminate the first
    # ``levels``-1 of them (8 levels cover the slow h^{1/4} ladder)
    hs = np.array([h0 / 2.0 ** i for i in range(levels)])
    vand = np.array([[h ** (k / n) for k in range(levels)] for h in hs])
    return float(np.linalg.solve(vand, [f(float(h)) for h in hs])[0])


class TestCriterion4:
    def test_boundary_behaviour(self, grid):
        failures = []
        # (a) cases D/E/F: W^(q)'(0+) = 1 = 2/sigma^2 within 1e-3 (Richardson)
        for label in ("D", "E", "F"):
            for fr in ALPHAS:
                for q in QS:
                    _, w = grid[(label, fr, q)]
                    got = _richardson_zero_limit(w.eval_deriv, fr.denominator)
                    if abs(got - 1.0) > 1e-3:
                        failures.append(f"W'(0+) {label}/{fr}/q={q}: {got:.5f}")
        # (b) case B: W -> 1/kappa = 1 within 1e-3 at x = 50
        for fr in ALPHAS:
            _, w = grid[("B", fr, 0.0)]
            if abs(w.eval(50.0) - 1.0) > 1e-3:
                failures.append(f"B tail {fr}: {w.eval(50.0):.5f}")
        # (c) case C: fitted exponential rate = varphi = 1 within 1%
        for fr in ALPHAS:
            _, w = grid[("C", fr, 0.0)]
            rate = (math.log(w.eval(50.0)) - math.log(w.eval(44.0))) / 6.0
            if abs(rate - 1.0) > 0.01:
                failures.append(f"C rate {fr}: {rate:.4f}")
        # (d) cases A and D: slope at x = 50 matches the linear-growth constant
        for label in ("A", "D"):
            for fr in ALPHAS:
                params, w = grid[(label, fr, 0.0)]
                slope = w.eval(50.0) - w.eval(49.0)
                target = 1.0 / (params.zeta + params.c * params.gamma ** (float(fr) - 1.0)
                                * sps.gamma(1.0 - float(fr)))
                if abs(slope - target) > 0.01 * target:
                    failures.append(f"{label} slope {fr}: {slope:.5f} vs {target:.5f}")
        _report("criterion 4: boundary behaviour (0+ derivative, tails, rates)",
                not failures, "; ".join(failures) if failures else
                "30 derivative limits, 5 tails, 5 rates, 10 slopes")
        assert not failures, failures


def _transition_pattern(w, x_hi=10.0, n=320):
    xs = np.linspace(0.02, x_hi, n)
    second = np.diff([w.eval(float(x)) for x in xs], 2)
    scale = np.max(np.abs(second))
    signs = np.sign(np.where(np.abs(second) < 1e-12 * (1.0 + scale), 0.0, second))
    nz = signs[signs != 0]
    flips = np.flatnonzero(np.diff(nz) != 0)
    cells = xs[1:-1][signs != 0]
    bracket = (float(cells[flips[0]]), float(cells[flips[0] + 1])) if len(flips) else None
    return nz, flips, bracket


class TestCriterion5:
    def test_shapes_q0(self, grid):
        failures = []
        for label in ("A", "B", "D", "E"):
            for fr in ALPHAS:
                _, w = grid[(label, fr, 0.0)]
                xs = np.linspace(0.05, 10.0, 200)
                second = np.diff([w.eval(float(x)) for x in xs], 2)
                if not np.all(second <= 1e-8):
                    failures.append(f"{label}/{fr} concavity violated: "
                                    f"max {second.max():.2e}")
        # C and F switch convexity exactly once: concave near 0 (W'(0+) is
        # infinite or a strict local max) into the convex e^{varphi x} tail
        for label in ("C", "F"):
            for fr in ALPHAS:
                _, w = grid[(label, fr, 0.0)]
                nz, flips, _ = _transition_pattern(w)
                if not (len(flips) == 1 and nz[0] < 0 and nz[-1] > 0):
                    failures.append(f"{label}/{fr} q=0 transition count {len(flips)}")
        _report("criterion 5a: q=0 shapes (A,B,D,E concave; C,F one transition)",
                not failures, "; ".join(failures) if failures else
                "C,F orientation is concave->convex (forced by W'(0+) and the "
                "exponential tail; sometimes misquoted in the other order)")
        assert not failures, failures

    def test_shapes_q1_and_barrier(self, grid):
        failures = []
        for label in CASES:
            for fr in ALPHAS:
                _, w = grid[(label, fr, 1.0)]
                nz, flips, bracket = _transition_pattern(w)
                if not (len(flips) == 1 and nz[0] < 0 and nz[-1] > 0):
                    failures.append(f"{label}/{fr} q=1 transitions: {len(flips)}")
                    continue
                a_star = dividend_barrier(w)
                lo, hi = bracket
                pad = 2.0 * (10.0 - 0.02) / 320
                if not (lo - pad <= a_star <= hi + pad):
                    failures.append(f"{label}/{fr} a*={a_star:.4f} "
                                    f"outside ({lo:.4f}, {hi:.4f})")
        _report("criterion 5b: q=1 concave->convex with a* in the bracket",
                not failures, "; ".join(failures) if failures else "30 configs")
        assert not failures, failures


class TestCriterion6:
    def test_monte_carlo_concordance(self, grid):
        from scalekit.levy import LevyTriple

        t0 = time.time()
        lines = []
        ok = True
        # (i) Brownian two-sided exit
        tri = LevyTriple(a=0.0, sigma=1.0, pi_tail=lambda x: 0.0,
                         pi_density=lambda x: 0.0)
        est = simulate_exit(tri, 0.5, 1.0,
                            SimConfig(n_paths=100_000, dt=2e-4, horizon=60.0, seed=7))
        dev = abs(est.p_hat - 0.5) / est.stderr
        ok &= dev <= 3.0
        lines.append(f"brownian {est.p_hat:.4f}±{est.stderr:.4f} ({dev:.1f}σ)")
        # (ii) Cramer-Lundberg ruin; a_upper chosen so W(x)/W(a) residual
        # is below 1e-3 of the target
        mean = 2.0 - 1.0
        a_cl = -(mean + 1.0 * math.exp(-1.0) * 2.0)
        tri_cl = LevyTriple(a=a_cl, sigma=0.0,
                            pi_tail=lambda x: math.exp(-x),
                            pi_density=lambda x: math.exp(-x),
                            jump_components=(("exponential", 1.0, 1.0),))
        target_cl = 0.5 * math.exp(-0.5)
        est = simulate_ruin(tri_cl, 1.0,
                            SimConfig(n_paths=100_000, horizon=3000.0, seed=11),
                            a_upper=17.0)
        dev = abs(est.p_hat - target_cl) / est.stderr
        ok &= dev <= 3.0
        lines.append(f"CL ruin {est.p_hat:.4f}±{est.stderr:.4f} vs {target_cl:.4f} ({dev:.1f}σ)")
        # (iii) GTSC case A exit
        params, w = grid[("A", Fraction(1, 2), 0.0)]
        triple, _ = params.parent_triple()
        target = w.eval(1.0) / w.eval(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = simulate_exit(triple, 1.0, 2.0,
                                SimConfig(n_paths=100_000, dt=5e-4,
                                          small_jump_cutoff=0.02, horizon=400.0,
                                          seed=3))
        dev = abs(est.p_hat - target) / est.stderr
        ok &= dev <= 3.0
        lines.append(f"GTSC-A exit {est.p_hat:.4f}±{est.stderr:.4f} vs {target:.4f} ({dev:.1f}σ)")
        elapsed = time.time() - t0
        ok &= elapsed < 300.0
        _report("criterion 6: Monte Carlo concordance (3 sigma, < 5 min)",
                ok, "; ".join(lines) + f"; {elapsed:.0f}s")
        assert ok


class TestCriterion7:
    def test_stable_continuity_as_stated(self):
        """Verbatim criterion: gamma = 1e-4 within 1e-3 of x^(1/2)/Gamma(3/2).

        The tempering correction enters at order gamma^alpha = 1e-2 (the
        exponent differs from theta^(3/2) by c*Gamma(-a)*gamma^a*theta), so
        the deviation at gamma = 1e-4 is ~1e-2 and the stated tolerance
        cannot be met by any correct implementation; the gamma -> 0 limit
        itself is confirmed by the companion check below.
        """
        alpha = 0.5
        c = -1.0 / sps.gamma(-alpha)

        def max_dev(gamma):
            params = GtscParams(alpha=alpha, gamma=gamma, c=c)
            w = w_rational(params, RationalAlpha(1, 2), 0.0)
            return max(abs(w.eval(float(x)) - x ** 0.5 / sps.gamma(1.5))
                       / (x ** 0.5 / sps.gamma(1.5))
                       for x in np.linspace(0.1, 5.0, 50))

        dev_stated = max_dev(1e-4)
        ok_stated = dev_stated <= 1e-3
        _report("criterion 7: stable limit at gamma=1e-4 within 1e-3 (as stated)",
                ok_stated,
                f"max rel dev {dev_stated:.2e}; deviation is O(gamma^0.5) = O(1e-2), "
                "so the stated tolerance is unattainable at gamma = 1e-4")
        # companion diagnostics: the limit claim itself holds at the
        # gamma^(1/2) rate, reaching 1e-3 once gamma <= ~2.5e-7
        dev_small = max_dev(1e-8)
        _report("criterion 7 (diagnostic): same check at gamma=1e-8",
                dev_small <= 1e-3, f"max rel dev {dev_small:.2e}")
        assert dev_small <= 1e-3
        assert dev_small <= 0.05 * dev_stated   # confirms the sqrt(gamma) rate
        assert ok_stated, (
            f"stated tolerance unattainable: deviation {dev_stated:.2e} is the "
            "O(gamma^alpha) tempering correction, not an implementation error")


class TestCriterion8:
    def test_special_function_suite(self):
        failures = []
        rng = np.random.default_rng(2)
        for _ in range(60):
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if abs(z) > 20:
                z *= 20 / abs(z)
            if abs(mittag_leffler(1, 1, z) - np.exp(z)) > 1e-12 * abs(np.exp(z)):
                failures.append(f"E11({z:.3g})")
            ref = np.cosh(np.sqrt(complex(z)))
            if abs(mittag_leffler(2, 1, z) - ref) > 1e-12 * (1 + abs(ref)):
                failures.append(f"E21({z:.3g})")
        for a, b, z in ((0.5, 0.5, 1.3), (0.75, 1.0, -2.0), (1.5, 1.0, 0.8)):
            h = 1e-5
            fd = (mittag_leffler(a, b, z + h) - mittag_leffler(a, b, z - h)) / (2 * h)
            if abs(mittag_leffler_deriv(a, b, 1, z) - fd) > 1e-6 * (1 + abs(fd)):
                failures.append(f"dE({a},{b},{z})")
        for x in (0.3, 1.7, 9.0):
            if abs(erfc_c(-x) - (2.0 - erfc_c(x))) > 4e-16 * (1 + abs(erfc_c(-x))):
                failures.append(f"erfc refl {x}")
        vals = [fransen_transform(t) for t in (0.0, 0.5, 1.0, 3.0, 10.0)]
        if not all(b < a for a, b in zip(vals, vals[1:])):
            failures.append("fransen not monotone")
        # the Fransen-Wrigge constant int_0^inf dx/Gamma(x), 30-digit mpmath quadrature
        if abs(fransen_transform(0.0) - 2.80777024202851936522150) > 1e-8 * vals[0]:
            failures.append("fransen reference")
        _report("criterion 8: special-function suite", not failures,
                "; ".join(failures) if failures else
                "E identities, derivatives, erfc reflection, reciprocal-gamma transform")
        assert not failures, failures


class TestCriterion9:
    def test_corrections_ledger(self):
        from scipy.integrate import quad

        from scalekit.catalog import (CORRECTIONS, w_brownian, w_cramer_lundberg,
                                      w_fixed_jumps)

        def identity_err(fn, psi_fn, q, theta, upper, kinks=()):
            val, _ = quad(lambda x: math.exp(-theta * x) * fn(x), 0.0, upper,
                          limit=800, points=list(kinks) or None)
            target = 1.0 / (psi_fn(theta) - q)
            return abs(val - target) / abs(target)

        rows = []
        ok = True
        # brownian
        s2, mu, q = 1.0, 0.5, 1.0
        psi_b = lambda th: 0.5 * s2 * th * th + mu * th
        wb = w_brownian(1.0, mu, q)
        verb_b = lambda x: 2.0 / math.sqrt(2 * q * s2 + mu) * math.exp(-mu * x / s2) \
            * math.sinh(x * math.sqrt(2 * q * s2 + mu) / s2)
        e_ship = identity_err(wb.eval, psi_b, q, wb.phi_q + 1.0, 80.0)
        e_verb = identity_err(verb_b, psi_b, q, wb.phi_q + 1.0, 80.0)
        ok &= e_ship <= 1e-6 and e_verb >= 1e-2
        rows.append(f"brownian: shipped {e_ship:.1e}, verbatim {e_verb:.1e}")
        # cramer-lundberg
        c, lam, m = 2.0, 1.0, 1.0
        psi_c = lambda th: c * th - lam * th / (m + th)
        wc = w_cramer_lundberg(c, lam, m)
        verb_c = lambda x: (1.0 + lam / (c * m - lam)
                            * (1.0 - math.exp((m - lam / c) * x))) / c
        e_ship = identity_err(wc.eval, psi_c, 0.0, 1.0, 90.0)
        e_verb = identity_err(verb_c, psi_c, 0.0, 1.0, 90.0)
        ok &= e_ship <= 1e-6 and e_verb >= 1e-2
        rows.append(f"cramer_lundberg: shipped {e_ship:.1e}, verbatim {e_verb:.1e}")
        # fixed jumps
        psi_f = lambda th: th - 0.5 * (1.0 - math.exp(-th))
        wf = w_fixed_jumps(1.0, 0.5, 1.0)

        def verb_f(x):
            tot = 0.0
            for n in range(1, int(math.floor(x + 1e-12)) + 1):
                u = n - x
                tot += math.exp(-0.5 * u) * (0.5 * u) ** n / math.factorial(n)
            return tot

        kk = tuple(np.arange(1.0, 46.0))
        e_ship = identity_err(wf.eval, psi_f, 0.0, 1.0, 45.0, kk)
        e_verb = identity_err(verb_f, psi_f, 0.0, 1.0, 45.0, kk)
        ok &= e_ship <= 1e-6 and e_verb >= 1e-2
        rows.append(f"fixed_jumps: shipped {e_ship:.1e}, verbatim {e_verb:.1e}")
        ok &= set(CORRECTIONS) == {"brownian", "cramer_lundberg", "fixed_jumps"}
        _report("criterion 9: corrections documented and discriminating",
                ok, "; ".join(rows))
        assert ok