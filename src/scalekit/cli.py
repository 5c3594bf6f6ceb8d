"""Command-line interface.

Subcommands:

* ``eval``    -- tabulate W^(q) and its derivative as CSV.
* ``figures`` -- the six-case grid of scale-function curves, one CSV per case.
* ``verify``  -- run verification suites, emitting a JSON report.
* ``apps``    -- applied quantities (ruin, exit, Z^(q), barrier, value, workload).

Exit codes: 0 success, 1 failed verification check, 2 invalid parameters.
The environment variable SCALEKIT_THREADS caps internal parallelism (the
current implementation is single-threaded, so any positive cap is honored).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bromwich import invert, verify_laplace_identity
from .catalog import build_catalog_entry, catalog_families
from .errors import ParameterError, ScalekitError
from .fluctuation import (ExitProblem, dividend_barrier, dividend_value,
                          mpi1_workload, ruin_probability, two_sided_exit, z_q)
from .gtsc import (GtscParams, ScaleFunction, asymptote_infinity,
                   w_gamma_scale, w_ig, w_rational, w0_closed_scale)
from .levy import big_phi
from .montecarlo import SimConfig, simulate_exit
from .polyfrac import RationalAlpha

__all__ = ["main", "CaseSpec", "CASES"]


@dataclass(frozen=True)
class CaseSpec:
    """One of the six reference parameterizations (c = gamma = 1)."""

    label: str
    kappa: float
    varphi: float
    zeta: float
    c: float = 1.0
    gamma: float = 1.0

    def params(self, alpha: float) -> GtscParams:
        return GtscParams(alpha=alpha, gamma=self.gamma, c=self.c,
                          zeta=self.zeta, kappa=self.kappa, varphi=self.varphi)


CASES = {
    "A": CaseSpec("A", kappa=0.0, varphi=0.0, zeta=0.0),
    "B": CaseSpec("B", kappa=1.0, varphi=0.0, zeta=0.0),
    "C": CaseSpec("C", kappa=0.0, varphi=1.0, zeta=0.0),
    "D": CaseSpec("D", kappa=0.0, varphi=0.0, zeta=1.0),
    "E": CaseSpec("E", kappa=1.0, varphi=0.0, zeta=1.0),
    "F": CaseSpec("F", kappa=0.0, varphi=1.0, zeta=1.0),
}


def thread_cap() -> int:
    """Upper bound on worker threads from SCALEKIT_THREADS (>= 1)."""
    raw = os.environ.get("SCALEKIT_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return max(1, os.cpu_count() or 1)


def _parse_alpha(text: str) -> Fraction:
    return Fraction(text)


def _gtsc_from_args(args) -> GtscParams:
    return GtscParams(alpha=float(_parse_alpha(args.alpha)), gamma=args.gamma,
                      c=args.c, zeta=args.zeta, kappa=args.kappa,
                      varphi=args.varphi)


def _build_scale(args) -> ScaleFunction:
    model = args.model
    q = args.q
    if model.startswith("catalog:"):
        family = model.split(":", 1)[1]
        overrides = {}
        if family in ("brownian",):
            overrides = {"sigma": args.sigma, "mu": args.mu, "q": q}
        elif family == "stable":
            overrides = {"beta": args.beta, "q": q}
        elif family == "stable_drift":
            overrides = {"beta": args.beta, "c": args.c}
        elif family == "cramer_lundberg":
            overrides = {"ccoef": args.ccoef, "lam": args.lam, "mu": args.mu}
        elif family == "fixed_jumps":
            overrides = {"ccoef": args.ccoef, "lam": args.lam, "jump": args.jump}
        elif family == "abate_whitt":
            overrides = {"lam": args.lam, "mu": args.mu}
        elif family.startswith("pssmp"):
            overrides = {"beta": args.beta}
        entry = build_catalog_entry(family, **{k: v for k, v in overrides.items()
                                               if v is not None})
        if q > 0 and entry.scale.q == 0.0 and family not in ("brownian", "stable"):
            raise ParameterError(f"family '{family}' provides the q = 0 scale function only")
        return entry.scale
    if model != "gtsc":
        raise ParameterError("model must be 'gtsc' or 'catalog:<family>'")
    params = _gtsc_from_args(args)
    return _route_scale(params, args.alpha, q, args.route)


def _route_scale(params: GtscParams, alpha_text: str, q: float, route: str) -> ScaleFunction:
    a = params.alpha
    standing_ig = (a == 0.5 and params.kappa == 0.0 and params.varphi == 0.0
                   and params.zeta == 0.0)
    if route == "auto":
        if standing_ig:
            route = "ig"
        elif a == 0.0:
            route = "closed"
        else:
            try:
                frac = _parse_alpha(alpha_text) if isinstance(alpha_text, str) \
                    else Fraction(a).limit_denominator(10 ** 6)
                route = "rational" if frac.denominator <= 12 else "bromwich"
            except (ValueError, ZeroDivisionError):
                route = "bromwich"
    if route == "rational":
        frac = _parse_alpha(alpha_text) if isinstance(alpha_text, str) else Fraction(a)
        return w_rational(params, RationalAlpha(frac.numerator, frac.denominator), q)
    if route == "ig":
        if not standing_ig:
            raise ParameterError("the ig route requires alpha=1/2 and kappa=varphi=zeta=0")
        gamma_ig = math.sqrt(2.0 * params.gamma)
        delta = params.c * math.sqrt(2.0 * math.pi)
        return w_ig(delta, gamma_ig, q)
    if route == "closed":
        if a == 0.0:
            if q != 0.0 or params.kappa or params.zeta or params.varphi:
                raise ParameterError("alpha = 0 supports only q=0, kappa=zeta=varphi=0")
            return w_gamma_scale(params.c, params.gamma)
        if q != 0.0 or params.zeta != 0.0:
            raise ParameterError("the closed route requires q = 0 and zeta = 0")
        return w0_closed_scale(params)
    if route == "bromwich":
        psi = params.exponent()
        phi_q = big_phi(psi, q)

        def eval_fn(x: float) -> float:
            return invert(psi, q, x)[0] if x > 0 else 0.0

        return ScaleFunction(q=q, phi_q=phi_q, route="bromwich", eval_fn=eval_fn,
                             psi=psi, value_at_zero=None)
    raise ParameterError(f"unknown route '{route}'")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    scale = _build_scale(args)
    xs = np.linspace(args.x_min, args.x_max, args.points)
    out = args.output or sys.stdout
    print("x,W,Wprime,route,q", file=out)
    for x in xs:
        w = scale.eval(float(x))
        try:
            wp = scale.eval_deriv(float(x))
        except ScalekitError:
            wp = math.nan
        print(f"{x:.12g},{w:.12g},{wp:.12g},{scale.route},{scale.q:.12g}", file=out)
    return 0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def cmd_figures(args) -> int:
    alphas = [Fraction(tok) for tok in args.alphas.split(",") if tok]
    q = float(args.q)
    os.makedirs(args.out, exist_ok=True)
    xs = np.linspace(0.0, args.x_max, args.points)
    for label, case in CASES.items():
        path = os.path.join(args.out, f"case_{label}_q{args.q}.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write("x,alpha,W\n")
            for frac in alphas:
                params = case.params(float(frac))
                scale = w_rational(params, RationalAlpha(frac.numerator, frac.denominator), q)
                for x, w in zip(xs, scale.eval(xs)):
                    fh.write(f"{x:.12g},{float(frac):.12g},{w:.12g}\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(name, target, achieved, tolerance):
    ok = bool(achieved <= tolerance)
    return {"name": name, "target": target, "achieved": achieved,
            "tolerance": tolerance, "pass": ok}


def cmd_verify(args) -> int:
    checks = []
    scale = _build_scale(args)
    psi = scale.psi
    suites = ("laplace", "routes", "asymptotics", "mc") if args.suite == "all" \
        else (args.suite,)

    if "laplace" in suites:
        thetas = [scale.phi_q + off for off in (0.5, 1.0, 2.0, 5.0)]
        rep = verify_laplace_identity(scale, psi, thetas)
        for th, err in zip(rep.thetas, rep.relative_errors):
            checks.append(_check(f"laplace_identity@theta={th:.6g}",
                                 "1/(psi(theta)-q)", err, 1e-6))

    if "routes" in suites and args.model == "gtsc":
        xs = np.linspace(0.05, 10.0, 25)
        worst = 0.0
        for x in xs:
            ref, _ = invert(psi, scale.q, float(x))
            got = scale.eval(float(x))
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-300))
        checks.append(_check(f"route_agreement[{scale.route} vs bromwich]",
                             "pointwise agreement", worst, 1e-6))

    if "asymptotics" in suites and args.model == "gtsc":
        params = _gtsc_from_args(args)
        rep_inf = asymptote_infinity(params, scale.q)
        x_far = 50.0
        w_far = scale.eval(x_far)
        if rep_inf.regime == "constant":
            err = abs(w_far - rep_inf.constant) / rep_inf.constant
            checks.append(_check("limit_at_infinity", rep_inf.constant, err, 1e-3))
        elif rep_inf.regime == "linear":
            slope = (scale.eval(x_far) - scale.eval(x_far - 1.0))
            err = abs(slope - rep_inf.constant) / rep_inf.constant
            checks.append(_check("linear_growth_slope", rep_inf.constant, err, 1e-2))
        else:
            lo, hi = x_far - 6.0, x_far
            rate = (math.log(scale.eval(hi)) - math.log(scale.eval(lo))) / (hi - lo)
            err = abs(rate - rep_inf.rate) / max(rep_inf.rate, 1e-12)
            checks.append(_check("exponential_growth_rate", rep_inf.rate, err, 1e-2))

    if "mc" in suites:
        x0, a0 = 0.5 * args.a, args.a
        if args.model == "gtsc":
            params = _gtsc_from_args(args)
            triple, _ = params.parent_triple()
        else:
            raise ParameterError("the mc suite currently targets --model gtsc")
        cfg = SimConfig(n_paths=args.paths, dt=args.dt, seed=args.seed)
        est = simulate_exit(triple, x0, a0, cfg)
        target = scale.eval(x0) / scale.eval(a0)
        dev = abs(est.p_hat - target) / max(est.stderr, 1e-12)
        checks.append(_check(f"mc_exit[x={x0},a={a0}]", target, dev, 3.0))

    report = {"suite": args.suite, "model": args.model,
              "checks": checks, "pass": all(c["pass"] for c in checks)}
    json.dump(report, args.output or sys.stdout, indent=2)
    print(file=args.output or sys.stdout)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# apps
# ---------------------------------------------------------------------------

def cmd_apps(args) -> int:
    scale = _build_scale(args)
    psi = scale.psi
    out = args.output or sys.stdout
    compute = args.compute
    if compute == "exit":
        if args.a is None:
            raise ParameterError("--a is required for the exit computation")
        p = two_sided_exit(ExitProblem(scale=scale, x=args.x, a=args.a, q=args.q))
        json.dump({"compute": "exit", "x": args.x, "a": args.a, "q": args.q,
                   "probability": p}, out)
    elif compute == "ruin":
        val = ruin_probability(scale, psi, args.x)
        json.dump({"compute": "ruin", "x": args.x, "probability": val}, out)
    elif compute == "workload":
        cdf = mpi1_workload(scale, psi)
        json.dump({"compute": "workload", "x": args.x, "cdf": cdf(args.x)}, out)
    elif compute == "zq":
        json.dump({"compute": "zq", "x": args.x, "q": args.q,
                   "Z": z_q(scale, args.x)}, out)
    elif compute == "barrier":
        a_star = dividend_barrier(scale)
        json.dump({"compute": "barrier", "a_star": a_star,
                   "Wq_prime_at_a_star": scale.eval_deriv(a_star)}, out)
    elif compute == "value":
        a = args.a if args.a is not None else dividend_barrier(scale)
        json.dump({"compute": "value", "a": a, "x": args.x,
                   "value": dividend_value(scale, a, args.x)}, out)
    else:
        raise ParameterError(f"unknown computation '{compute}'")
    print(file=out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--model", default="gtsc",
                   help="gtsc or catalog:<family> "
                        f"(families: {', '.join(catalog_families())})")
    p.add_argument("--alpha", default="1/2", help="stability parameter (fraction or decimal)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--zeta", type=float, default=0.0)
    p.add_argument("--kappa", type=float, default=0.0)
    p.add_argument("--varphi", type=float, default=0.0)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--route", default="auto",
                   choices=["auto", "rational", "closed", "ig", "bromwich"])
    p.add_argument("--beta", type=float, default=None, help="catalog stable index")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--ccoef", type=float, default=None)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--jump", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="scalekit",
                                 description="scale functions of spectrally negative "
                                             "Levy processes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="tabulate W^(q) as CSV")
    _add_model_args(p)
    p.add_argument("--x-min", type=float, default=0.0)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--points", type=int, default=101)
    p.set_defaults(func=cmd_eval, output=None)

    p = sub.add_parser("figures", help="six-case scale-function grid as CSV files")
    p.add_argument("--q", choices=["0", "1"], default="0")
    p.add_argument("--alphas", default="1/4,1/3,1/2,2/3,3/4")
    p.add_argument("--out", required=True)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--points", type=int, default=501)
    p.set_defaults(func=cmd_figures, output=None)

    p = sub.add_parser("verify", help="verification suites with a JSON report")
    _add_model_args(p)
    p.add_argument("--suite", default="all",
                   choices=["laplace", "routes", "asymptotics", "mc", "all"])
    p.add_argument("--paths", type=int, default=20_000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=20_240_901)
    p.add_argument("--a", type=float, default=2.0)
    p.set_defaults(func=cmd_verify, output=None)

    p = sub.add_parser("apps", help="applied quantities")
    _add_model_args(p)
    p.add_argument("--compute", required=True,
                   choices=["ruin", "exit", "zq", "barrier", "value", "workload"])
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--case", default=None, help="use a reference case label A-F")
    p.set_defaults(func=cmd_apps, output=None)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "case", None):
        case = CASES.get(args.case.upper())
        if case is None:
            print(f"error: unknown case '{args.case}'", file=sys.stderr)
            return 2
        args.kappa, args.varphi, args.zeta = case.kappa, case.varphi, case.zeta
        args.c, args.gamma = case.c, case.gamma
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScalekitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
