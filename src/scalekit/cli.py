"""Command-line interface.

Subcommands:

* ``eval``    -- tabulate W^(q) and its derivative as CSV.
* ``figures`` -- the six-case grid of scale-function curves, one CSV per case.
* ``verify``  -- run verification suites, emitting a JSON report.
* ``apps``    -- applied quantities (ruin, exit, Z^(q), barrier, value, workload).

Exit codes: 0 success, 1 failed verification check, 2 invalid parameters.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .bromwich import invert_line, verify_laplace_identity
from .catalog import build_catalog_entry, catalog_families, family_parameters
from .errors import NotApplicableError, ParameterError, ScalekitError
from .fluctuation import (dividend_barrier, dividend_value, mpi1_workload,
                          ruin_probability, two_sided_exit, z_q)
from .gtsc import GtscParams, asymptote_infinity, scale_function
from .montecarlo import SimConfig, simulate_exit
from .scale import _CHUNK, ScaleFunction

__all__ = ["main", "CaseSpec", "CASES"]


@dataclass(frozen=True)
class CaseSpec:
    """One of the six reference parameterizations (c = gamma = 1)."""

    kappa: float
    varphi: float
    zeta: float

    def params(self, alpha: float) -> GtscParams:
        return GtscParams(alpha=alpha, gamma=1.0, c=1.0,
                          zeta=self.zeta, kappa=self.kappa, varphi=self.varphi)


CASES = {
    "A": CaseSpec(kappa=0.0, varphi=0.0, zeta=0.0),
    "B": CaseSpec(kappa=1.0, varphi=0.0, zeta=0.0),
    "C": CaseSpec(kappa=0.0, varphi=1.0, zeta=0.0),
    "D": CaseSpec(kappa=0.0, varphi=0.0, zeta=1.0),
    "E": CaseSpec(kappa=1.0, varphi=0.0, zeta=1.0),
    "F": CaseSpec(kappa=0.0, varphi=1.0, zeta=1.0),
}

# the GTSC ladder flags of --model gtsc and their values when neither they nor --case are given
_LADDER_DEFAULTS = {"gamma": 1.0, "c": 1.0, "zeta": 0.0, "kappa": 0.0, "varphi": 0.0}
_GTSC_DEFAULTS = {"alpha": "1/2", "route": "auto", **_LADDER_DEFAULTS}
_CATALOG_FLAGS = ("beta", "sigma", "mu", "ccoef", "lam", "jump")   # family_parameters names


def _parse_fraction(text: str) -> Fraction:
    try:
        frac = Fraction(text)
        float(frac)                    # OverflowError beyond double range
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ParameterError(f"alpha must be a fraction or a decimal, got {text!r}") from exc
    return frac


def _gtsc_from_args(args) -> GtscParams:
    return GtscParams(alpha=float(_parse_fraction(args.alpha)),
                      **{name: getattr(args, name) for name in _LADDER_DEFAULTS})


def _build_model(args) -> tuple[ScaleFunction, dict]:
    """The scale function --model names, with the catalog family's resolved parameters
    ({} for gtsc)."""
    model = args.model
    if model.startswith("catalog:"):
        family = model.split(":", 1)[1]
        overrides = {name: getattr(args, name, None) for name in family_parameters(family)}
        entry = build_catalog_entry(family, **{k: v for k, v in overrides.items()
                                               if v is not None})
        if entry.scale.q != args.q:
            raise ParameterError(f"family '{family}' provides the q = 0 scale function only")
        return entry.scale, entry.params
    if model != "gtsc":
        raise ParameterError("model must be 'gtsc' or 'catalog:<family>'")
    return scale_function(_gtsc_from_args(args), args.q, args.route), {}


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _grid(x_min: float, x_max: float, points: int) -> np.ndarray:
    if points < 0:
        raise ParameterError(f"--points must be nonnegative, got {points}")
    return np.linspace(x_min, x_max, points)


def cmd_eval(args) -> int:
    scale, _ = _build_model(args)
    xs = _grid(args.x_min, args.x_max, args.points)
    print("x,W,Wprime,route,q")
    ws, wps = np.empty(xs.shape), np.full(xs.shape, math.nan)
    # W, then W', one chunk at a time, so that the rational route's W' reuses W's values
    for i in range(0, xs.size, _CHUNK):
        block = slice(i, i + _CHUNK)
        ws[block] = scale.eval(xs[block])
        try:
            wps[block] = scale.eval_deriv(xs[block])
        except ScalekitError:  # point by point, so that only the rows whose W' fails print nan
            for j in range(xs.size)[block]:
                with contextlib.suppress(ScalekitError):
                    wps[j] = scale.eval_deriv(float(xs[j]))
    for x, w, wp in zip(xs, ws, wps):
        print(f"{x:.12g},{w:.12g},{wp:.12g},{scale.route},{scale.q:.12g}")
    return 0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def cmd_figures(args) -> int:
    alphas = [_parse_fraction(tok) for tok in args.alphas.split(",") if tok]
    q = float(args.q)
    os.makedirs(args.out, exist_ok=True)
    xs = _grid(0.0, args.x_max, args.points)
    for label, case in CASES.items():
        path = os.path.join(args.out, f"case_{label}_q{args.q}.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write("x,alpha,W\n")
            for frac in alphas:
                scale = scale_function(case.params(float(frac)), q, "rational")
                for x, w in zip(xs, scale.eval(xs)):
                    fh.write(f"{x:.12g},{float(frac):.12g},{w:.12g}\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_SUITES = ("laplace", "routes", "asymptotics", "mc")


def _check(name, target, achieved, tolerance):
    return {"name": name, "target": target,
            "achieved": achieved if math.isfinite(achieved) else None,   # JSON has no inf
            "tolerance": tolerance, "pass": bool(achieved <= tolerance)}


def _suite_checks(suite: str, args, scale: ScaleFunction, family: dict) -> list:
    """The checks of one suite; ``NotApplicableError`` where it does not apply to the model."""
    if suite == "laplace":
        thetas = [scale.phi_q + off for off in (0.5, 1.0, 2.0, 5.0)]
        # W of a family with a jump size has a kink at each multiple of it; the forward
        # quadrature splits its panels at those below 90, the truncation point of the offset
        # 0.5.  Kink n is a C^(n-1) point, so the first 64 are enough, and a small --jump
        # adds at most 64 panels
        jump = family.get("jump")
        kinks = jump * np.arange(1, min(math.ceil(90.0 / jump), 65)) if jump else ()
        rep = verify_laplace_identity(scale, thetas, kinks)
        # a raising quadrature flags every theta, once each and in order
        notes = [{"notes": [flag]} for flag in rep.flags] or [{}] * len(rep.thetas)
        return [{**_check(f"laplace_identity@theta={th:.6g}", "1/(psi(theta)-q)", err, 1e-6),
                 **note} for th, err, note in zip(rep.thetas, rep.relative_errors, notes)]
    if args.model != "gtsc":
        raise NotApplicableError(f"the {suite} suite checks --model gtsc only")
    params = _gtsc_from_args(args)

    if suite == "routes":
        # the bromwich route is checked against the other contour, not against itself
        line = scale.route == "bromwich"
        xs = np.linspace(0.05, 10.0, 25)
        if line:
            ref = np.array([invert_line(scale.psi, scale.q, float(x))[0] for x in xs])
        else:   # one array pass of the hyperbola, with Phi(q) computed once
            ref = scale_function(params, scale.q, "bromwich").eval(xs)
        worst = float(np.max(np.abs(scale.eval(xs) - ref) / np.maximum(np.abs(ref), 1e-300)))
        return [_check(f"route_agreement[{scale.route} vs "
                       f"{'shifted-line' if line else 'bromwich'}]",
                       "pointwise agreement", worst, 1e-6)]

    if suite == "asymptotics":
        rep_inf = asymptote_infinity(params, scale.q)
        x_far = 50.0
        w_far = scale.eval(x_far)
        if rep_inf.regime == "constant":
            if params.gamma == 0.0:
                raise NotApplicableError(
                    "with gamma = 0 the untempered jumps make W approach 1/psi'(0+) as a power "
                    "law in x, so no fixed x is far enough to check the limit at 1e-3")
            err = abs(w_far - rep_inf.constant) / rep_inf.constant
            return [_check("limit_at_infinity", rep_inf.constant, err, 1e-3)]
        if rep_inf.regime == "linear":
            slope = (scale.eval(x_far) - scale.eval(x_far - 1.0))
            err = abs(slope - rep_inf.constant) / rep_inf.constant
            return [_check("linear_growth_slope", rep_inf.constant, err, 1e-2)]
        lo, hi = x_far - 6.0, x_far
        rate = (math.log(scale.eval(hi)) - math.log(scale.eval(lo))) / (hi - lo)
        err = abs(rate - rep_inf.rate) / max(rep_inf.rate, 1e-12)
        return [_check("exponential_growth_rate", rep_inf.rate, err, 1e-2)]

    x0, a0 = 0.5 * args.a, args.a                                   # the mc suite
    cfg = SimConfig(n_paths=args.paths, dt=args.dt, seed=args.seed)
    # the censoring warning goes into the report: no CLI option sets the horizon
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = simulate_exit(params.parent_triple()[0], x0, a0, cfg, q=args.q)
    target = scale.eval(x0) / scale.eval(a0)
    dev = abs(est.p_hat - target) / max(est.stderr, 1e-12)
    return [{**_check(f"mc_exit[x={x0},a={a0}]", target, dev, 3.0),
             "notes": [str(w.message) for w in caught]}]


def cmd_verify(args) -> int:
    """One suite, or every suite that applies to the model: ``all`` names those it ran and
    why the others do not apply, where a named suite raises ``NotApplicableError``.  A
    report without checks fails."""
    scale, family = _build_model(args)
    checks, ran, left_out = [], [], {}
    for suite in _SUITES if args.suite == "all" else (args.suite,):
        try:
            checks += _suite_checks(suite, args, scale, family)
        except NotApplicableError as exc:
            if args.suite != "all":
                raise
            left_out[suite] = str(exc)
        else:
            ran.append(suite)
    report = {"suite": args.suite, "model": args.model,
              **({"suites": ran, "not_applicable": left_out} if args.suite == "all" else {}),
              "checks": checks, "pass": bool(checks) and all(c["pass"] for c in checks)}
    json.dump(report, sys.stdout, indent=2, allow_nan=False)
    print()
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# apps
# ---------------------------------------------------------------------------

def cmd_apps(args) -> int:
    if not (math.isfinite(args.x) and math.isfinite(args.a or 0.0)):   # JSON has no inf
        raise ParameterError(f"--x and --a must be finite, got {args.x} and {args.a}")
    scale, _ = _build_model(args)
    compute = args.compute
    if compute == "exit":
        if args.a is None:
            raise ParameterError("--a is required for the exit computation")
        p = two_sided_exit(scale, args.x, args.a)
        report = {"compute": "exit", "x": args.x, "a": args.a, "q": args.q, "probability": p}
    elif compute == "ruin":
        val = ruin_probability(scale, scale.psi, args.x)
        report = {"compute": "ruin", "x": args.x, "probability": val}
    elif compute == "workload":
        cdf = mpi1_workload(scale)
        report = {"compute": "workload", "x": args.x, "cdf": cdf(args.x)}
    elif compute == "zq":
        report = {"compute": "zq", "x": args.x, "q": args.q, "Z": z_q(scale, args.x)}
    elif compute == "barrier":
        a_star = dividend_barrier(scale)
        report = {"compute": "barrier", "a_star": a_star,
                  "Wq_prime_at_a_star": scale.eval_deriv(a_star)}
    elif compute == "value":
        a = args.a if args.a is not None else dividend_barrier(scale)
        report = {"compute": "value", "a": a, "x": args.x,
                  "value": dividend_value(scale, a, args.x)}
    else:
        raise ParameterError(f"unknown computation '{compute}'")
    json.dump(report, sys.stdout, allow_nan=False)
    print()
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--model", default="gtsc",
                   help="gtsc or catalog:<family> "
                        f"(families: {', '.join(catalog_families())})")
    p.add_argument("--alpha", default=None, help="stability parameter (fraction or "
                   f"decimal), default {_GTSC_DEFAULTS['alpha']}")
    for name, value in _LADDER_DEFAULTS.items():     # None: set by _resolve_model_flags
        p.add_argument(f"--{name}", type=float, default=None, help=f"default {value:g}")
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--route", default=None, help=f"default {_GTSC_DEFAULTS['route']}",
                   choices=["auto", "rational", "closed", "ig", "bromwich"])
    for name in _CATALOG_FLAGS:
        p.add_argument(f"--{name}", type=float, default=None, help="catalog family parameter")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    ap = argparse.ArgumentParser(prog="scalekit",
                                 description="scale functions of spectrally negative "
                                             "Levy processes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="tabulate W^(q) as CSV")
    _add_model_args(p)
    p.add_argument("--x-min", type=float, default=0.0)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--points", type=int, default=101)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("figures", help="six-case scale-function grid as CSV files")
    p.add_argument("--q", choices=["0", "1"], default="0")
    p.add_argument("--alphas", default="1/4,1/3,1/2,2/3,3/4")
    p.add_argument("--out", required=True)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--points", type=int, default=501)
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("verify", help="verification suites with a JSON report")
    _add_model_args(p)
    p.add_argument("--suite", default="all",
                   choices=[*_SUITES, "all"])
    p.add_argument("--paths", type=int, default=20_000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=20_240_901)
    p.add_argument("--a", type=float, default=2.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("apps", help="applied quantities")
    _add_model_args(p)
    p.add_argument("--compute", required=True,
                   choices=["ruin", "exit", "zq", "barrier", "value", "workload"])
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--case", default=None, help="use a reference case label A-F")
    p.set_defaults(func=cmd_apps)

    return ap


def _resolve_model_flags(args) -> None:
    """Refuse the model flags the model does not read; for --model gtsc, set those not given
    from --case or the defaults (a ladder flag next to --case is a ParameterError, as a case
    sets all five).  An unknown model is left to ``_build_model`` to refuse."""
    reads = {"gtsc": (*_GTSC_DEFAULTS, "case"),
             **{f"catalog:{f}": family_parameters(f) for f in catalog_families()}}
    if getattr(args, "model", None) not in reads:
        return
    unread = [name for name in (*_GTSC_DEFAULTS, "case", *_CATALOG_FLAGS)
              if name not in reads[args.model] and getattr(args, name, None) is not None]
    if unread:
        raise ParameterError(f"--model {args.model} does not read --{', --'.join(unread)}")
    if args.model != "gtsc":
        return
    given = [name for name in _LADDER_DEFAULTS if getattr(args, name) is not None]
    values = dict(_GTSC_DEFAULTS)
    if getattr(args, "case", None):
        case = CASES.get(args.case.upper())
        if case is None:
            raise ParameterError(f"unknown case '{args.case}'")
        if given:
            raise ParameterError(f"--case {args.case} sets c = gamma = 1, kappa, varphi and "
                                 f"zeta; it does not combine with --{', --'.join(given)}")
        values.update(kappa=case.kappa, varphi=case.varphi, zeta=case.zeta)
    for name, value in values.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _resolve_model_flags(args)
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 1
    except ScalekitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
