"""The three benchmark workloads.

Each workload makes its inputs from the seed alone, then offers

* ``setup()``      -- the work a user does before the first timed call;
* ``operations()`` -- the timed calls, as (is_query, callable) pairs;
* ``check()``      -- untimed correctness gates on the outputs, using the
  tolerances the package's own verification uses.

A "query" is the unit whose latency the benchmark prints: an array
evaluation in ``tabulate``, one CLI command in ``verify``, one estimator call
in ``simulate``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from fractions import Fraction

import numpy as np


class OpFailed(Exception):
    """A timed operation that finished but reported failure (non-zero exit)."""


# ---------------------------------------------------------------------------
# tabulate
# ---------------------------------------------------------------------------
# Why: a library user tabulating W and W' on the 60-config reference grid
# (cases A-F x alpha in {1/4,1/3,1/2,2/3,3/4} x q in {0,1}) and computing
# applied quantities.  The special ML kernels, gtsc evaluation and fluctuation
# do almost all the work, on points that are never repeated; bromwich and
# montecarlo are idle (bromwich runs only in the untimed gate).  Each config
# gets a near-zero window (0, 0.5], the small-x series branch, and a body
# window (0.5, 10], the partial-fraction/ML branch, so array-native
# evaluation shows its gain here.  Applied calls are trimmed so that the
# array queries stay the larger share of wall time.

TAB_ALPHAS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
              Fraction(3, 4))
TAB_CASES = "ABCDEF"
TAB_POINTS = 12            # points per window
TAB_ZQ_ALPHA = Fraction(1, 2)


class Tabulate:
    name = "tabulate"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.configs = [(label, alpha, q) for label in TAB_CASES
                        for alpha in TAB_ALPHAS for q in (0.0, 1.0)]
        self.windows = {}
        self.gate_x = {}
        for cfg in self.configs:
            near = np.sort(0.5 * (1.0 - rng.random(TAB_POINTS)))
            body = np.sort(0.5 + 9.5 * (1.0 - rng.random(TAB_POINTS)))
            self.windows[cfg] = (near, body)
            self.gate_x[cfg] = (float(near[-1]), float(body[rng.integers(TAB_POINTS)]))
        self.barrier_cfgs = [c for c in self.configs if c[2] == 1.0]
        self.zq_x = {c: float(rng.uniform(1.0, 4.0)) for c in self.configs
                     if c[2] == 1.0 and c[1] == TAB_ZQ_ALPHA}
        self.ruin_x = {c: float(rng.uniform(0.5, 5.0)) for c in self.configs
                       if c[2] == 0.0 and c[0] in "BE"}

    def models(self) -> dict:
        return {}

    def setup(self) -> None:
        from scalekit import cli, gtsc, polyfrac

        self.scales = {}
        for label, alpha, q in self.configs:
            params = cli.CASES[label].params(float(alpha))
            self.scales[(label, alpha, q)] = gtsc.w_rational(
                params, polyfrac.RationalAlpha(alpha.numerator, alpha.denominator), q)

    def operations(self):
        from scalekit import fluctuation

        for cfg in self.configs:
            scale = self.scales[cfg]
            for xs in self.windows[cfg]:
                yield True, (lambda s=scale, xs=xs: (s.eval(xs), s.eval_deriv(xs)))
        for cfg in self.barrier_cfgs:
            yield False, (lambda s=self.scales[cfg]: fluctuation.dividend_barrier(s))
        for cfg, x in self.zq_x.items():
            yield False, (lambda s=self.scales[cfg], x=x: fluctuation.z_q(s, x))
        for cfg, x in self.ruin_x.items():
            yield False, (lambda s=self.scales[cfg], x=x:
                          fluctuation.ruin_probability(s, s.psi, x))

    def check(self, results) -> tuple[list, dict]:
        from scalekit import bromwich

        gates = []
        it = iter(results)
        for cfg in self.configs:
            scale = self.scales[cfg]
            label = "%s,alpha=%s,q=%g" % cfg
            outs = [next(it), next(it)]
            for (xs, out), x in zip(zip(self.windows[cfg], outs), self.gate_x[cfg]):
                if out is None:
                    continue
                w, wp = out
                gates.append((f"W' finite and > 0 [{label}]",
                              bool(np.all(np.isfinite(w)) and np.all(np.isfinite(wp))
                                   and np.all(wp > 0))))
                got = float(w[int(np.searchsorted(xs, x))])
                ref = bromwich.invert(scale.psi, scale.q, x)[0]
                gates.append((f"W vs bromwich at x={x:.6g} [{label}]",
                              abs(got - ref) <= 1e-6 * abs(ref)))
        for cfg in self.barrier_cfgs:
            a_star = next(it)
            if a_star is not None:
                gates.append((f"a* is a local minimum of W' [{'%s,alpha=%s' % cfg[:2]}]",
                               _is_local_min(self.scales[cfg].eval_deriv, a_star)))
        for cfg in self.zq_x:
            z = next(it)
            if z is not None:
                gates.append((f"Z^(q) finite and > 1 [{cfg[0]}]",
                              math.isfinite(z) and z > 1.0))
        for cfg in self.ruin_x:
            p = next(it)
            if p is not None:
                gates.append((f"ruin probability in (0, 1) [{cfg[0]},alpha={cfg[1]}]",
                              0.0 < p < 1.0))
        return gates, {}

    @staticmethod
    def fingerprint(value) -> str:
        if isinstance(value, tuple):
            return np.asarray(value[0]).tobytes().hex() + np.asarray(value[1]).tobytes().hex()
        return repr(value)


def _is_local_min(deriv, a: float) -> bool:
    h = 1e-3 * (1.0 + a)
    d0 = deriv(max(a, 1e-9))
    slack = 1e-12 * abs(d0)
    right = deriv(a + h) >= d0 - slack
    left = a <= h or deriv(a - h) >= d0 - slack
    return bool(math.isfinite(d0) and right and left)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------
# Why: a scripted session of ``scalekit.cli.main(argv)`` calls, in-process.
# This is where bromwich.invert, w0_closed, w_gamma_case/fransen_transform and
# the forward-quadrature identity run, and where the identity check asks the
# same x many times, so the memo and lru_cache layers matter here and not in
# tabulate.  The seed draws gamma and c in [0.5, 2] for every GTSC config.
#
# Known failure, left out on purpose: ``verify --suite mc`` at q > 0 compares
# the undiscounted simulate_exit estimate with the q-discounted ratio
# W^(q)(x)/W^(q)(a) and fails (about 74 sigma on the README example).  The
# Monte Carlo layer is measured in ``simulate`` against undiscounted (q = 0)
# targets, which is what simulate_exit estimates.  Also left out:
# ``verify --suite laplace --alpha 0`` (about 41 s for one command).

# (alpha, case, q, suites): every case, q in {0,1}, alpha = 1/2 on the IG route;
# the laplace suite runs on three configs to keep one round near 7 s
VERIFY_GTSC = (
    ("1/4", "A", 0, ("routes", "laplace", "asymptotics")),
    ("1/3", "B", 1, ("routes", "asymptotics")),
    ("1/2", "A", 1, ("routes", "laplace", "asymptotics")),
    ("2/3", "C", 0, ("routes", "asymptotics")),
    ("3/4", "D", 1, ("routes", "asymptotics")),
    ("-1/3", "E", 0, ("routes", "laplace", "asymptotics")),
    ("-2/3", "F", 1, ("routes", "asymptotics")),
)
CASE_FLAGS = {"A": [], "B": ["--kappa", "1"], "C": ["--varphi", "1"],
              "D": ["--zeta", "1"], "E": ["--kappa", "1", "--zeta", "1"],
              "F": ["--varphi", "1", "--zeta", "1"]}
VERIFY_IRRATIONAL = (1.0 / math.sqrt(2.0), 1.0 / math.pi)
VERIFY_CATALOG = ("brownian", "cramer_lundberg", "stable", "fixed_jumps")
EVAL_GRID = ["--x-min", "0.25", "--x-max", "5", "--points", "3"]


class Verify:
    name = "verify"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)

        def shape():
            return ["--gamma", repr(float(rng.uniform(0.5, 2.0))),
                    "--c", repr(float(rng.uniform(0.5, 2.0)))]

        cmds = []
        for alpha, case, q, suites in VERIFY_GTSC:
            common = [f"--alpha={alpha}", *shape(), "--q", str(q), *CASE_FLAGS[case]]
            for suite in suites:
                cmds.append(["verify", "--suite", suite, *common])
        self.pairs = []
        for alpha in VERIFY_IRRATIONAL:
            common = ["--alpha", repr(alpha), *shape(), *EVAL_GRID]
            self.pairs.append((len(cmds), len(cmds) + 1))
            cmds.append(["eval", "--route", "closed", *common])
            cmds.append(["eval", "--route", "bromwich", *common])
        common = ["--alpha", "0", *shape()]
        cmds.append(["verify", "--suite", "routes", *common])
        self.gamma_eval = len(cmds)
        cmds.append(["eval", "--route", "closed", *common, *EVAL_GRID])
        for family in VERIFY_CATALOG:
            cmds.append(["verify", "--suite", "laplace", "--model", f"catalog:{family}"])
        self.commands = cmds

    def models(self) -> dict:
        return {}

    def setup(self) -> None:
        pass

    def operations(self):
        from scalekit import cli

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            if rc != 0:
                raise OpFailed(f"exit {rc}: {' '.join(argv)}: {err.getvalue().strip()[-300:]}")
            return out.getvalue()

        for argv in self.commands:
            yield True, (lambda argv=argv: run(argv))

    def check(self, results) -> tuple[list, dict]:
        gates = []
        for argv, text in zip(self.commands, results):
            if text is not None and argv[0] == "verify":
                gates.append((f"JSON pass: {' '.join(argv)}", bool(json.loads(text)["pass"])))
        for i, j in self.pairs:
            if results[i] is None or results[j] is None:
                continue
            closed, brom = _csv_w(results[i]), _csv_w(results[j])
            ok = closed.shape == brom.shape and bool(
                np.all(np.abs(closed - brom) <= 1e-6 * np.abs(brom)))
            gates.append((f"closed vs bromwich CSV: {' '.join(self.commands[i][3:5])}", ok))
        if results[self.gamma_eval] is not None:
            w = _csv_w(results[self.gamma_eval])
            gates.append(("alpha=0 eval: W finite and increasing",
                          bool(np.all(np.isfinite(w)) and np.all(np.diff(w) > 0))))
        return gates, {}

    @staticmethod
    def fingerprint(value) -> str:
        return value


def _csv_w(text: str) -> np.ndarray:
    return np.array([float(row["W"]) for row in csv.DictReader(io.StringIO(text))])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------
# Why: only montecarlo (plus levy set-up) works here; the special, polyfrac and
# bromwich layers are idle, so block stepping of the path engines shows its
# effect here and nowhere else.  One query is one estimator call; each
# replication makes one call per model, with seeds derived from the workload seed:
#   brownian        -- Brownian motion with drift, grid engine; closed-form target;
#   gtsc_a          -- GTSC case A, alpha = 1/2 parent, grid engine with
#                      tempered jumps; target W(1)/W(2) from w_rational (untimed);
#   cramer_lundberg -- ruin on the event-driven engine; target (1/2) e^{-1/2}.
# The gate is |p_hat - target| <= 4.5 stderr per estimate.  With 6 estimates
# that is a false alarm in under 1 of 10 000 runs for an unbiased simulator.
# The signed pooled deviation (dev_sigma) is recorded either way: the grid
# engine's dt and cutoff bias on gtsc_a (1-2 sigma high at 40 k paths,
# ROADMAP item 2) shows there, not in the gate.

SIM_REPLICATIONS = 2
SIM_GATE_SIGMAS = 4.5
# A grid-engine call costs a per-step overhead until its slowest path exits
# plus work per path-step.  Few large calls keep the seed-driven slowest-path
# part small: host-normalized cost varied 10% across seeds at 4000 gtsc_a
# paths per call and 3% at 12 000.
SIM_PATHS = {"brownian": 30_000, "gtsc_a": 12_000, "cramer_lundberg": 300_000}
BM_MU = 0.5


class Simulate:
    name = "simulate"
    paths = SIM_REPLICATIONS * sum(SIM_PATHS.values())

    def __init__(self, seed: int):
        seeds = np.random.SeedSequence(seed).generate_state(3 * SIM_REPLICATIONS)
        self.seeds = [int(s) for s in seeds]

    def setup(self) -> None:
        from scalekit import gtsc, levy

        zero = lambda x: 0.0   # noqa: E731
        self.triples = {
            "brownian": levy.LevyTriple(a=-BM_MU, sigma=1.0, pi_tail=zero, pi_density=zero),
            "gtsc_a": gtsc.GtscParams(alpha=0.5, gamma=1.0, c=1.0).parent_triple()[0],
            "cramer_lundberg": _cl_triple(ccoef=2.0, lam=1.0, mu=1.0),
        }

    def models(self) -> dict:
        return {id(t): name for name, t in self.triples.items()}

    def _estimate(self, model: str, seed: int):
        from scalekit import montecarlo as mc

        triple, n = self.triples[model], SIM_PATHS[model]
        if model == "brownian":
            return mc.simulate_exit(triple, 0.5, 1.0,
                                    mc.SimConfig(n_paths=n, dt=1e-3, horizon=50.0, seed=seed))
        if model == "gtsc_a":
            return mc.simulate_exit(triple, 1.0, 2.0,
                                    mc.SimConfig(n_paths=n, dt=5e-4, small_jump_cutoff=0.02,
                                                 horizon=400.0, seed=seed))
        return mc.simulate_ruin(triple, 1.0, mc.SimConfig(n_paths=n, horizon=3000.0, seed=seed),
                                a_upper=17.0)

    def _plan(self):
        """(model, seed) per estimate: replications in turn, the three models in each."""
        return [(model, self.seeds[3 * r + i]) for r in range(SIM_REPLICATIONS)
                for i, model in enumerate(SIM_PATHS)]

    def operations(self):
        for model, seed in self._plan():
            yield True, (lambda model=model, seed=seed: self._estimate(model, seed))

    def check(self, results) -> tuple[list, dict]:
        from scalekit import gtsc, polyfrac

        w = gtsc.w_rational(gtsc.GtscParams(alpha=0.5, gamma=1.0, c=1.0),
                            polyfrac.RationalAlpha(1, 2), 0.0)
        targets = {
            "brownian": (1.0 - math.exp(-2.0 * BM_MU * 0.5)) / (1.0 - math.exp(-2.0 * BM_MU)),
            "gtsc_a": w.eval(1.0) / w.eval(2.0),
            "cramer_lundberg": 0.5 * math.exp(-0.5),
        }
        gates = []
        pooled = {m: [0.0, 0.0] for m in targets}      # sum n_eff * p, sum n_eff
        for (model, _), est in zip(self._plan(), results):
            if est is None:
                continue
            t = targets[model]
            ok = math.isfinite(est.p_hat) and est.stderr > 0 \
                and abs(est.p_hat - t) <= SIM_GATE_SIGMAS * est.stderr
            gates.append((f"{model}: |p_hat - target| <= {SIM_GATE_SIGMAS} stderr", ok))
            if est.stderr > 0:
                n_eff = est.p_hat * (1.0 - est.p_hat) / est.stderr ** 2
                pooled[model][0] += n_eff * est.p_hat
                pooled[model][1] += n_eff
        facts = {}
        for model, (sp, n) in pooled.items():
            if n > 0:
                p = sp / n
                facts[f"montecarlo.simulate_exit.{model}.dev_sigma"] = \
                    (p - targets[model]) / math.sqrt(p * (1.0 - p) / n)
        return gates, facts

    @staticmethod
    def fingerprint(value) -> str:
        return repr((value.p_hat, value.stderr, value.n_censored))


def _cl_triple(ccoef: float, lam: float, mu: float):
    """Cramer-Lundberg with exponential claims; the location a sets E X_1 = ccoef - lam/mu."""
    from scalekit import levy

    mean = ccoef - lam / mu
    a = -(mean + lam * math.exp(-mu) * (1.0 + 1.0 / mu))
    return levy.LevyTriple(a=a, sigma=0.0,
                           pi_tail=lambda x: lam * math.exp(-mu * x),
                           pi_density=lambda x: lam * mu * math.exp(-mu * x),
                           jump_components=(("exponential", lam, mu),))


WORKLOADS = {w.name: w for w in (Tabulate, Verify, Simulate)}
