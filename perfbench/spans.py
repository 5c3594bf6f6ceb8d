"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``scalekit`` layer from the
outside: every ``scalekit.*`` namespace that binds one of them (``cli`` and
``gtsc`` import by name) gets the wrapper, so no file under ``src/`` changes.
A span is (name, start, end, parent); spans stay in memory while the workload
runs and are written out once, after it ends.  A span's self time is its
duration minus the durations of its direct children.

Functions that a later version of the package no longer has are skipped, and
their metrics are reported as null.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (layer, public function) pairs that get a span per call
FUNCTIONS = (
    ("special", "mittag_leffler_deriv"),
    ("special", "mittag_leffler"),
    ("special", "fransen_transform"),
    ("special", "erfcx_scaled"),
    ("polyfrac", "build_fq"),
    ("polyfrac", "roots_with_multiplicity"),
    ("polyfrac", "partial_fractions"),
    ("gtsc", "w_rational"),
    ("gtsc", "w0_closed"),
    ("gtsc", "w_gamma_case"),
    ("bromwich", "invert"),
    ("bromwich", "laplace_transform_numeric"),
    ("bromwich", "verify_laplace_identity"),
    ("levy", "big_phi"),
    ("levy", "build_parent"),
    ("fluctuation", "z_q"),
    ("fluctuation", "dividend_barrier"),
    ("fluctuation", "ruin_probability"),
    ("catalog", "build_catalog_entry"),
)
# ScaleFunction.route values; eval and eval_deriv spans are keyed by them
ROUTES = ("rational-ML", "ig", "closed-form", "gamma-case", "bromwich", "catalog")
# Monte Carlo models of the simulate workload; simulate_exit spans are keyed by them
MODELS = ("brownian", "gtsc_a", "cramer_lundberg")
# CLI subcommands the verify workload runs; cli.main spans are keyed by them
SUBCOMMANDS = ("eval", "verify")


class Recorder:
    """In-memory span store; records only while ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.points: Counter = Counter()
        self.paths: Counter = Counter()
        self.censored: Counter = Counter()
        self.err_max: dict[str, float] = {}
        self.missing: set[str] = set()
        self._array_owner: list[tuple] = []
        self._seen: dict[int, tuple] = {}
        self.scalar_evals = 0
        self.repeat_evals = 0
        self._fransen = None
        self._fransen_info = (None, None)

    def span(self, name: str, fn, args, kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def note_x(self, scale, x) -> None:
        entry = self._seen.get(id(scale))
        if entry is None:
            # keep the instance alive so its id is not reused
            entry = self._seen[id(scale)] = (scale, set())
        x = float(x)
        self.scalar_evals += 1
        if x in entry[1]:
            self.repeat_evals += 1
        else:
            entry[1].add(x)

    # -- switching -----------------------------------------------------------
    def begin(self) -> None:
        if self._fransen is not None:
            self._fransen_info = (self._fransen.cache_info(), None)
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False
        if self._fransen is not None:
            self._fransen_info = (self._fransen_info[0], self._fransen.cache_info())

    # -- results -------------------------------------------------------------
    def self_times(self):
        """(calls, self seconds, inclusive seconds) per span name."""
        n = len(self.names)
        if not len(self.name):
            return np.zeros(n), np.zeros(n), np.zeros(n)
        name = np.asarray(self.name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        own = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        calls = np.bincount(name, minlength=n).astype(float)
        self_s = np.bincount(name, weights=own, minlength=n)
        incl_s = np.bincount(name, weights=dur, minlength=n)
        return calls, self_s, incl_s

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded spans; run.py adds overhead and dev_sigma."""
        calls, self_s, incl_s = self.self_times()
        idx = self._ids

        def stat(name, arr, scale=1.0):
            return float(arr[idx[name]]) * scale if name in idx else 0.0

        out = {}
        for layer, fn in FUNCTIONS:
            key = f"{layer}.{fn}"
            out[f"{key}.calls"] = stat(key, calls)
            out[f"{key}.self_ms"] = stat(key, self_s, 1e3)
        if self._fransen is None:      # no lru_cache to ask
            out["special.fransen_transform.cache_hit_ratio"] = None
        else:
            before, after = self._fransen_info
            hits = after.hits - before.hits
            misses = after.misses - before.misses
            out["special.fransen_transform.cache_hit_ratio"] = \
                hits / (hits + misses) if hits + misses else 0.0
        out["bromwich.invert.err_est_max"] = self.err_max.get("bromwich.invert", 0.0)
        for method in ("eval", "eval_deriv"):
            for route in ROUTES:
                key = f"gtsc.{method}.{route}"
                out[f"{key}.calls"] = stat(key, calls)
                out[f"{key}.self_ms"] = stat(key, self_s, 1e3)
                out[f"{key}.points"] = float(self.points[key])
        out["gtsc.eval.repeat_share"] = \
            self.repeat_evals / self.scalar_evals if self.scalar_evals else 0.0
        for model in MODELS:
            key = f"montecarlo.simulate_exit.{model}"
            out[f"{key}.self_ms"] = stat(key, self_s, 1e3)
            busy = stat(key, incl_s)
            out[f"{key}.paths_per_s"] = self.paths[key] / busy if busy else 0.0
            out[f"{key}.n_censored"] = float(self.censored[key])
            out[f"{key}.dev_sigma"] = 0.0     # set from the gate round when the model ran
        for sub in SUBCOMMANDS:
            key = f"cli.main.{sub}"
            out[f"{key}.calls"] = stat(key, calls)
            out[f"{key}.self_ms"] = stat(key, self_s, 1e3)
        for key in out:
            if any(key.startswith(prefix + ".") for prefix in self.missing):
                out[key] = None
        return out

    def save(self, path) -> None:
        """Write the raw spans (name index, parent index, start, end) as .npz."""
        np.savez(path, names=np.array(self.names, dtype=object).astype(str),
                 name=np.asarray(self.name, dtype=np.int64),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 start=np.asarray(self.start), end=np.asarray(self.end))


def _rebind(orig, wrapper) -> None:
    """Replace ``orig`` by ``wrapper`` in every scalekit namespace that binds it."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "scalekit" or modname.startswith("scalekit.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def _wrap(rec: Recorder, fn, key, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        name = key(args, kwargs)
        result = rec.span(name, fn, args, kwargs)
        if after is not None:
            after(name, args, kwargs, result)
        return result
    return wrapper


def install(rec: Recorder, models: dict[int, str]) -> None:
    """Wrap the layer functions; ``models`` maps id(LevyTriple) to a model name."""
    import importlib

    def lookup(module: str, attr: str, key: str):
        try:
            found = getattr(importlib.import_module(module), attr, None)
        except ModuleNotFoundError:
            found = None
        if found is None:
            rec.missing.add(key)
        return found

    for layer, fn in FUNCTIONS:
        name = f"{layer}.{fn}"
        orig = lookup(f"scalekit.{layer}", fn, name)
        if orig is None:
            continue
        after = None
        if fn == "fransen_transform" and hasattr(orig, "cache_info"):
            rec._fransen = orig
        if fn == "invert":
            def after(name, args, kwargs, result):
                err = abs(float(result[1]))
                if err > rec.err_max.get(name, 0.0):
                    rec.err_max[name] = err
        _rebind(orig, _wrap(rec, orig, lambda a, k, name=name: name, after))

    orig = lookup("scalekit.montecarlo", "simulate_exit", "montecarlo.simulate_exit")

    def model_key(args, kwargs):
        triple = args[0] if args else kwargs["triple"]
        return f"montecarlo.simulate_exit.{models.get(id(triple), 'other')}"

    def mc_after(name, args, kwargs, result):
        cfg = args[3] if len(args) > 3 else kwargs["cfg"]
        rec.paths[name] += cfg.n_paths
        rec.censored[name] += result.n_censored

    if orig is not None:
        _rebind(orig, _wrap(rec, orig, model_key, mc_after))

    orig = lookup("scalekit.cli", "main", "cli.main")

    def cli_key(args, kwargs):
        argv = args[0] if args else kwargs.get("argv")
        return f"cli.main.{argv[0] if argv else 'none'}"

    if orig is not None:
        _rebind(orig, _wrap(rec, orig, cli_key))

    cls = getattr(importlib.import_module("scalekit"), "ScaleFunction", None)
    if cls is None:
        rec.missing.update(("gtsc.eval", "gtsc.eval_deriv"))
    else:
        _wrap_methods(rec, cls)


def _wrap_methods(rec: Recorder, cls) -> None:
    """Spans for ScaleFunction.eval / eval_deriv, keyed by route.

    An array call is one span; the per-point scalar calls it makes on the same
    instance are counted as points of that span, not as spans of their own.
    """
    orig_eval, orig_deriv = cls.eval, cls.eval_deriv

    def make(orig, method, track_repeats):
        def wrapper(self, x):
            if not rec.enabled:
                return orig(self, x)
            name = f"gtsc.{method}.{self.route}"
            owner = (method, id(self))
            if np.ndim(x) > 0:
                rec.points[name] += int(np.size(x))
                rec._array_owner.append(owner)
                try:
                    return rec.span(name, orig, (self, x), {})
                finally:
                    rec._array_owner.pop()
            if track_repeats:
                rec.note_x(self, x)
            if rec._array_owner and rec._array_owner[-1] == owner:
                return orig(self, x)
            rec.points[name] += 1
            return rec.span(name, orig, (self, x), {})
        return functools.wraps(orig)(wrapper)

    wrapped_eval = make(orig_eval, "eval", True)
    cls.eval = wrapped_eval
    cls.__call__ = wrapped_eval
    cls.eval_deriv = make(orig_deriv, "eval_deriv", False)
