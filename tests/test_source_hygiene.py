"""Source hygiene of the package: no unused import, no orphaned private name, no dead knob,
no write-only field or attribute, no export that only tests read, no unbounded cache, and no
shared code between the gamma-ladder route and its oracle.

A stand-in for a linter: each module under src/scalekit is parsed with ``ast``.
An import counts as used when its name is read in the module or listed in
``__all__``; ``__init__`` is exempt, because its imports are the package's
public surface.  A private top-level name (one leading underscore) counts as
used when any module of the package reads it.  A knob -- a defaulted parameter
or dataclass field -- counts as used when some call in src/, tests/ or
perfbench/ passes it.  A dataclass field counts as read when some code in
src/ or perfbench/ reads an attribute of its name, directly or through
``getattr``, and an attribute a method sets as ``self.<name> = ...`` when some
code in src/, tests/ or perfbench/ does.
An export (a name ``__init__`` imports) counts as read when a module of src/
other than ``__init__``, or of perfbench/, reads it as a name or an attribute
or imports it by ``from ... import``.  A function reaches every module-level
function or class method whose name it reads, other than the bare names it
binds itself, and what those reach in turn.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "scalekit"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}
CALLERS = [ast.parse(path.read_text(), filename=str(path))
           for folder in ("src", "tests", "perfbench")
           for path in sorted((ROOT / folder).rglob("*.py"))]


def _read_names(tree) -> set:
    """Names the module reads, as bare names or as attributes of another object."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _imported(tree) -> list:
    """(bound name, line) of every module-level or nested import except __future__."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _private_definitions(tree) -> list:
    """(name, line) of top-level functions, classes and assignments named _x."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, ast.Tuple) else [target]
                out += [(t.id, node.lineno) for t in elts if isinstance(t, ast.Name)]
    return [(name, line) for name, line in out
            if name.startswith("_") and not name.startswith("__")]


def test_modules_found():
    assert {"__init__.py", "gtsc.py", "scale.py", "special.py"} <= set(TREES)


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_no_unused_import(module):
    tree = TREES[module]
    used = _read_names(tree) | _exported(tree)
    unused = [f"{module}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_no_orphaned_private_name():
    read = set().union(*(_read_names(tree) for tree in TREES.values()))
    imported = {name for tree in TREES.values() for name, _ in _imported(tree)}
    orphans = [f"{module}:{line} {name}" for module, tree in TREES.items()
               for name, line in _private_definitions(tree)
               if name not in read and name not in imported]
    assert not orphans, f"private names nothing references: {orphans}"


def _knobs(tree) -> list:
    """(callable name, knob, position or None, line) of every knob in a module.

    A class's ``__init__`` is called by the class name; positions do not count
    ``self``/``cls``; dataclass fields take the positions of their order.
    """
    methods, out = {}, []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods.update({id(f): node.name for f in node.body if isinstance(f, ast.FunctionDef)})
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            out += [(node.name, f.target.id, i, f.lineno)
                    for i, f in enumerate(fields) if f.value is not None]
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = methods.get(id(node))
        name = owner if owner and node.name == "__init__" else node.name
        params = node.args.posonlyargs + node.args.args
        skip = int(owner is not None and bool(params) and params[0].arg in ("self", "cls"))
        first = len(params) - len(node.args.defaults)
        out += [(name, p.arg, i - skip, node.lineno)
                for i, p in enumerate(params) if i >= first]
        out += [(name, p.arg, None, node.lineno)
                for p, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
    return out


def _calls(trees) -> tuple:
    """What calls pass, by callee name: keywords, most positionals, and 'everything'."""
    keywords, positions, everything = set(), {}, set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords):
                everything.add(name)
            keywords |= {(name, k.arg) for k in node.keywords}
            positions[name] = max(positions.get(name, 0), len(node.args))
    return keywords, positions, everything


def test_no_dead_knob():
    keywords, positions, everything = _calls(CALLERS)
    dead = [f"{module}:{line} {name}({knob})" for module, tree in TREES.items()
            for name, knob, pos, line in _knobs(tree)
            if name not in everything and (name, knob) not in keywords
            and (pos is None or positions.get(name, 0) <= pos)]
    assert not dead, f"knobs no call passes: {dead}"


def _dataclass_fields(tree) -> list:
    """(class, field, line) of every dataclass field in a module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            out += [(node.name, f.target.id, f.lineno)
                    for f in node.body if isinstance(f, ast.AnnAssign)]
    return out


def _attributes_read(trees) -> set:
    """Attribute names the trees read, as ``obj.name`` or as ``getattr(obj, "name", ...)``."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "getattr" and len(node.args) >= 2 \
                    and isinstance(node.args[1], ast.Constant):
                names.add(node.args[1].value)
    return names


# dataclass fields that no code of src/ or perfbench/ reads, each kept for a reason
_FIELDS_FOR_TESTS = {
    "LevyTriple.pi_density": "the jump density of the parent; perfbench's simulate workload "
                             "passes it when it builds a triple",
    "ZeroAsymptote.leading_term": "the leading term of W at 0+, stated for the caller to read",
}


def test_no_write_only_field():
    # a field only tests read is a test's oracle or dead data: the package must read it
    read = _attributes_read(ast.parse(path.read_text()) for folder in ("src", "perfbench")
                            for path in sorted((ROOT / folder).rglob("*.py")))
    unread = {f"{cls}.{name}": f"{module}:{line}" for module, tree in TREES.items()
              for cls, name, line in _dataclass_fields(tree) if name not in read}
    extra = sorted(f"{where} {field}" for field, where in unread.items()
                   if field not in _FIELDS_FOR_TESTS)
    assert not extra, f"dataclass fields src/ and perfbench/ do not read: {extra}"
    assert set(_FIELDS_FOR_TESTS) <= set(unread), "a listed exception is read or gone"


def _self_attributes(tree) -> list:
    """(class, attribute, line) of every ``self.<name> = ...`` in a method of a class."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for func in node.body:
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.args.args:
                me = func.args.args[0].arg
                out += [(node.name, n.attr, n.lineno) for n in ast.walk(func)
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name) and n.value.id == me]
    return out


def test_no_write_only_attribute():
    # the plain-class form of a write-only field: set on the instance, read by nothing
    read = _attributes_read(CALLERS)
    unread = sorted({f"{module}:{line} {cls}.{name}" for module, tree in TREES.items()
                     for cls, name, line in _self_attributes(tree) if name not in read})
    assert not unread, f"instance attributes nothing reads: {unread}"


def _bound_names(func) -> set:
    """Names ``func`` binds itself: parameters, assignment targets, nested definitions."""
    names = set()
    for node in ast.walk(func):
        if node is not func and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                  ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def _package_functions() -> dict:
    """Module-level functions and class methods of the package, by name, with their module."""
    funcs = {}
    for module, tree in TREES.items():
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            for func in body:
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    funcs.setdefault(func.name, []).append((module, func))
    return funcs


def _refs(func) -> set:
    """Names ``func`` reads that may name package functions: bare names it does not bind
    itself, and attributes."""
    bare = {n.id for n in ast.walk(func)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return (bare - _bound_names(func)) | {
        n.attr for n in ast.walk(func)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _reach(start: str) -> set:
    """(module, name) of the package functions that ``start`` reaches through the names it reads.

    Only module-level functions and class methods are followed; a bare name the
    caller binds itself is its own, not a reference to a package function.
    """
    funcs = _package_functions()
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        for module, node in funcs.get(name, []):
            if (module, name) in seen:
                continue
            seen.add((module, name))
            todo += _refs(node)
    return seen


def _test_function(module: str, name: str):
    tree = ast.parse((ROOT / "tests" / module).read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _names(reached: set) -> set:
    return {name for _, name in reached}


def test_gamma_oracle_independent():
    # the dual route checks the interpolated one; sharing F, or the Gauss-Kronrod rule that
    # integrates F, would make them agree by construction
    shared = {"_ladder_table", "fransen_transform", "_gauss_kronrod"}
    assert shared <= _names(_reach("w_gamma_case"))
    assert "w_gamma_case_dual" not in _package_functions(), "the oracle is defined in src/"
    oracle = _test_function("test_gtsc.py", "w_gamma_case_dual")
    reached = _names(set().union(*map(_reach, _refs(oracle))))
    assert "reg_lower_gamma" in reached
    assert not reached & shared, f"w_gamma_case_dual reaches {sorted(reached & shared)}"


def test_hyperbola_oracle_independent():
    # the hyperbola is the reference for the rational route's W and W'; reaching the
    # Mittag-Leffler or partial-fraction code would make them agree by construction
    reached = _reach("_invert_hyperbola")
    assert {"_psi_minus_q", "_zero_count"} <= _names(reached)
    shared = sorted(name for module, name in reached if module in ("special.py", "polyfrac.py"))
    assert not shared, f"_invert_hyperbola reaches {shared}"


def test_zero_limit_and_derivatives_from_own_series():
    # asymptote_zero checks the rational route's W'(0+), which its own expansion at infinity
    # gives; and catalog's W', like the rational route's, lowers the second Mittag-Leffler
    # index instead of asking for a z-derivative
    reached = _names(_reach("w_rational"))
    assert "_inverse_expansion" in reached and "asymptote_zero" not in reached
    imported = {name for name, _ in _imported(TREES["catalog.py"])}
    assert "mittag_leffler" in imported and "mittag_leffler_deriv" not in imported


def test_one_quadrature_rule():
    # the Gauss-Kronrod pair of special integrates the closed form, the reciprocal-gamma
    # transform, the transform identity and Z^(q); a second rule is a second copy of one job
    rules = [f"{module}:{node.lineno}" for module, tree in TREES.items() if module != "special.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "leggauss"
             or isinstance(node, ast.Name) and node.id == "leggauss"]
    assert not rules, f"leggauss outside special.py at {rules}"
    from_bromwich = [node.lineno for node in ast.walk(TREES["fluctuation.py"])
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     and ("bromwich" in (getattr(node, "module", None) or "")
                          or any("bromwich" in a.name for a in node.names))]
    assert not from_bromwich, f"fluctuation imports bromwich at lines {from_bromwich}"


def test_no_vectorize():
    # every route and catalog family evaluates a block of x natively; np.vectorize would
    # hide a per-point Python loop behind an array signature
    found = [f"{module}:{getattr(node, 'lineno', '?')}" for module, tree in TREES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "vectorize"
             or isinstance(node, ast.Name) and node.id == "vectorize"
             or isinstance(node, ast.alias) and node.name == "vectorize"]
    assert not found, f"np.vectorize in {found}"


def _functools_name(node, aliases: dict):
    """The functools attribute that node names (``functools.x`` or a name bound by
    ``from functools import x``), else None."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "functools":
        return node.attr
    return None


def test_every_cache_bounded():
    # caches stay bounded: every lru_cache states a finite integer maxsize, and the unbounded
    # functools.cache only memoizes a function of no arguments, which holds one value
    unbounded = []
    for module, tree in TREES.items():
        aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "functools"
                   for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    kind = _functools_name(dec, aliases)
                    if kind == "lru_cache":
                        unbounded.append(f"{module}:{dec.lineno} lru_cache without a maxsize")
                    elif kind == "cache" and _parameters(node):
                        unbounded.append(f"{module}:{dec.lineno} cache on {node.name}, "
                                         f"which takes {_parameters(node)}")
            elif isinstance(node, ast.Call):
                kind = _functools_name(node.func, aliases)
                size = node.args[0] if node.args else next(
                    (k.value for k in node.keywords if k.arg == "maxsize"), None)
                if kind == "lru_cache" and not (isinstance(size, ast.Constant)
                                                and type(size.value) is int):
                    unbounded.append(f"{module}:{node.lineno} lru_cache without a finite "
                                     "integer maxsize")
                elif kind == "cache":
                    unbounded.append(f"{module}:{node.lineno} cache called, not a decorator")
    assert not unbounded, unbounded


def _parameters(func) -> list:
    args = func.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
            + [a for a in (args.vararg, args.kwarg) if a is not None]]


def test_no_unused_parameter():
    # the function-level form of a knob that does nothing: a parameter its body never reads
    unused = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "<lambda>")
            unused += [f"{module}:{node.lineno} {name}({p})"
                       for p in _parameters(node) if p not in read]
    assert not unused, f"parameters their function never reads: {unused}"


def test_no_restated_exponent():
    # a ScaleFunction carries its exponent as scale.psi; a psi next to it can only disagree.
    # ruin_probability keeps its psi for the callers of that signature and checks it.
    both = [f"{module}:{node.lineno} {node.name}" for module, tree in TREES.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and {"scale", "psi"} <= set(_parameters(node)) and node.name != "ruin_probability"]
    assert not both, f"functions taking both scale and psi: {both}"


def test_package_without_mpmath():
    # every Mittag-Leffler row has one certified path, the block series or the self-checked
    # contour; mpmath is the tests' reference, not a runtime fallback
    found = [f"{module}:{node.lineno}" for module, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "mpmath"
                                                     for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath"]
    assert not found, f"mpmath imported at {found}"


_WITHOUT_MPMATH = """
import sys, tempfile
import numpy as np
sys.modules["mpmath"] = None
from scalekit import catalog, cli, gtsc, polyfrac, special
contour, block = [], special._contour_block
def counted(a, bp, g, z):
    contour.append(z.size)
    return block(a, bp, g, z)
special._contour_block = counted
xs = np.linspace(0.5, 10.0, 40)[1:]
scales = [gtsc.w_rational(cli.CASES["E"].params(0.5), polyfrac.RationalAlpha(1, 2), 1.0),
          gtsc.w0_closed(gtsc.GtscParams(alpha=-1/3, gamma=1.0, c=1.0, kappa=1.0)),
          catalog.build_catalog_entry("stable").scale]
for scale in scales:
    w, dw = scale.eval(xs), scale.eval_deriv(xs)
    print(scale.route, bool(np.isfinite(w).all() and np.isfinite(dw).all() and (w > 0).all()))
print("contour rows", sum(contour))
with tempfile.TemporaryDirectory() as out:
    print("figures", cli.main(["figures", "--q", "1", "--out", out, "--points", "41"]))
print("mpmath", sys.modules["mpmath"])
"""


def test_runs_with_mpmath_blocked():
    # with ``import mpmath`` failing, the rational route (on rows that reach the contour), the
    # q = 0 closed form, the stable family and ``figures --q 1`` all evaluate
    out = subprocess.run([sys.executable, "-c", _WITHOUT_MPMATH], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True).stdout
    lines = out.split("\n")
    assert lines[:3] == ["rational-ML True", "closed-form True", "catalog True"], out
    assert lines[3].startswith("contour rows ") and int(lines[3].split()[-1]) > 0, out
    assert lines[4:6] == ["figures 0", "mpmath None"], out


def test_no_scipy_optimize():
    # Phi(q) and a* come from in-module Brent loops; scipy.optimize costs every process its import
    found = [f"{module}:{node.lineno}" for module, tree in TREES.items() for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name.startswith("scipy.optimize")
                                                     for a in node.names)
             or isinstance(node, ast.ImportFrom) and ((node.module or "").startswith(
                 "scipy.optimize") or node.module == "scipy"
                 and any(a.name == "optimize" for a in node.names))]
    assert not found, f"scipy.optimize imported at {found}"


_SOLVER_MODULES = """
import sys
from scalekit import cli, fluctuation, gtsc, levy, polyfrac, special
def loaded(stage):
    mods = sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "optimize"],
                                                                 ["scipy", "integrate"]))
    print(stage, mods)
loaded("import")
scale = gtsc.w_rational(cli.CASES["E"].params(0.5), polyfrac.RationalAlpha(1, 2), 1.0)
fluctuation.dividend_barrier(scale)
special.fransen_transform(-3.0)
gtsc.w_gamma_case(1.0, 1.0).eval(2.0)
loaded("work")
"""


def test_cli_import_and_solvers_skip_scipy_optimize_and_integrate():
    # the import, Phi(q), the barrier and the reciprocal-gamma transform load neither module;
    # only the shifted-line reference imports quad, itself
    out = subprocess.run([sys.executable, "-c", _SOLVER_MODULES], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, check=True).stdout
    assert out.split("\n")[:2] == ["import []", "work []"], out


_SIMULATE_MODULES = """
import sys, warnings
from scalekit import gtsc, montecarlo as mc
warnings.simplefilter("ignore")
cfg = mc.SimConfig(n_paths=200, dt=1e-2, small_jump_cutoff=0.05, horizon=20.0, seed=1)
exit_triple, _ = gtsc.GtscParams(alpha=0.5, gamma=1.0, c=1.0, varphi=1.0).parent_triple()
ruin_triple, _ = gtsc.GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=1.0).parent_triple()
mc.simulate_exit(exit_triple, 0.5, 1.0, cfg)
mc.simulate_ruin(ruin_triple, 1.0, cfg, a_upper=4.0)
print(sorted(m for m in sys.modules if m.split(".")[:2] in (["scipy", "optimize"],
                                                            ["scipy", "integrate"])))
"""


def test_simulate_skips_scipy_optimize_and_integrate():
    # the location a and the mean E X_1 are closed forms, so building and simulating a triple
    # runs no quadrature
    out = subprocess.run([sys.executable, "-c", _SIMULATE_MODULES], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         check=True).stdout
    assert out == "[]\n", out


def test_quad_only_in_the_oracles():
    # scipy.integrate (QUADPACK's quad) serves the shifted-line reference and nothing else; the
    # Levy-Khintchine and gamma-ladder oracles that also integrate with it live in the tests
    importers = set()
    for module, tree in TREES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                importers |= {(module, func.name) for node in ast.walk(func)
                              if isinstance(node, (ast.Import, ast.ImportFrom))
                              and "integrate" in ast.unparse(node)}
        assert not [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and "integrate" in ast.unparse(node)], f"{module} imports scipy.integrate"
    assert importers == {("bromwich.py", "_line_pass")}, importers


def test_one_warning_the_censoring_one():
    # what a caller can act on is a typed error or a field of the result; the one warning
    # left flags estimates from paths that outlived the horizon (ExitEstimate.n_censored)
    warns = [(module, ast.unparse(node)) for module, tree in TREES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Attribute) and node.func.attr == "warn"
                  or isinstance(node.func, ast.Name) and node.func.id == "warn")]
    assert len(warns) == 1 and warns[0][0] == "montecarlo.py" \
        and "censored at the horizon" in warns[0][1], warns


# exports that no src/ or perfbench/ code reads, each kept for a reason of its own
_EXPORTS_FOR_TESTS = {
    "erfc_c": "tests/test_acceptance.py::TestCriterion8 checks the complex erfc the package ships",
    "CORRECTIONS": "the corrections ledger that README's 'Corrections' table prints",
}


def _from_imported(tree) -> set:
    """Names the module imports by ``from ... import``, under their own names."""
    return {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for a in node.names}


def test_every_export_read_by_the_package():
    # an export that only tests read is a test's oracle or dead code: it belongs in tests/
    readers = [tree for module, tree in TREES.items() if module != "__init__.py"] + [
        ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    read = set().union(*map(_read_names, readers), *map(_from_imported, readers))
    exported = _from_imported(TREES["__init__.py"])
    unread = sorted(exported - read - set(_EXPORTS_FOR_TESTS))
    assert not unread, f"exports only tests read: {unread}"
    assert set(_EXPORTS_FOR_TESTS) <= exported - read, "a listed exception is read or gone"


def test_no_test_only_definitions():
    # the oracles moved to the tests that call them, and the path-variation report that only
    # tests read is deleted; src/ defines none of them again
    gone = {"levy_khintchine_exponent", "w_gamma_case_dual", "classify_variation",
            "VariationReport", "PathVariation", "activity_mass"}
    defined = {node.name for tree in TREES.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    defined |= {name for tree in TREES.values() for _, name, _ in _dataclass_fields(tree)}
    assert not defined & gone, sorted(defined & gone)
