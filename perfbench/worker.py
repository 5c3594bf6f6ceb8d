"""One benchmark round in a fresh interpreter.

Started by run.py; prints one JSON object on its last stdout line.  The
round imports scalekit, runs the workload's set-up and timed operations,
records ``ru_maxrss`` and, when asked, runs the untimed correctness gates.
A short reference loop is timed at start-up, after set-up and around every
timed operation.
With ``--trace`` the layer functions are wrapped before set-up and spans
are recorded over set-up and the timed operations only.

    python3 perfbench/worker.py --workload tabulate --seed 1 --spawned <monotonic> \
        [--trace] [--gate] [--spans-out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import warnings


def reference_ms() -> float:
    """Time of a fixed pure-Python loop, in ms (about 0.35 ms on a quiet host).

    Taken next to set-up and next to every timed operation, so run.py can
    report times at one reference host speed.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def main() -> int:
    ref_start = reference_ms()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--gate", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    import numpy
    import scipy
    import mpmath
    import scalekit
    from scalekit.errors import ScalekitError

    import spans
    from workloads import WORKLOADS, OpFailed

    warnings.simplefilter("ignore")
    wl = WORKLOADS[args.workload](args.seed)
    rec = spans.Recorder()
    models: dict = {}
    if args.trace:
        spans.install(rec, models)
        rec.begin()
    wl.setup()
    models.update(wl.models())
    ops = list(wl.operations())
    setup_ref_ms = 0.5 * (ref_start + reference_ms())
    t_first = time.monotonic()
    setup_s = t_first - args.spawned
    results, op_ms, op_ref_ms, failures = [], [], [], []
    for _, call in ops:
        ref_before = reference_ms()
        t0 = time.perf_counter()
        try:
            value = call()
        except (ScalekitError, OpFailed) as exc:
            value = None
            failures.append(f"{type(exc).__name__}: {exc}")
        op_ms.append((time.perf_counter() - t0) * 1e3)
        # the faster of the two neighbours: an interrupt that slows one
        # reference loop must not make the operation look fast
        op_ref_ms.append(min(ref_before, reference_ms()))
        results.append(value)
    wall_s = time.monotonic() - t_first
    rec.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = hashlib.sha256()
    for value in results:
        digest.update(b"-" if value is None else wl.fingerprint(value).encode())

    out = {"setup_s": setup_s, "setup_ref_ms": setup_ref_ms, "wall_s": wall_s,
           "op_ms": op_ms, "op_ref_ms": op_ref_ms,
           "is_query": [is_query for is_query, _ in ops],
           "peak_rss_mb": peak_rss_mb, "failures": failures,
           "digest": digest.hexdigest(),
           "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
                        "scalekit": getattr(scalekit, "__version__", None)}}
    if hasattr(wl, "paths"):
        out["paths"] = wl.paths
    if args.gate:
        t0 = time.perf_counter()
        gates, facts = wl.check(results)
        out["gates"] = [(name, bool(ok)) for name, ok in gates]
        out["facts"] = facts
        out["gate_s"] = time.perf_counter() - t0
    if args.trace:
        out["layers"] = rec.metrics()
        out["spans"] = len(rec.name)
        if args.spans_out:
            rec.save(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
