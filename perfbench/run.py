"""petrov3 benchmark: one process, one closed-loop client, no threads.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 36 --trace 0

Run from the repository root.  The package is imported from ./src.  Set-up
(import plus input generation for one pass) is repeated SETUP_REPS times and
reported as a median.  Then passes run back to back, each over freshly seeded
inputs, until the next pass would overrun --seconds (at least one pass).  Only
the program calls are timed; input generation and output checks are not.
Times are reported in reference seconds (speed.py): wall and CPU time rescaled
by the machine speed sampled while they elapsed.  The wall times are printed
alongside.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each item untraced and
then replays the command's public-call sequence with a span around every call,
checks that the replay's output equals the untraced output byte for byte and
that the expression-size counts repeat, writes the spans to
.perfbench-out/trace-<workload>-seed<seed>.json and prints the per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

from spans import Tracer
from speed import SpeedMeter
from workloads import KINDS, WORKLOADS, add_counts, make_items, same_output

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
MODULES = ("exactfield", "tensorcalc", "duality", "builder", "pdesolve", "verify", "cli")
SETUP_REPS = 11

SPANS = ("cli.verify", "cli.classify", "cli.solve", "cli.json",
         "builder.assemble_metric", "builder.derived_scalars",
         "tensorcalc.metric_inverse", "tensorcalc.christoffel", "tensorcalc.riemann",
         "tensorcalc.weyl", "tensorcalc.numeric_ricci_scalar",
         "duality.curvature_on_forms", "duality.inverse_gram_pairs", "duality.hodge_star",
         "duality.sd_projectors", "duality.mat_mul", "duality.weyl_endo_at_point",
         "duality.petrov_classify",
         "verify.nonwalker", "verify.einstein", "verify.selfdual_type3",
         "verify.curvature_identity", "verify.curvature_homogeneity", "verify.witness",
         "pdesolve.characteristics_solve", "pdesolve.max_residual", "pdesolve.gauge_fix")
COUNTS = {"pdesolve.fan_nodes": "count",
          "exactfield.metric_terms": "count", "exactfield.riemann_terms": "count",
          "exactfield.riemann_max_degree": "degree", "exactfield.riemann_coeff_bits": "bits",
          "exactfield.riemann_den_terms_max": "count", "exactfield.w2_terms": "count"}
END_TO_END = {"setup_s": "s", "pass_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB", "passed_frac": "fraction"}
PER_LAYER = {**{f"{name}_s": "s" for name in SPANS}, **COUNTS, "trace.overhead_s": "s"}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import petrov3 afresh from ./src; the namespace holds its modules."""
    src = ROOT / "src"
    if not (src / "petrov3" / "__init__.py").is_file():
        raise ProgramMissing(f"no petrov3 package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n.split(".")[0] == "petrov3"]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"petrov3.{m}") for m in MODULES})


def _fail(item, what):
    print(f"item {item.id} ({item.kind}): {what}", file=sys.stderr)


def run_pass(P, items, meter: SpeedMeter, tracer: Tracer | None) -> dict:
    """Run one pass; with a tracer also replay each item and compare outputs."""
    rec = {"wall": 0.0, "ref": 0.0, "ref_cpu": 0.0, "attempted": 0, "failed": 0, "traced_ref": 0.0,
           "mismatched": 0, "counts": {}, "item_counts": {}, "spans": {}}
    mark = tracer.mark() if tracer else 0
    for item in items:
        kind = KINDS[item.kind]
        rec["attempted"] += 1
        try:
            start, end, cpu, out = kind.call(P, item)
            wall, ref = meter.seconds(start, end)
            rec["wall"] += wall
            rec["ref"] += ref
            rec["ref_cpu"] += meter.cpu_seconds(start, end, cpu)
            ok = kind.check(item, out)
        except Exception:
            _fail(item, "raised\n" + traceback.format_exc())
            rec["failed"] += 1
            continue
        if not ok:
            _fail(item, "output check failed")
            rec["failed"] += 1
        if tracer is None:
            continue
        tracer.item = item.id
        try:
            t0 = time.perf_counter()
            traced, counts = kind.replay(P, item, tracer)
            traced_ref = meter.seconds(t0, time.perf_counter())[1]
        except Exception:
            _fail(item, "traced replay raised\n" + traceback.format_exc())
            rec["mismatched"] += 1
            continue
        rec["traced_ref"] += traced_ref
        if not same_output(out, traced):
            _fail(item, "traced replay output differs from the untraced output")
            rec["mismatched"] += 1
        rec["item_counts"][item.id] = (traced_ref, counts)
        add_counts(rec["counts"], counts)
    if tracer:
        rec["spans"] = tracer.totals(meter.seconds, mark)
    return rec


def counts_repeat(P, args, work, pass0) -> tuple[str, bool]:
    """Regenerate pass 0 from the seed, replay its cheapest counted item, compare counts."""
    counted = {i: v for i, v in pass0["item_counts"].items() if v[1]}
    if not counted:
        return "none", True
    item_id = min(counted, key=lambda i: counted[i][0])
    (work / "repeat").mkdir()
    items = make_items(P, args.workload, args.seed, 0, work / "repeat", set(), args.tiny)
    item = next(i for i in items if i.id == item_id)
    try:
        _, counts = KINDS[item.kind].replay(P, item, Tracer())
    except Exception:
        _fail(item, "repeated replay raised\n" + traceback.format_exc())
        return item_id, False
    return item_id, counts == counted[item_id][1]


def measure(args, work) -> tuple[dict, bool, int, int]:
    with SpeedMeter() as meter:
        return _measure(args, work, meter)


def _measure(args, work, meter) -> tuple[dict, bool, int, int]:
    setup, pregenerated, seen = [], [], set()
    for k in range(SETUP_REPS):
        t0 = time.perf_counter()
        P = load_program()
        pregenerated.append(make_items(P, args.workload, args.seed, k, work, seen, args.tiny))
        setup.append(meter.seconds(t0, time.perf_counter()))

    tracer = Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        k = len(passes)
        t0 = time.perf_counter()
        items = (pregenerated[k] if k < len(pregenerated)
                 else make_items(P, args.workload, args.seed, k, work, seen, args.tiny))
        passes.append(run_pass(P, items, meter, tracer))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] + p["mismatched"] for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} items, "
          f"{failed} failed; {len(meter.rates)} speed samples")
    print("  pass wall s:      " + " ".join(f"{p['wall']:.3f}" for p in passes))
    print("  pass reference s: " + " ".join(f"{p['ref']:.3f}" for p in passes))
    print("  pass reference CPU s: " + " ".join(f"{p['ref_cpu']:.3f}" for p in passes))
    print(f"  setup wall s, median: {statistics.median(w for w, _ in setup):.4f}")
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(r for _, r in setup),
            "pass_s": statistics.median(p["ref"] for p in passes),
            "pass_cpu_s": statistics.median(p["ref_cpu"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passed_frac": (attempted - failed) / attempted,
        }
        return {n: {"value": v, "unit": END_TO_END[n]} for n, v in metrics.items()}, \
            failed == 0, attempted, failed

    mismatched = sum(p["mismatched"] for p in passes)
    item_id, repeat_ok = counts_repeat(P, args, work, passes[0])
    print(f"check: traced replay output equals untraced output on "
          f"{attempted - mismatched}/{attempted} items")
    print(f"check: exactfield counts repeat on regenerated item {item_id}: "
          f"{'yes' if repeat_ok else 'NO'}")
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path, meter.seconds)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    metrics = {f"{name}_s": statistics.median(p["spans"].get(name, 0.0) for p in passes)
               for name in SPANS}
    metrics.update({name: passes[0]["counts"].get(name, 0) for name in COUNTS})
    metrics["trace.overhead_s"] = statistics.median(p["traced_ref"] - p["ref"] for p in passes)
    return {n: {"value": v, "unit": PER_LAYER[n]} for n, v in metrics.items()}, \
        failed == 0 and repeat_ok, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = ap.parse_args(argv)

    work = OUT / f"work-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        metrics, correct, attempted, failed = measure(args, work)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
