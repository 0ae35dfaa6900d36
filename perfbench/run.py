"""alorat benchmark: one workload, one closed-loop caller, one JSON result.

    python3 perfbench/run.py --workload {fit,score,cli} --seed N --seconds S --trace {0,1}

Run from the repository root; it imports `alorat` from `src/`. With
``--trace 0`` it times operations untraced and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced operations
and reports the per-layer metrics of `layers.py` plus the tracing
overhead. Human-readable lines come first; the last line of standard
output is the JSON result. ``--size tiny`` shrinks every input for the
smoke test.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# The BLAS thread count is fixed before numpy loads. One thread keeps the
# figures steady and is what the small batched SVDs and matmuls use anyway.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("fit", "score", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def import_alorat():
    """Import alorat from this checkout's src/ and nowhere else."""
    if not (SRC / "alorat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no alorat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import alorat

    if Path(alorat.__file__).resolve().parent != SRC / "alorat":
        raise SystemExit(f"perfbench: imported alorat from {alorat.__file__}, not {SRC}")


def run_context(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "alorat").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "loop": "closed, 1 caller, 1 operation at a time",
        "commit": commit,
        "src_alorat_lines": src_lines,
    }


def tail(values):
    """(label, value) of the highest percentile with at least ten samples
    above it, or None when the sample is too small to support one."""
    n = len(values)
    if n <= 10:
        return None
    return f"p{100 * (n - 10) / n:.0f}", sorted(values)[n - 11]


def describe(values) -> str:
    t = tail(values)
    extra = f", {t[0]} {t[1]:.4f}" if t else ", no percentile has 10 samples beyond it"
    return f"median of n={len(values)}{extra}"


def run_ops(wl, state, refs, seconds, trace, tracer):
    """Closed loop: the next operation starts when the previous one and
    its check have ended. With tracing, odd operations are traced."""
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        traced = trace and i % 2 == 1
        rec = {"traced": traced, "ok": False, "key": wl.key(state, i)}
        first = len(tracer.spans)
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = tracer.span("bench.op", wl.op, state, i) if traced else wl.op(state, i)
            rec["s"] = time.perf_counter() - t0
            rec["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        except Exception as exc:  # a failed operation is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            tracer.uninstall()
        if "s" in rec:
            if traced:
                rec["layers"] = tracer.aggregate(first)
            try:
                rec["quality"] = wl.check(state, i, out, refs)
                rec["ok"] = True
            except Exception as exc:  # noqa: BLE001 - any failed check counts
                rec["error"] = f"{type(exc).__name__}: {exc}"
        ops.append(rec)
        if "error" in rec:
            print(f"operation {i} failed: {rec['error']}")
        done = time.perf_counter() - start >= seconds
        if done and (not trace or len(ops) >= 2):
            return ops


def layer_metrics(ok_traced, ok_untraced, layers_mod) -> dict:
    out = {}
    for m in layers_mod.LAYER_METRICS:
        if m.field == "grad_discarded_frac":
            agg = [op["layers"].get(m.span, {}) for op in ok_traced]
            total = sum(a.get("matrices", 0) for a in agg)
            value = sum(a.get("grad_discarded", 0) for a in agg) / total if total else 0.0
        else:
            value = statistics.median(op["layers"].get(m.span, {}).get(m.field, 0)
                                      for op in ok_traced)
        out[m.name] = value
    traced_s = statistics.median(op["s"] for op in ok_traced)
    untraced_s = statistics.median(op["s"] for op in ok_untraced)
    out["trace.overhead_s"] = traced_s - untraced_s
    out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return out


def self_shares(ok_traced):
    """(span, median self time over the median traced operation time),
    largest first. `bench.op` is the benchmark's own code inside an
    operation."""
    op_s = statistics.median(op["s"] for op in ok_traced)
    names = {name for op in ok_traced for name in op["layers"]
             if not name.startswith("model.batch_forward.")}
    shares = {name: statistics.median(op["layers"].get(name, {}).get("self_s", 0.0)
                                      for op in ok_traced) / op_s for name in names}
    return sorted(shares.items(), key=lambda kv: -kv[1])


def main(argv=None) -> int:
    args = parse_args(argv)
    import_alorat()
    import numpy as np

    import layers as layers_mod
    import spans
    import workloads

    import_s = time.perf_counter() - _T0
    context = run_context(np)
    wl = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size][args.workload]
    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[args.size]

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            state = None
            t0 = time.perf_counter()
            state = wl.setup(size, args.seed, work)
            setup_times.append(time.perf_counter() - t0)
        tracer = spans.Tracer()
        ops = run_ops(wl, state, refs, args.seconds, bool(args.trace), tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [op for op in ops if op["ok"]]
    failed = len(ops) - len(ok)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("context " + json.dumps(context))
    print(f"failed_frac = {failed / len(ops):.4f} ({failed} of {len(ops)} operations)")
    if not ok:
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1

    setup_s = import_s + statistics.median(setup_times)
    if args.trace:
        ok_traced = [op for op in ok if op["traced"]]
        ok_untraced = [op for op in ok if not op["traced"]]
        if not ok_traced or not ok_untraced:
            print("perfbench: need a traced and an untraced operation", file=sys.stderr)
            return 1
        values = layer_metrics(ok_traced, ok_untraced, layers_mod)
        units = dict(layers_mod.per_layer_names())
        print("self-time share of a traced operation: " + ", ".join(
            f"{name} {share:.0%}" for name, share in self_shares(ok_traced)[:8]))
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}-{args.size}.jsonl")
    else:
        op_s = [op["s"] for op in ok]
        # Quality is a property of an input set's outputs: count each
        # visited set once, so runs that visit the same sets agree.
        quality = {op["key"]: op["quality"] for op in ok}
        values = {
            "setup_s": setup_s,
            "op_s": statistics.median(op_s),
            # Through set-up and the first operation: later operations only
            # add allocator fragmentation, which varies with their order.
            "peak_rss_mb": ok[0]["peak_mb"],
            "best_f1": statistics.median(q["best_f1"] for q in quality.values()),
        }
        units = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB", "best_f1": "fraction"}
        print(f"setup_s: import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups "
              + ", ".join(f"{t:.4f}" for t in setup_times))
        print(f"op_s: {describe(op_s)}; operation times " + ", ".join(f"{t:.3f}" for t in op_s))
        if args.workload == "score":
            print(f"score_rows_per_s = {size['n'] / values['op_s']:.6g} 1/s "
                  f"({size['n']} rows / op_s)")
        else:
            print(f"{'fit_s' if args.workload == 'fit' else 'chain_s'} = op_s")
        # Localization quality depends on the trained model far more than on
        # the inputs, so it spreads across seeds beyond any bound: printed,
        # not bounded. The outputs it derives from are checked against the
        # reference.
        hit_rate = statistics.median(q["hit_rate_at_100"] for q in quality.values())
        print(f"hit_rate_at_100 = {hit_rate:.4f} fraction (median over {len(quality)} input "
              "sets, unbounded)")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
