"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Run from the repository root. Checks that `BENCHMARK.json` names exactly
the metrics `layers.py` defines; that every workload, at a tiny size,
untraced and traced, passes its output checks and prints every named
metric with its unit; that each traced layer reads 0 exactly on the
workloads `layers.py` says never enter it and is nonzero elsewhere; and
that the benchmark fails without a result when the package sources are
missing. Exits 0 when all hold.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload, trace, errors):
    proc = bench(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: {result['failed']} of {result['attempted']} operations failed")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        for m in layers.LAYER_METRICS:
            if (values.get(m.name) == 0) != (workload in m.zero_on):
                errors.append(f"{where}: {m.name} = {values.get(m.name)}, expected "
                              f"{'0' if workload in m.zero_on else 'nonzero'}")


def check_without_sources(errors):
    """Only BENCHMARK.json and the benchmark's paths: must fail, no result."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    errors = []
    spec_layers = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    if spec_layers != layers.per_layer_names():
        errors.append("BENCHMARK.json per_layer differs from layers.per_layer_names()")
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace, errors)
    check_without_sources(errors)
    for e in errors:
        print(f"FAIL {e}")
    print("smoke: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
