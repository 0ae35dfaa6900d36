"""Record the reference outputs the benchmark checks its operations
against: one entry per pooled input set, workload and size.

    python3 perfbench/record_reference.py [--size full|tiny]

Run it from the repository root, only when a change is meant to alter the
outputs; the benchmark refuses outputs that differ from these.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run  # fixes the BLAS thread count before numpy loads

REFERENCE = run.HERE / "reference.json"


def record(size_name: str) -> dict:
    import workloads

    refs = {}
    fit_size = workloads.SIZES[size_name]["fit"]
    fit_state = workloads.fit_setup(fit_size, 0, None)
    for key in range(workloads.FIT_POOL):
        refs[f"fit/{key}"] = workloads.fit_signature(workloads.fit_op(fit_state, key))
        print(f"{size_name} fit/{key}", flush=True)
    score_size = workloads.SIZES[size_name]["score"]
    for key in range(workloads.SCORE_POOL):
        state = workloads.score_setup(score_size, key, None)
        refs[f"score/{key}"] = workloads.score_signature(workloads.score_op(state, 0))
        print(f"{size_name} score/{key}", flush=True)
    cli_size = workloads.SIZES[size_name]["cli"]
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as work:
        cli_state = workloads.cli_setup(cli_size, 0, Path(work))
        for key in range(workloads.CLI_POOL):
            outputs = workloads.cli_op(cli_state, key)
            refs[f"cli/{key}"] = workloads.cli_signature(cli_state, outputs)
            print(f"{size_name} cli/{key}", flush=True)
    return refs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="record perfbench reference outputs")
    p.add_argument("--size", choices=("full", "tiny"), action="append")
    sizes = p.parse_args(argv).size or ["full", "tiny"]
    run.import_alorat()
    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    for size_name in sizes:
        refs[size_name] = record(size_name)
    # One line per entry keeps the file short and its diffs readable.
    REFERENCE.write_text("{\n" + ",\n".join(
        f" {json.dumps(size)}: {{\n"
        + ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in entries.items())
        + "\n }" for size, entries in sorted(refs.items())) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
