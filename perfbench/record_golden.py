"""Record golden.json: the pinned outputs every benchmark run is checked against.

    python3 perfbench/record_golden.py

Records, from the checkout's current code: the SHA-256 of each workload's
sample data file at seed 0, the oracle-gap gap and lambda1, and
the full decompose reports of oracle-decompose and of the trace probe.
Re-record only when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run


def main() -> None:
    work = run.WORK / "golden"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record(run.Bench(work, None), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass  # a benchmark run is using it


def record(bench: run.Bench, work) -> None:
    golden: dict = {"pinned_seed": run.PINNED_SEED, "sha256": {}}
    for name, w in run.WORKLOADS.items():
        out = work / f"sample.{w.sample.fmt}"
        rc, *_ = bench.spawn(["-m", "treegibbs", *w.sample.argv(run.PINNED_SEED, out)], name)
        if rc != 0:
            sys.exit(f"{name}: exit code {rc}")
        problems, _ = checks.check_sample(out, w.sample.fmt, w.sample.m, w.sample.burn_in, w.sample.thin)
        if problems:
            sys.exit(f"{name}: {problems}")
        summary = json.loads((work / f"sample.{w.sample.fmt}.summary.json").read_text())
        golden["sha256"][name] = checks.file_sha256(out)
        golden["alpha"], golden["beta"] = summary["alpha"], summary["beta"]
    oracles = [(n, w.oracle) for n, w in run.WORKLOADS.items() if w.oracle] + [("probe", run.PROBE)]
    for name, cmd in oracles:
        out = work / "oracle.json"
        rc, *_ = bench.spawn(["-m", "treegibbs", *cmd.argv(out)], name)
        if rc != 0:
            sys.exit(f"{name}: exit code {rc}")
        report = json.loads(out.read_text())
        golden[name] = {k: report[k] for k in ("gap", "lambda1")} if cmd.kind == "exact" else report
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
