"""Benchmark for the treegibbs sampler and exact oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; the program is imported from the checkout's ``src/``.
Each workload invocation is a ``python -m treegibbs`` subprocess, timed from
spawn to exit with its peak RSS read by ``os.wait4``, and every output is
checked (checks.py).  ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer ones (trace_child.py).  The last stdout line is
the JSON result; the lines before it record the environment and each
metric's median, quartiles and sample count.  README.md defines the metrics
and says why each workload is there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import stats

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".perfbench_work"

PINNED_SEED = 0  # the CLI's default seed; outputs at this seed are pinned by golden.json
PARAMS = "turner04-cg"
IMPORT_RUNS = 3
# Host speed: a shared host's throughput can step by 30% or more for minutes
# at a time, for every process alike.  Each cycle runs this fixed, program-free
# process, and its timings are scaled by REFERENCE_S / its wall time (README.md).
REFERENCE_CODE = "import numpy, scipy.linalg, scipy.sparse, scipy.sparse.csgraph, scipy.special"
REFERENCE_S = 0.6
MIN_CYCLES = 5
# A hung invocation is killed after TIMEOUT_S, and no cycle starts OVERRUN_S
# past the deadline, so a run ends within 180 s even when the program hangs.
TIMEOUT_S = 40
OVERRUN_S = 10
IMPORT_TIMEOUT_S = 20


@dataclass(frozen=True)
class SampleCmd:
    n: int
    steps: int
    burn_in: int
    thin: int
    fmt: str

    @property
    def m(self) -> int:
        return self.n - 1

    def argv(self, seed: int, out: Path, steps: int | None = None) -> list[str]:
        steps = self.steps if steps is None else steps
        return [
            "sample", "--n", str(self.n), "--params", PARAMS, "--steps", str(steps),
            "--burn-in", str(min(self.burn_in, steps)), "--thin", str(self.thin),
            "--format", self.fmt, "--seed", str(seed), "--out", str(out),
        ]  # fmt: skip


@dataclass(frozen=True)
class OracleCmd:
    argv_head: tuple[str, ...]
    m: int

    @property
    def kind(self) -> str:
        return self.argv_head[0]

    def argv(self, out: Path, m: int | None = None) -> list[str]:
        return [*self.argv_head, "--m", str(self.m if m is None else m), "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    """A sample workload times ``sample``.  An oracle workload times ``oracle``
    and reads its sampler metrics from ``sample``, a companion run at the
    oracle's m."""

    sample: SampleCmd
    oracle: OracleCmd | None = None


# README.md says why each workload is here.
WORKLOADS = {
    "sample-emit": Workload(SampleCmd(50, 50_000, 10_000, 1, "csv")),
    "sample-long": Workload(SampleCmd(1000, 1_000_000, 0, 1000, "jsonl")),
    "oracle-gap": Workload(
        SampleCmd(10, 50_000, 0, 1, "csv"),
        OracleCmd(("exact", "gap", "--params", PARAMS), 9),
    ),
    "oracle-decompose": Workload(
        SampleCmd(8, 50_000, 0, 1, "csv"),
        OracleCmd(("decompose", "report", "--params", PARAMS, "--level", "kqs"), 7),
    ),
}
# Reaches the paths / exact / decomposition layers for workloads whose own
# commands do not (traced runs only).
PROBE = OracleCmd(("decompose", "report", "--params", PARAMS, "--level", "kqs"), 5)


class Bench:
    """Spawns the program, checks its outputs and counts failed invocations."""

    def __init__(self, work: Path, golden: dict | None):
        self.work = work
        self.golden = golden
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._checked: dict[str, str] = {}  # flags -> sha256 of bytes already checked
        self._order_hash: dict[int, str] = {}

    def spawn(self, args: list[str], tag: str, timeout: float = TIMEOUT_S) -> tuple[int, float, float, str]:
        """Run ``python args`` to completion; return (exit code, wall s, peak RSS MB, stdout)."""
        out_path = self.work / f"{tag}.stdout"
        with open(out_path, "wb") as out, open(self.work / f"{tag}.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=self.work, env=self.env, stdout=out, stderr=err
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text()

    def counted(self, tag: str, rc: int, check) -> bool:
        """Count one invocation; it fails on a nonzero exit or any problem from check()."""
        self.attempted += 1
        if rc != 0:
            err = (self.work / f"{tag}.stderr").read_text().strip()[-300:]
            problems = [f"exit code {rc}: {err}"]
        else:
            problems = check()
        self.problems += [f"{tag}: {p}" for p in problems]
        self.failed += bool(problems)
        return not problems

    def run_sample(self, cmd: SampleCmd, seed: int, tag: str, golden_key: str | None):
        """Invoke and check one sample run; returns (wall, rss, d0 series or None)."""
        out = self.work / f"sample.{cmd.fmt}"
        rc, wall, rss, _ = self.spawn(["-m", "treegibbs", *cmd.argv(seed, out)], tag)
        d0s = []
        self.counted(tag, rc, lambda: self.check_sample(cmd, seed, out, golden_key, d0s))
        return wall, rss, d0s or None

    def check_sample(self, cmd: SampleCmd, seed: int, out: Path, golden_key, d0s: list) -> list[str]:
        """Rows checked once per flags; a rerun must reproduce the checked bytes."""
        problems = []
        sha = checks.file_sha256(out)
        if golden_key is not None and self.golden["sha256"][golden_key] != sha:
            problems.append(f"sha256 {sha} differs from golden")
        key = f"n={cmd.n} steps={cmd.steps} seed={seed}"
        if key in self._checked:
            if self._checked[key] != sha:
                problems.append("bytes differ from an earlier run with the same flags and seed")
            return problems
        self._checked[key] = sha
        found, series = checks.check_sample(out, cmd.fmt, cmd.m, cmd.burn_in, cmd.thin)
        d0s.extend(series)
        return problems + found

    def check_oracle(self, cmd: OracleCmd, out: Path, golden_key: str) -> list[str]:
        report = json.loads(out.read_text())
        if cmd.kind == "decompose":
            return checks.check_decompose(report, self.golden[golden_key])
        if cmd.m not in self._order_hash:
            self._order_hash[cmd.m] = checks.enumeration_hash(cmd.m)
        return checks.check_gap(report, cmd.m, self.golden[golden_key], self._order_hash[cmd.m])

    def run_oracle(self, cmd: OracleCmd, tag: str, golden_key: str) -> tuple[float, float]:
        out = self.work / "oracle.json"
        rc, wall, rss, _ = self.spawn(["-m", "treegibbs", *cmd.argv(out)], tag)
        self.counted(tag, rc, lambda: self.check_oracle(cmd, out, golden_key))
        return wall, rss


def environment(bench: Bench) -> dict:
    """Record the machine and the program under test; exit if it is not this checkout's."""
    code = (
        "import json, sys, numpy, scipy, treegibbs; print(json.dumps({"
        "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
        "'scipy': scipy.__version__, 'treegibbs': treegibbs.__version__, "
        "'treegibbs_file': treegibbs.__file__}))"
    )
    rc, _, _, out = bench.spawn(["-c", code], "env")
    if rc != 0:
        raise SystemExit(f"cannot import treegibbs, numpy and scipy from {ROOT / 'src'}")
    env = json.loads(out)
    src = (ROOT / "src").resolve()
    if src not in Path(env["treegibbs_file"]).resolve().parents:
        raise SystemExit(f"treegibbs imported from {env['treegibbs_file']}, not under {src}")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"  # a checkout exported without .git has no commit to report
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    env.update(cores=os.cpu_count(), cpu=cpu, loadavg=list(os.getloadavg()), commit=commit)
    return env


def end_to_end(bench: Bench, name: str, seed: int, seconds: float) -> dict:
    """Cycles of (set-up probe, reference, sampler, [oracle command]) until the
    deadline.  Times are scaled to the host speed seen by the cycle's
    reference process (README.md, "Host speed")."""
    w = WORKLOADS[name]
    cmd = w.sample
    deadline = time.perf_counter() + seconds
    raw: dict[str, list[float]] = {"reference": [], "setup": [], "sampler": [], "wall": []}
    scaled: dict[str, list[float]] = {"setup": [], "sampler": [], "wall": []}
    rsses, cycles = [], []
    pinned_d0 = None
    while time.perf_counter() < deadline + OVERRUN_S and (
        len(cycles) < MIN_CYCLES or time.perf_counter() + statistics.median(cycles) < deadline
    ):
        t0 = time.perf_counter()
        i = len(cycles)
        walls = {}
        rc, walls["setup"], _, out = bench.spawn(["-m", "treegibbs", "--version"], f"version{i}")
        bench.counted(f"version{i}", rc, lambda: [] if out.startswith("treegibbs ") else [repr(out)])
        rc, reference, _, _ = bench.spawn(["-c", REFERENCE_CODE], f"reference{i}")
        if rc != 0:
            raise SystemExit("the host-speed reference process failed")
        walls["reference"] = reference
        # The first sampler run is at seed 0: golden.json pins its
        # bytes and the quality metrics are read from it (README.md says why).
        sampler_seed = PINNED_SEED if w.oracle or i == 0 else seed
        golden_key = name if sampler_seed == PINNED_SEED else None
        walls["sampler"], rss, d0s = bench.run_sample(cmd, sampler_seed, f"sample{i}", golden_key)
        if i == 0:
            pinned_d0 = d0s
        if w.oracle:
            walls["wall"], rss = bench.run_oracle(w.oracle, f"oracle{i}", name)
        else:
            walls["wall"] = walls["sampler"]
        for key, value in walls.items():
            raw[key].append(value)
            if key in scaled:
                scaled[key].append(value * REFERENCE_S / reference)
        rsses.append(rss)
        cycles.append(time.perf_counter() - t0)
    print(json.dumps({"raw_median_s": {k: statistics.median(v) for k, v in raw.items()}}))

    if pinned_d0 is None:  # the seed-0 run failed and is counted so; keep the result well-formed
        ess = tv = 0.0
    else:
        ess = stats.ess(pinned_d0)
        tv = stats.tv_to_law(pinned_d0, stats.d0_law(cmd.m, bench.golden["alpha"], bench.golden["beta"]))
    return {
        "wall_s": ("s", scaled["wall"]),
        "setup_s": ("s", scaled["setup"]),
        "steps_per_s": ("1/s", [cmd.steps / x for x in scaled["sampler"]]),
        "ess_d0_per_s": ("1/s", [ess / x for x in scaled["sampler"]]),
        "d0_tv_exact": ("1", [tv]),
        "peak_rss_mb": ("MB", rsses),
    }


def per_layer(bench: Bench, name: str, seed: int, seconds: float) -> dict:
    w = WORKLOADS[name]
    deadline = time.perf_counter() + seconds
    trace_child = str(BENCH / "trace_child.py")

    # cli.import_s / cli.scipy_imported: a fresh process imports the CLI and
    # runs the workload's own command, shrunk, end to end.
    small = bench.work / "small.out"
    own_small = w.oracle.argv(small, m=4) if w.oracle else w.sample.argv(seed, small, steps=1000)
    imports = []
    for i in range(IMPORT_RUNS):
        rc, _, _, out = bench.spawn(
            [trace_child, "import", json.dumps({"argv": own_small})], f"import{i}", IMPORT_TIMEOUT_S
        )
        if bench.counted(f"import{i}", rc, lambda: [] if json.loads(out)["rc"] == 0 else ["cli.main failed"]):
            imports.append(json.loads(out))
    if not imports:
        raise SystemExit("every import probe failed: " + "; ".join(bench.problems))

    # Replay: the workload's own command, then the companion sampler and the
    # probe for the layers the own command does not reach.
    sampler_seed = seed if w.oracle is None else PINNED_SEED
    sample_out = bench.work / f"sample.{w.sample.fmt}"
    oracle_out = bench.work / "oracle.json"
    probe_out = bench.work / "probe.json"
    commands = [w.oracle.argv(oracle_out) if w.oracle else w.sample.argv(sampler_seed, sample_out)]
    if w.oracle:
        commands.append(w.sample.argv(sampler_seed, sample_out))
    if w.oracle is None or w.oracle.kind != "decompose":
        commands.append(PROBE.argv(probe_out))
    plan = {
        "commands": commands,
        "sampler": {"m": w.sample.m, "seed": sampler_seed, "command": 0 if w.oracle is None else 1},
        "seconds": max(1.0, deadline - time.perf_counter()),
    }
    replay_timeout = plan["seconds"] + 30
    rc, _, _, out = bench.spawn([trace_child, "replay", json.dumps(plan)], "replay", replay_timeout)

    def check_replay() -> list[str]:
        problems = [f"cli.main exit code {c}" for c in json.loads(out)["rcs"] if c != 0]
        golden_key = name if sampler_seed == PINNED_SEED else None
        problems += bench.check_sample(w.sample, sampler_seed, sample_out, golden_key, [])
        if w.oracle:
            problems += bench.check_oracle(w.oracle, oracle_out, name)
        if probe_out.exists():
            problems += bench.check_oracle(PROBE, probe_out, "probe")
        return problems

    if not bench.counted("replay", rc, check_replay):
        raise SystemExit("the traced replay failed: " + "; ".join(bench.problems))
    replay = json.loads(out)

    def first(span: str) -> dict:
        """Aggregates of the first replayed command that reaches ``span``."""
        return next(c for c in replay["commands"] if span in c["spans"])

    def self_s(cmd: dict, span: str) -> float:
        return cmd["spans"].get(span, [0, 0.0, 0.0])[2]

    sampler = first("cli.emit")
    exact = first("exact.build_transition_model")
    decomp = first("decomposition.check_decomposition_bound")
    rows = sampler["spans"]["cli.emit"][0]
    own_layers: dict[str, float] = {}
    for span, (_, _, self_time) in replay["commands"][0]["spans"].items():
        layer = span.split(".")[0]
        own_layers[layer] = own_layers.get(layer, 0.0) + self_time
    print(json.dumps({"own_command_self_s_by_layer": own_layers}))

    metrics = {
        "cli.import_s": ("s", [r["import_s"] for r in imports]),
        "cli.scipy_imported": ("bool", [r["scipy_imported"] for r in imports]),
        "cli.row_us": ("us", [(self_s(sampler, "cli.main") + self_s(sampler, "cli.emit")) / rows * 1e6]),
        "paths.enumerate_s": ("s", [self_s(first("paths.enumerate_paths"), "paths.enumerate_paths")]),
        "exact.kernel_build_s": ("s", [self_s(exact, "exact.build_transition_model")]),
        "exact.verify_s": ("s", [self_s(exact, "exact.verify_model")]),
        "exact.kernel_nnz": ("count", [exact["facts"]["kernel_nnz"]]),
        "exact.eigensolve_s": ("s", [self_s(exact, "exact.spectral_gap")]),
        "exact.eigensolve_iters": ("count", [exact["facts"].get("eigensolve_iters", 0)]),
        "decomposition.bound_s": ("s", [self_s(decomp, "decomposition.check_decomposition_bound")]),
        "decomposition.skeleton_s": ("s", [self_s(decomp, "decomposition.check_skeleton_projection")]),
        "decomposition.skeleton_calls": ("count", [decomp["spans"]["decomposition.check_skeleton_projection"][0]]),
        "trace.overhead_s": ("s", [replay["overhead_s"]]),
    }
    units = {"_ns": "ns", "_us": "us", "_per_s": "1/s", "_ratio": "1"}
    for key, value in replay["probes"].items():
        unit = next(u for suffix, u in units.items() if key.endswith(suffix))
        metrics[key] = (unit, [value])
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not GOLDEN.exists():
        raise SystemExit(f"missing {GOLDEN}")

    WORK.mkdir(exist_ok=True)
    work = WORK / str(os.getpid())
    work.mkdir()
    try:
        bench = Bench(work, json.loads(GOLDEN.read_text()))
        env = environment(bench)
        print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed}))
        measure = per_layer if args.trace else end_to_end
        series = measure(bench, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it

    metrics = {}
    for metric, (unit, values) in series.items():
        s = stats.summary(values)
        print(f"{metric:30s} {s['median']:<12.6g} {unit:5s} q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
        metrics[metric] = {"value": s["median"], "unit": unit}
    for problem in bench.problems:
        print(f"FAILED CHECK {problem}")
    result = {"correct": bench.failed == 0, "attempted": bench.attempted, "failed": bench.failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
