"""Traced in-process replay of one workload, plus per-layer probes.

Started by ``run.py --trace 1`` in a fresh interpreter with the checkout's
``src/`` on ``PYTHONPATH``; it reads its plan as JSON from argv[2] and prints
one JSON object as its last line.  Two modes:

``import``  times ``import treegibbs.cli`` in a fresh process, runs the given
            command, and reports whether scipy ended up imported.
``replay``  replays each planned command through ``cli.main``: the workload's
            own command in untraced/traced pairs (the difference is the
            tracing overhead), then the probe commands traced.  Spans wrap the
            public entry points of every module; each span's self time is its
            duration minus that of the spans it encloses.  Micro-probes of the
            sampler layers then run at the workload's m.

Only the standard library is imported before ``treegibbs``, so the import
timing is not polluted by the benchmark itself.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (module, attribute) of each span point; the layer is the module's short name.
SPAN_POINTS = [
    ("treegibbs.cli", "main"),
    ("treegibbs.chain", "run"),
    ("treegibbs.trees", "decode"),
    ("treegibbs.trees", "degree_profile"),
    ("treegibbs.energy", "path_energy"),
    ("treegibbs.paths", "enumerate_paths"),
    ("treegibbs.exact", "gibbs_distribution"),
    ("treegibbs.exact", "build_transition_model"),
    ("treegibbs.exact", "verify_model"),
    ("treegibbs.exact", "spectral_gap"),
    ("treegibbs.decomposition", "decomposition_report"),
    ("treegibbs.decomposition", "check_decomposition_bound"),
    ("treegibbs.decomposition", "check_skeleton_projection"),
]
PAIRS_MIN, PAIRS_MAX = 2, 4
PROBE_RESERVE_S = 12.0  # left for the probe commands and micro-probes


class Tracer:
    """Aggregates spans in memory: name -> [calls, total seconds, self seconds]."""

    def __init__(self):
        self.stack: list[list[float]] = []
        self.agg: dict[str, list] = {}
        self.facts: dict = {}
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name, fn, before=None, after=None):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                kwargs = before(kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self) -> None:
        import treegibbs.exact as exact

        def wrap_collector(kwargs):
            if kwargs.get("collector") is not None:
                kwargs["collector"] = self.span("cli.emit", kwargs["collector"])
            return kwargs

        def after_run(result):
            self.facts["final_path"] = result.final_path.word
            self.facts["emitted"] = result.emitted

        def after_build(model):
            self.facts["kernel_nnz"] = int(model.P.nnz)

        def after_gap(report):
            self.facts["eigensolve_iters"] = self.facts.get("eigensolve_iters", 0) + report.iterations

        hooks = {
            "chain.run": (wrap_collector, after_run),
            "exact.build_transition_model": (None, after_build),
            "exact.spectral_gap": (None, after_gap),
        }
        for module_name, attr in SPAN_POINTS:
            orig = getattr(sys.modules[module_name], attr)
            name = f"{module_name.split('.')[-1]}.{attr}"
            wrapper = self.span(name, orig, *hooks.get(name, (None, None)))
            # `from .x import f` copies the reference, so patch every holder.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "treegibbs" or mod_name.startswith("treegibbs."):
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._restore.append((mod, key, orig))
                            setattr(mod, key, wrapper)
        build = exact.StateIndex.__dict__["build"]
        self._restore.append((exact.StateIndex, "build", build))
        exact.StateIndex.build = classmethod(self.span("exact.StateIndex.build", build.__func__))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def take(self) -> dict:
        """Return the aggregates and facts gathered since the last take, and reset them."""
        out = {
            "spans": {k: list(v) for k, v in self.agg.items() if v[0]},
            "facts": dict(self.facts),
        }
        for v in self.agg.values():
            v[:] = [0, 0.0, 0.0]
        self.facts.clear()
        return out


def _median_rate(fn, repeats: int, deadline: float) -> float:
    """Median seconds per call of fn() over at least three and at most ``repeats`` runs."""
    times = []
    while len(times) < repeats and (len(times) < 3 or time.perf_counter() < deadline):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sampler_probes(m: int, seed: int, start_word: str, deadline: float) -> dict:
    """chain / trees / energy micro-timings at length m, started from ``start_word``."""
    from treegibbs import ChainConfig, ChainState, TwoMotzkinPath, resolve_params, run
    from treegibbs.trees import decode, degree_profile
    from treegibbs.energy import path_energy

    params = resolve_params("turner04-cg")
    cfg = ChainConfig(m=m, params=params, seed=seed, initial_state=TwoMotzkinPath(start_word))

    n_step = 200_000
    step_s = _median_rate(lambda: ChainState(cfg).advance(n_step), 5, deadline) / n_step

    state = ChainState(cfg)
    changed = 0
    for _ in range(n_step):
        before = bytes(state.word)
        state.step()
        changed += state.word != before

    n_run = max(1000, 500_000 // m)
    run_s = _median_rate(
        lambda: run(cfg, n_run, include_degrees=True, collector=lambda s: None), 5, deadline
    )

    paths = []
    run(cfg, 100 * 200, thin=100, collector=lambda s: paths.append(s.path))
    trees = [decode(p) for p in paths]

    def per_call(fn, items):
        return _median_rate(lambda: [fn(x) for x in items], 5, deadline) / len(items)

    return {
        "chain.step_ns": step_s * 1e9,
        "chain.accept_ratio": changed / n_step,
        "chain.run_steps_per_s": n_run / run_s,
        "chain.emit_us": (run_s - n_run * step_s) / (n_run + 1) * 1e6,
        "trees.decode_us": per_call(decode, paths) * 1e6,
        "trees.degree_profile_us": per_call(degree_profile, trees) * 1e6,
        "energy.path_energy_us": per_call(lambda p: path_energy(p, params), paths) * 1e6,
    }


def import_mode(plan: dict) -> dict:
    t0 = time.perf_counter()
    import treegibbs.cli as cli

    import_s = time.perf_counter() - t0
    rc = cli.main(plan["argv"])
    return {"rc": rc, "import_s": import_s, "scipy_imported": int("scipy" in sys.modules)}


def replay_mode(plan: dict) -> dict:
    deadline = time.perf_counter() + plan["seconds"]
    import treegibbs.cli as cli
    import treegibbs.decomposition  # noqa: F401  (loaded so its spans can be installed)

    own, *probes = plan["commands"]
    tracer = Tracer()
    rcs = []

    def timed(traced: bool) -> float:
        if traced:
            tracer.take()
            tracer.install()
        t0 = time.perf_counter()
        rcs.append(cli.main(own))
        elapsed = time.perf_counter() - t0
        tracer.uninstall()
        return elapsed

    # Untraced/traced pairs in alternating order, so drift and warm-up cancel;
    # the overhead is the median of the pair differences.
    overheads = []
    while len(overheads) < PAIRS_MIN or (
        len(overheads) < PAIRS_MAX and time.perf_counter() + PROBE_RESERVE_S < deadline
    ):
        if len(overheads) % 2:
            traced = timed(True)
            own_spans = tracer.take()
            overheads.append(traced - timed(False))
        else:
            untraced = timed(False)
            overheads.append(timed(True) - untraced)
            own_spans = tracer.take()
    commands = [own_spans]
    tracer.install()
    for argv in probes:
        rcs.append(cli.main(argv))
        commands.append(tracer.take())
    tracer.uninstall()

    sampler = plan["sampler"]
    start = commands[sampler["command"]]["facts"]["final_path"]
    return {
        "rcs": rcs,
        "overhead_s": statistics.median(overheads),
        "commands": commands,
        "probes": sampler_probes(sampler["m"], sampler["seed"], start, deadline),
    }


if __name__ == "__main__":
    mode, plan = sys.argv[1], json.loads(sys.argv[2])
    result = import_mode(plan) if mode == "import" else replay_mode(plan)
    sys.stdout.write(json.dumps(result) + "\n")
