"""Command-line surface: sampling, conversion, exact analysis, decomposition.

Every subcommand that writes files also drops a ``.manifest.json`` next to
its primary output recording the exact argv, resolved parameters, seed,
and version; ``treegibbs replay <manifest>`` re-runs it.  Data files
never embed timestamps, so identical flags and seed reproduce them
byte for byte.

Exit codes: 0 success, 2 usage, 3 input validation, 4 capacity (a size
cap, or running out of memory), 5 internal-check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .chain import ChainConfig, Sample, batch_means_stderr, check_schedule, run
from .energy import EnergyParams, resolve_params
from .errors import (
    BalanceViolationError,
    CapExceededError,
    ConfigInvalidError,
    EmptyBlockError,
    EmptyTreeError,
    InternalInvariantViolationError,
    LengthMismatchError,
    NoConvergenceError,
    NotAPartitionError,
    PathValidationError,
    TreeGibbsError,
    UnbalancedParensError,
    UnknownParameterSetError,
)
from .paths import TwoMotzkinPath, validate
from .trees import decode, degree_profile, encode, text_to_tree, tree_to_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_CAPACITY = 4
EXIT_INTERNAL = 5

OUT_DIR_ENV = "TREEGIBBS_OUT_DIR"

# Sample summaries include exact-distribution diagnostics up to this length.
_SUMMARY_EXACT_CAP = 8


class _UsageError(Exception):
    pass


def _parse_count(value: str) -> int:
    """Step counts accept scientific notation like 1e6."""
    try:
        as_float = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number") from None
    if not math.isfinite(as_float) or as_float < 0 or as_float != int(as_float):
        raise argparse.ArgumentTypeError(f"{value!r} is not a nonnegative integer")
    return int(as_float)


def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _energy_from_args(args) -> EnergyParams:
    explicit = args.alpha is not None or args.beta is not None
    if args.params is not None and explicit:
        raise _UsageError("give either --params or --alpha/--beta, not both")
    if args.params is not None:
        return resolve_params(args.params)
    if args.alpha is None or args.beta is None:
        raise _UsageError("both --alpha and --beta are required without --params")
    return EnergyParams(alpha=args.alpha, beta=args.beta)


def _add_energy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=None, help="leaf coefficient (kcal/mol)")
    parser.add_argument("--beta", type=float, default=None, help="internal-node coefficient")
    parser.add_argument(
        "--params",
        default=None,
        metavar="NAME|FILE",
        help="builtin parameter set (e.g. turner04-cg) or key=value file",
    )


def _manifest(out: Path, subcommand: str, argv: list[str], extra: dict, started: str) -> None:
    manifest = {
        "subcommand": subcommand,
        "argv": argv,
        "version": __version__,
        "started_at": started,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        **extra,
    }
    out.with_name(out.name + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n"
    )


def _write_json(payload: dict, out: Path | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


# --------------------------------------------------------------------------
# sample


def _sample_chain(
    params: EnergyParams,
    args,
    chain_id: int,
    out_file: Path | None,
) -> dict:
    """Run one chain, stream its samples to a file, and return summary stats."""
    m = args.n - 1
    cfg = ChainConfig(m=m, params=params, seed=args.seed, chain_id=chain_id)
    track = m <= _SUMMARY_EXACT_CAP

    # The summary's series, once per sample: (energy, d0, d1) and row count.
    fields: list[tuple[float, int, int]] = []
    rows: list[int] = []
    jsonl = args.format == "jsonl"
    head = '{"step":' if jsonl else ""

    def emit(s: Sample) -> None:
        # A sample's rows differ only in their step.  No CSV field needs
        # quoting: words are letters, energies float reprs.
        p = s.degrees
        fields.append((s.energy, p.d0, p.d1))
        rows.append(len(s.steps))
        if jsonl:
            rest = {"path": s.path.word, "energy": s.energy, "d0": p.d0, "d1": p.d1, "r": p.r}
            tail = "," + json.dumps(rest, separators=(",", ":"))[1:] + "\n"
        else:
            tail = f",{s.path.word},{s.energy!r},{p.d0},{p.d1},{p.r}\n"
        write("".join(f"{head}{t}{tail}" for t in s.steps))

    sink = open(out_file, "w", newline="") if out_file is not None else sys.stdout
    write = sink.write
    try:
        if not jsonl:
            write("step,path,energy,d0,d1,r\n")
        result = run(
            cfg,
            total_steps=args.steps,
            burn_in=args.burn_in,
            thin=args.thin,
            collector=emit,
            include_degrees=True,
            track_occupancy=track,
        )
    finally:
        if out_file is not None:
            sink.close()

    # ``run`` always emits the burn-in row, so there is at least one sample.
    energies, d0s, d1s = (np.repeat(column, rows) for column in zip(*fields))

    def histogram(values: np.ndarray) -> dict[str, int]:
        keys, counts = np.unique(values, return_counts=True)
        return {str(k): int(c) for k, c in zip(keys.tolist(), counts.tolist())}

    summary = {
        "chain_id": chain_id,
        "emitted": result.emitted,
        "mean_energy": float(np.mean(energies)),
        "mean_d0": float(np.mean(d0s)),
        "mean_d1": float(np.mean(d1s)),
        "se_d0_batch_means": batch_means_stderr(d0s) if d0s.size >= 4 else None,
        "d0_histogram": histogram(d0s),
        "d1_histogram": histogram(d1s),
    }
    if track and result.occupancy:
        from .law import StateIndex, empirical_distribution, gibbs_distribution, tv_distance

        index = StateIndex.build(m)
        emp = empirical_distribution(result.occupancy, index)
        pi, _ = gibbs_distribution(m, params, index=index)
        summary["tv_vs_exact"] = tv_distance(emp, pi)
        if params.alpha == 0.0 and params.beta == 0.0:
            summary["tv_vs_uniform"] = tv_distance(emp, np.full(len(index), 1.0 / len(index)))
    return summary


def cmd_sample(args, argv: list[str]) -> int:
    params = _energy_from_args(args)
    if args.n < 2:
        raise ConfigInvalidError(f"--n must be at least 2, got {args.n}")
    if args.chains < 1:
        raise ConfigInvalidError("--chains must be positive")
    # Before any output is opened: a rejected run leaves no file behind.
    check_schedule(args.steps, args.burn_in, args.thin)
    started = datetime.now(timezone.utc).isoformat()
    out = _resolve_out(args.out)
    if out is None and args.chains > 1:
        raise _UsageError("--chains > 1 requires --out")

    ext = "csv" if args.format == "csv" else "jsonl"
    if args.chains == 1:
        files = [out]
    else:
        files = [out.with_name(f"{out.stem}.chain{k}.{ext}") for k in range(args.chains)]

    if args.chains == 1:
        summaries = [_sample_chain(params, args, 0, files[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.chains, os.cpu_count() or 1)) as pool:
            futures = [
                pool.submit(_sample_chain, params, args, k, files[k])
                for k in range(args.chains)
            ]
            summaries = [f.result() for f in futures]

    summary = {
        "n": args.n,
        "m": args.n - 1,
        "alpha": params.alpha,
        "beta": params.beta,
        "gamma": params.gamma,
        "delta": params.delta,
        "steps": args.steps,
        "burn_in": args.burn_in,
        "thin": args.thin,
        "seed": args.seed,
        "chains": args.chains,
        "per_chain": summaries,
    }
    if out is not None:
        out.with_name(out.name + ".summary.json").write_text(
            json.dumps(summary, indent=2) + "\n"
        )
        _manifest(
            out,
            "sample",
            argv,
            {
                "seed": args.seed,
                "params": asdict(params),
                "outputs": [str(f) for f in files],
            },
            started,
        )
    else:
        sys.stderr.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


# --------------------------------------------------------------------------
# convert


def cmd_convert(args, argv: list[str]) -> int:
    started = datetime.now(timezone.utc).isoformat()
    out = _resolve_out(args.out)
    source = sys.stdin if args.infile == "-" else open(args.infile)
    sink = sys.stdout if out is None else open(out, "w")
    failures = 0
    try:
        for lineno, raw in enumerate(source, start=1):
            line = raw.rstrip("\n")
            try:
                if args.to == "trees":
                    tree = decode(validate(line))
                    if args.adjacency:
                        rendered = json.dumps(
                            {str(i): list(kids) for i, kids in enumerate(tree.children)},
                            separators=(",", ":"),
                        )
                    else:
                        rendered = tree_to_text(tree)
                else:
                    tree = text_to_tree(line)
                    rendered = encode(tree).word
                if args.degrees:
                    prof = degree_profile(tree)
                    rendered = f"{rendered}\t{prof.d0}\t{prof.d1}\t{prof.r}"
                sink.write(rendered + "\n")
            except (PathValidationError, UnbalancedParensError, EmptyTreeError) as exc:
                failures += 1
                sys.stderr.write(f"{args.infile}:{lineno}: {exc}\n")
    finally:
        if source is not sys.stdin:
            source.close()
        if sink is not sys.stdout:
            sink.close()
    if out is not None:
        _manifest(out, "convert", argv, {"failures": failures}, started)
    return EXIT_VALIDATION if failures else EXIT_OK


# --------------------------------------------------------------------------
# exact


def cmd_exact(args, argv: list[str]) -> int:
    from .exact import (
        StateIndex,
        build_transition_model,
        gibbs_distribution,
        spectral_gap,
        tv_decay_curve,
    )

    params = _energy_from_args(args)
    started = datetime.now(timezone.utc).isoformat()
    out = _resolve_out(args.out)
    payload: dict = {
        "m": args.m,
        "alpha": params.alpha,
        "beta": params.beta,
    }
    if args.what == "pi":
        index = StateIndex.build(args.m)
        pi, log_z = gibbs_distribution(args.m, params, index=index)
        payload.update(
            state_order_hash=index.order_hash(),
            log_z=log_z,
            pi=pi.tolist(),
        )
    elif args.what == "gap":
        model = build_transition_model(args.m, params)
        report = spectral_gap(model, method=args.method)
        payload.update(
            state_order_hash=model.index.order_hash(),
            log_z=model.log_z,
            lambda1=report.lambda1,
            gap=report.gap,
            relaxation_time=report.relaxation_time,
            method=report.method,
            residual=report.residual,
            iterations=report.iterations,
        )
    else:  # tv-curve
        model = build_transition_model(args.m, params)
        start = TwoMotzkinPath("H" * args.m) if args.start == "all-H" else validate(args.start)
        if len(start) != args.m:
            raise ConfigInvalidError(
                f"--from path has length {len(start)}, expected m={args.m}"
            )
        curve = tv_decay_curve(model, start, args.horizon)
        payload.update(
            state_order_hash=model.index.order_hash(),
            log_z=model.log_z,
            start=start.word,
            curve=[[t, v] for t, v in curve],
        )
    _write_json(payload, out)
    if out is not None:
        _manifest(out, "exact", argv, {"what": args.what}, started)
    return EXIT_OK


# --------------------------------------------------------------------------
# decompose


def cmd_decompose(args, argv: list[str]) -> int:
    from .decomposition import decomposition_report

    params = _energy_from_args(args)
    started = datetime.now(timezone.utc).isoformat()
    out = _resolve_out(args.out)
    report = decomposition_report(args.m, params, level=args.level)
    _write_json(report, out)
    if out is not None:
        _manifest(out, "decompose", argv, {"level": args.level}, started)
    return EXIT_OK


# --------------------------------------------------------------------------
# replay


def cmd_replay(args, argv: list[str]) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigInvalidError(f"{args.manifest} is not JSON: {exc}") from None
    recorded = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(recorded, list) and recorded and all(isinstance(a, str) for a in recorded)):
        raise ConfigInvalidError(f"{args.manifest} has no recorded argv")
    if recorded[0] == "replay":  # no command records one, and it could replay itself
        raise ConfigInvalidError(f"{args.manifest} records a replay, not a command")
    return main(recorded)


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treegibbs",
        description="Sample plane trees from a branching-energy Gibbs distribution "
        "via a Markov chain on 2-Motzkin paths; includes exact small-instance analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run the sampler and stream (step, path, energy, degrees)")
    p.add_argument("--n", type=int, required=True, help="tree edge count (path length m = n - 1)")
    _add_energy_flags(p)
    p.add_argument("--steps", type=_parse_count, default=100_000, help="chain transitions (1e6 accepted)")
    p.add_argument("--burn-in", dest="burn_in", type=_parse_count, default=0)
    p.add_argument("--thin", type=_parse_count, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chains", type=int, default=1, help="independent chains run in parallel")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("convert", help="translate between path words and parenthesis trees")
    p.add_argument("--to", choices=("trees", "paths"), required=True)
    p.add_argument("--in", dest="infile", default="-", help="input file (default: stdin)")
    p.add_argument("--out", default=None)
    p.add_argument("--degrees", action="store_true", help="append d0, d1, r per line")
    p.add_argument(
        "--adjacency",
        action="store_true",
        help="emit trees as JSON adjacency (node id -> ordered child ids)",
    )
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("exact", help="exact distribution, spectral gap, or TV decay curve")
    p.add_argument("what", choices=("pi", "gap", "tv-curve"))
    p.add_argument("--m", type=int, required=True, help="path length (state count catalan(m+1))")
    _add_energy_flags(p)
    p.add_argument("--method", choices=("auto", "dense", "lanczos"), default="auto")
    p.add_argument("--from", dest="start", default="all-H", help="tv-curve start path word")
    p.add_argument("--horizon", type=_parse_count, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("decompose", help="structural report for the block decompositions")
    p.add_argument("what", choices=("report",))
    p.add_argument("--m", type=int, required=True)
    _add_energy_flags(p)
    p.add_argument("--level", choices=("k", "kq", "kqs"), default="k")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (CapExceededError, MemoryError) as exc:
        reason = str(exc) or "out of memory"
        sys.stderr.write(f"capacity error: {reason}; lower --m/--n or raise the cap in code\n")
        return EXIT_CAPACITY
    except (
        PathValidationError,
        UnbalancedParensError,
        EmptyTreeError,
        ConfigInvalidError,
        UnknownParameterSetError,
        LengthMismatchError,
        EmptyBlockError,
        NotAPartitionError,
    ) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except (BalanceViolationError, NoConvergenceError, InternalInvariantViolationError) as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return EXIT_INTERNAL
    except TreeGibbsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
