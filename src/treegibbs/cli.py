"""Command-line surface: sampling, conversion, exact analysis, decomposition.

Every command runs in one frame, ``main``: it parses the flags, takes the
start time, takes ``--out`` as a path (which creates nothing; one that
names no file, like ``sub/``, or names a directory is a validation error),
runs the command, and, when the command returns with an ``--out``, writes
``<out>.manifest.json`` recording the exact argv, resolved parameters,
seed, version and timestamps; ``treegibbs replay <manifest>`` re-runs it.
Data files never embed timestamps.  ``sample`` and ``convert`` reproduce
their files byte for byte from the same flags and seed; ``exact`` and
``decompose`` do so under the same BLAS thread count, and otherwise agree
to 1e-12, since threaded BLAS sums the eigensolver's products in another
order.  Each file is written under a ``.part`` name and renamed when it
is complete, and ``_output`` creates ``--out``'s missing directories just
before it opens the part file.  So a command rejected at validation
leaves nothing behind, and one that raises while writing, SIGINT's
``KeyboardInterrupt`` included, leaves no data file, part file, manifest
or directory.  SIGTERM removes the part file and the directories made for
it too, and then ends the process by SIGTERM as before; sent to the parent
of a ``--chains`` run, it first ends the workers, which clean up the same
way, and then removes the directories made for them.  Only SIGKILL can
leave ``<out>.part``; no signal leaves a truncated ``<out>``, or a
manifest for an unfinished run, since it is written last.

Exit codes: 0 success, 2 usage, 3 input validation or an i/o error (a
closed stdout pipe, a full disk, an unwritable ``--out``, a stream the
command needs closed at start), 4 capacity (a size cap, or running out of
memory), 5 internal-check failure; messages for a closed stderr are dropped.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import signal
import sys
import threading
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .chain import ChainConfig, Sample, batch_means_stderr, check_schedule, run
from .energy import EnergyParams, resolve_params
from .errors import (
    CapExceededError,
    ConfigInvalidError,
    EmptyTreeError,
    PathValidationError,
    TreeGibbsError,
    UnbalancedParensError,
)
from .paths import TwoMotzkinPath
from .trees import decode, degree_profile, encode, text_to_tree, tree_to_text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_CAPACITY = 4
EXIT_INTERNAL = 5

# Sample summaries include exact-distribution diagnostics up to this length.
_SUMMARY_EXACT_CAP = 8


class _UsageError(Exception):
    pass


def _parse_count(value: str) -> int:
    """Step counts: an integer literal, read exactly, or a float form like 1e6."""
    try:
        count = int(value)
    except ValueError:
        try:
            as_float = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{value!r} is not a number") from None
        if not math.isfinite(as_float) or as_float != int(as_float):
            raise argparse.ArgumentTypeError(f"{value!r} is not a nonnegative integer") from None
        count = int(as_float)
    if count < 0:
        raise argparse.ArgumentTypeError(f"{value!r} is not a nonnegative integer")
    return count


def _energy_from_args(args) -> EnergyParams:
    explicit = args.alpha is not None or args.beta is not None
    if args.params is not None and explicit:
        raise _UsageError("give either --params or --alpha/--beta, not both")
    if args.params is not None:
        return resolve_params(args.params)
    if args.alpha is None or args.beta is None:
        raise _UsageError("both --alpha and --beta are required without --params")
    return EnergyParams(alpha=args.alpha, beta=args.beta)


def _check_energy_range(params: EnergyParams, m: int) -> None:
    """Reject coefficients whose energies at length m leave float64.

    d0 <= m + 1 and d1 <= m, so |E| <= |alpha| (m + 1) + |beta| m; where that
    bound is finite, every energy is too.
    """
    if not math.isfinite(abs(params.alpha) * (m + 1) + abs(params.beta) * m):
        raise ConfigInvalidError(
            f"energies overflow float64 at m={m}: |alpha|*(m+1) + |beta|*m is not finite"
        )


def _add_energy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=None, help="leaf coefficient (kcal/mol)")
    parser.add_argument("--beta", type=float, default=None, help="internal-node coefficient")
    parser.add_argument(
        "--params",
        default=None,
        metavar="NAME|FILE",
        help="builtin parameter set (e.g. turner04-cg) or key=value file",
    )


def _stream(name: str):
    """``sys.<name>`` for a command's data; ``OSError`` (an i/o error) when
    Python set it to None, its descriptor being closed at start."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(errno.EBADF, f"{name} was closed at start")
    return stream


def _say(message: str) -> None:
    """Write a message to stderr, or drop it where stderr is closed or fails."""
    if sys.stderr is not None:
        with suppress(OSError):
            sys.stderr.write(message)


def _remove_empty(dirs: list[Path]) -> None:
    """Remove each of ``dirs`` that is empty, in order."""
    for d in dirs:
        with suppress(OSError):
            d.rmdir()


@contextmanager
def _on_sigterm(cleanup):
    """Within the block, SIGTERM runs ``cleanup`` and then ends the process
    by SIGTERM, as the signal's default action would have at once.

    The handler is installed only over that default action, and only in the
    main thread, the one where Python runs signal handlers; elsewhere the
    block runs with SIGTERM as it is.
    """

    def handler(signum, frame):
        cleanup()
        signal.signal(signum, signal.SIG_DFL)
        signal.raise_signal(signum)

    installed = (
        signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        and threading.current_thread() is threading.main_thread()
    )
    if installed:
        signal.signal(signal.SIGTERM, handler)
    try:
        yield
    finally:
        if installed:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)


@contextmanager
def _output(out: Path | None):
    """A text sink for ``out``, or stdout when it is None.

    Every file the CLI writes goes through here, and nothing else creates a
    directory: the missing parents of ``out`` are made, and ``out`` is
    written as ``<out>.part`` beside it and renamed onto ``out`` when the
    block ends, so ``out`` is complete or absent.  On any exception,
    ``KeyboardInterrupt`` included, and on SIGTERM, the part file and the
    directories made here, where empty, are removed.
    """
    if out is None:
        yield _stream("stdout")
        return
    made = [d for d in out.parents if not d.exists()]  # nearest first
    part = out.with_name(out.name + ".part")

    def remove() -> None:
        part.unlink(missing_ok=True)
        _remove_empty(made)

    with _on_sigterm(remove):
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            with open(part, "w", newline="") as sink:
                yield sink
            os.replace(part, out)
        except BaseException:
            remove()
            raise


def _end_workers(made: list[Path]) -> None:
    """End this process's worker processes by SIGTERM, and wait for them:
    each removes its part file as ``_output`` does, then ends.  Then remove
    the directories ``made``, where empty."""
    import multiprocessing

    workers = multiprocessing.active_children()
    for worker in workers:
        worker.terminate()
    for worker in workers:
        worker.join()
    _remove_empty(made)


def _write_json(payload: dict, out: Path | None) -> None:
    with _output(out) as sink:
        sink.write(json.dumps(payload, indent=2) + "\n")


# --------------------------------------------------------------------------
# sample


def _row_statistics(energy, d0, d1, rows) -> dict:
    """The sample summary's statistics of a run's rows, from its held words.

    Entry i of the columns (an ``array('d')`` and three ``array('q')``) is
    the i-th held word's energy, d0 and d1, and ``rows[i]`` is how many rows
    it wrote (at least one; there is at least one word).  The d0/d1
    histograms and means are integer tallies weighted by row count: every
    sum is exact below 2**53, so they equal the per-row computation's.  Two
    statistics follow the rows' order and are expanded per row, one at a
    time: the energies, whose mean's bytes follow numpy's pairwise summation
    (8 B a row, the one per-row array held at once), and d0 as int64 for the
    batch means.  With a float copy of each series per row as well, a
    thin-1 run at n = 50 and 4e6 rows peaked at 205 MB RSS, against 81 MB
    tallied this way (2-core x86-64 host, Python 3.11).
    """
    counts = np.frombuffer(rows, np.int64)
    n = int(counts.sum())

    def tally(column) -> tuple[dict[str, int], float]:
        weighted = np.bincount(np.frombuffer(column, np.int64), weights=counts).tolist()
        histogram = {k: int(c) for k, c in enumerate(weighted) if c}
        total = sum(k * c for k, c in histogram.items())
        return {str(k): c for k, c in histogram.items()}, total / n

    d0_histogram, mean_d0 = tally(d0)
    d1_histogram, mean_d1 = tally(d1)
    energies = np.repeat(np.frombuffer(energy, np.float64), counts)
    with np.errstate(over="ignore", invalid="ignore"):
        mean_energy = np.mean(energies)
        if not np.isfinite(mean_energy):
            # The energies are finite but their sum is not (inf, or NaN
            # where partial sums overflowed both ways).  Summing energy / n
            # keeps every partial sum within the largest |energy|; the clip
            # takes back rounding past the extremes.
            mean_energy = np.sum(energies / n)
            mean_energy = np.clip(mean_energy, energies.min(), energies.max())
    del energies
    return {
        "mean_energy": float(mean_energy),
        "mean_d0": mean_d0,
        "mean_d1": mean_d1,
        "se_d0_batch_means": (
            batch_means_stderr(np.repeat(np.frombuffer(d0, np.int64), counts))
            if n >= 4 else None
        ),
        "d0_histogram": d0_histogram,
        "d1_histogram": d1_histogram,
    }


def _sample_chain(
    params: EnergyParams,
    args,
    chain_id: int,
    out_file: Path | None,
) -> dict:
    """Run one chain, stream its samples to a file, and return summary stats."""
    from array import array  # here, so the oracle's commands do not load it

    m = args.n - 1
    cfg = ChainConfig(m=m, params=params, seed=args.seed, chain_id=chain_id)
    track = m <= _SUMMARY_EXACT_CAP

    # The summary's series, one entry per held word (per ``Sample``): its
    # energy, d0 and d1, and the rows it wrote.  Typed columns cost 32 B a
    # held word, where a tuple and its boxed fields cost over 100.
    energy, d0, d1, rows = array("d"), array("q"), array("q"), array("q")
    jsonl = args.format == "jsonl"
    # A row is ``head``, its step, and ``tail``, its sample's fields filled
    # into ``template``; words need no quoting or escaping, and energies are
    # finite (``_check_energy_range``), so their repr is their JSON text.
    if jsonl:
        head, template = '{"step":', ',"path":"%s","energy":%r,"d0":%d,"d1":%d,"r":%d}\n'
    else:
        head, template = "", ",%s,%r,%d,%d,%d\n"

    def emit(s: Sample) -> None:
        p = s.degrees
        energy.append(s.energy)
        d0.append(p.d0)
        d1.append(p.d1)
        rows.append(len(s.steps))
        tail = template % (s.path.word, s.energy, p.d0, p.d1, p.r)
        # ``run`` never emits a sample with no steps.
        write(head + (tail + head).join(map(str, s.steps)) + tail)

    with _output(out_file) as sink:
        write = sink.write
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

    # ``run`` always emits the burn-in row, so there is at least one word.
    summary = {"chain_id": chain_id, "emitted": result.emitted,
               **_row_statistics(energy, d0, d1, rows)}
    if track and result.occupancy:
        from .law import StateIndex, empirical_distribution, gibbs_distribution, tv_distance

        index = StateIndex.build(m)
        emp = empirical_distribution(result.occupancy, index)
        pi, _ = gibbs_distribution(index, params)
        summary["tv_vs_exact"] = tv_distance(emp, pi)
        if params.alpha == 0.0 and params.beta == 0.0:
            summary["tv_vs_uniform"] = tv_distance(emp, np.full(len(index), 1.0 / len(index)))
    return summary


def cmd_sample(args, out: Path | None) -> tuple[int, dict]:
    params = _energy_from_args(args)
    if args.n < 2:
        raise ConfigInvalidError(f"--n must be at least 2, got {args.n}")
    _check_energy_range(params, args.n - 1)
    if args.chains < 1:
        raise ConfigInvalidError("--chains must be positive")
    # Before any output is opened: a rejected run leaves no file behind.
    check_schedule(args.steps, args.burn_in, args.thin)
    if out is None and args.chains > 1:
        raise _UsageError("--chains > 1 requires --out")

    if args.chains == 1:
        files = [out]
        summaries = [_sample_chain(params, args, 0, out)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        ext = "csv" if args.format == "csv" else "jsonl"
        files = [out.with_name(f"{out.stem}.chain{k}.{ext}") for k in range(args.chains)]
        # A chain removes only the directories it made, and the first to clean
        # up can find another's part file there: the parent removes the ones
        # missing at the start, where empty, once every worker has ended.
        made = [d for d in out.parents if not d.exists()]
        try:
            with ProcessPoolExecutor(max_workers=min(args.chains, os.cpu_count() or 1)) as pool:
                futures = [
                    pool.submit(_sample_chain, params, args, k, files[k])
                    for k in range(args.chains)
                ]
                # Installed once the workers are started: one that inherited
                # it would keep ``_output`` from installing its own.  A SIGTERM
                # that raised here instead would leave the pool's exit waiting
                # for the workers' full runs.
                with _on_sigterm(lambda: _end_workers(made)):
                    summaries = [f.result() for f in futures]
        except BaseException:
            _remove_empty(made)  # the pool's exit has joined the workers
            raise

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
    if out is None:
        _stream("stderr").write(json.dumps(summary, indent=2) + "\n")
        return EXIT_OK, {}
    _write_json(summary, out.with_name(out.name + ".summary.json"))
    return EXIT_OK, {"seed": args.seed, "params": asdict(params), "outputs": [str(f) for f in files]}


# --------------------------------------------------------------------------
# convert


def cmd_convert(args, out: Path | None) -> tuple[int, dict]:
    failures = 0
    with ExitStack() as stack:
        source = _stream("stdin") if args.infile == "-" else stack.enter_context(open(args.infile))
        sink = stack.enter_context(_output(out))
        for lineno, raw in enumerate(source, start=1):
            line = raw.rstrip("\n")
            try:
                if args.to == "trees":
                    tree = decode(TwoMotzkinPath(line))
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
                _say(f"{args.infile}:{lineno}: {exc}\n")
    return EXIT_VALIDATION if failures else EXIT_OK, {"failures": failures}


# --------------------------------------------------------------------------
# exact


def cmd_exact(args, out: Path | None) -> tuple[int, dict]:
    from .exact import (
        StateIndex,
        build_transition_model,
        gibbs_distribution,
        reversal_gap,
        tv_decay_curve,
    )

    params = _energy_from_args(args)
    _check_energy_range(params, args.m)
    if args.what == "tv-curve" and args.start != "all-H":
        # A start given by --from is checked before the kernel is built.
        start = TwoMotzkinPath(args.start)
        if len(start) != args.m:
            raise ConfigInvalidError(
                f"--from path has length {len(start)}, expected m={args.m}"
            )
    if args.what == "tv-curve":
        model = build_transition_model(args.m, params)
        index, log_z = model.index, model.log_z
    else:
        index = StateIndex.build(args.m)
        pi, log_z = gibbs_distribution(index, params)
    payload: dict = {
        "m": args.m,
        "alpha": params.alpha,
        "beta": params.beta,
        "state_order_hash": index.order_hash(),
        "log_z": log_z,
    }
    if args.what == "pi":
        payload["pi"] = pi.tolist()
    elif args.what == "gap":
        report = reversal_gap(index, pi, params)
        payload.update(
            lambda1=report.lambda1,
            gap=report.gap,
            relaxation_time=report.relaxation_time,
            method="lanczos",
            residual=report.residual,
            iterations=report.iterations,
        )
    else:  # tv-curve
        if args.start == "all-H":
            start = TwoMotzkinPath("H" * args.m)
        curve = tv_decay_curve(model, start, args.horizon)
        payload.update(start=start.word, curve=[[t, v] for t, v in curve])
    _write_json(payload, out)
    return EXIT_OK, {"what": args.what}


# --------------------------------------------------------------------------
# decompose


def cmd_decompose(args, out: Path | None) -> tuple[int, dict]:
    from .decomposition import decomposition_report

    params = _energy_from_args(args)
    _check_energy_range(params, args.m)
    report = decomposition_report(args.m, params, level=args.level)
    _write_json(report, out)
    return EXIT_OK, {"level": args.level}


# --------------------------------------------------------------------------
# replay


def cmd_replay(args, out: Path | None) -> tuple[int, dict]:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigInvalidError(f"{args.manifest} is not JSON: {exc}") from None
    recorded = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(recorded, list) and recorded and all(isinstance(a, str) for a in recorded)):
        raise ConfigInvalidError(f"{args.manifest} has no recorded argv")
    if recorded[0] == "replay":  # no command records one, and it could replay itself
        raise ConfigInvalidError(f"{args.manifest} records a replay, not a command")
    return main(recorded), {}


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
    started = datetime.now(timezone.utc).isoformat()
    try:
        out = getattr(args, "out", None)  # replay takes no --out
        if out is not None and (os.path.basename(out) in ("", ".", "..") or os.path.isdir(out)):
            raise ConfigInvalidError(f"--out {out!r} names no file")  # '', '/', 'sub/', a directory
        out = None if out is None else Path(out)
        code, extra = args.func(args, out)
        if out is not None:
            manifest = {
                "subcommand": args.command,
                "argv": argv,
                "version": __version__,
                "started_at": started,
                "finished_at": datetime.now(timezone.utc).isoformat(),
                **extra,
            }
            _write_json(manifest, out.with_name(out.name + ".manifest.json"))
        return code
    except _UsageError as exc:
        _say(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (CapExceededError, MemoryError) as exc:  # a cap is also a ValueError
        reason = str(exc) or "out of memory"
        _say(f"capacity error: {reason}; lower --m/--n or raise the cap in code\n")
        return EXIT_CAPACITY
    except TreeGibbsError as exc:
        # The error's builtin base says whose fault it is: bad input, or a
        # check of the program's own work.
        if isinstance(exc, (ValueError, KeyError)):
            prefix, code = "validation error", EXIT_VALIDATION
        elif isinstance(exc, RuntimeError):
            prefix, code = "internal check failed", EXIT_INTERNAL
        else:
            prefix, code = "error", EXIT_INTERNAL
        _say(f"{prefix}: {exc}\n")
        return code
    except OSError as exc:
        _say(f"i/o error: {exc}\n")
        return EXIT_VALIDATION
