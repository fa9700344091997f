"""End-to-end CLI tests: flags, exit codes, file outputs, determinism."""

import argparse
import io
import json
import os
import signal
import subprocess
import sys
import time
from array import array
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treegibbs.errors as errors
from treegibbs import (
    EnergyParams,
    __version__,
    batch_means_stderr,
    iter_paths,
    resolve_params,
)
from treegibbs.cli import _parse_count, _row_statistics, _sample_chain, build_parser

from conftest import cached_model, dense_lambda1, to_dense

CLI = [sys.executable, "-m", "treegibbs"]

ERROR_CLASSES = sorted(
    name
    for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.TreeGibbsError)
)
# The exit code and stderr prefix of each error class, recorded when the CLI
# still listed the classes by name; a new class needs a row here.
ERROR_EXITS = {
    "BalanceViolationError": (5, "internal check failed: "),
    "CapExceededError": (4, "capacity error: "),
    "ConfigInvalidError": (3, "validation error: "),
    "EmptyBlockError": (3, "validation error: "),
    "EmptyTreeError": (3, "validation error: "),
    "InternalInvariantViolationError": (5, "internal check failed: "),
    "InvalidSymbolError": (3, "validation error: "),
    "LengthMismatchError": (3, "validation error: "),
    "MassUnderflowError": (3, "validation error: "),
    "NegativePrefixError": (3, "validation error: "),
    "NoConvergenceError": (5, "internal check failed: "),
    "NotAPartitionError": (3, "validation error: "),
    "PathValidationError": (3, "validation error: "),
    "TreeGibbsError": (5, "error: "),
    "UnbalancedError": (3, "validation error: "),
    "UnbalancedParensError": (3, "validation error: "),
    "UnknownParameterSetError": (3, "validation error: "),
}
# Constructor arguments of the classes that take more than a message.
ERROR_ARGS = {
    **dict.fromkeys(
        ["PathValidationError", "InvalidSymbolError", "UnbalancedError", "NegativePrefixError",
         "UnbalancedParensError"],
        ("boom", 0),
    ),
    "CapExceededError": ("m", 20, 10),
    "NoConvergenceError": (7, 0.5),
}


def cli(*args, input_text=None):
    return subprocess.run(
        CLI + [str(a) for a in args],
        input=input_text,
        capture_output=True,
        text=True,
        timeout=300,
    )


def terminate_once_writing(tmp_path, *flags):
    """Start ``sample`` with ``flags``, send SIGTERM to that process alone
    once a part file exists under ``tmp_path``, and return its exit status."""
    proc = subprocess.Popen(
        CLI + ["sample", *map(str, flags)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not any(tmp_path.rglob("*.part")):
            assert proc.poll() is None, "the run ended before it opened a part file"
            assert time.monotonic() < deadline, "no part file after 60 s"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        return proc.wait(timeout=60)
    finally:
        # A failed run must not leave its workers running: they share the
        # new session's process group.
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def assert_numbers_agree(a, b, key=None):
    """Two reports have the same keys, and every number agrees to 1e-12
    (``relaxation_time`` relatively); everything else is equal."""
    if isinstance(a, dict):
        assert list(a) == list(b), key
        for k in a:
            assert_numbers_agree(a[k], b[k], k)
    elif isinstance(a, list):
        assert len(a) == len(b), key
        for x, y in zip(a, b):
            assert_numbers_agree(x, y, key)
    elif isinstance(a, float) or isinstance(b, float):
        scale = abs(a) if key == "relaxation_time" else 1.0
        assert abs(a - b) <= 1e-12 * scale, (key, a, b)
    else:
        assert a == b, key


class TestSample:
    def test_zero_steps_emit_initial_state(self, tmp_path):
        out = tmp_path / "s.csv"
        res = cli("sample", "--n", 5, "--params", "turner04-cg", "--steps", 0, "--out", out)
        assert res.returncode == 0, res.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "step,path,energy,d0,d1,r"
        assert lines[1].startswith("0,HHHH,")
        assert len(lines) == 2

    def test_csv_fields_consistent(self, tmp_path):
        out = tmp_path / "s.csv"
        res = cli("sample", "--n", 4, "--alpha", "-1", "--beta", "0.5",
                  "--steps", "500", "--seed", 3, "--out", out)
        assert res.returncode == 0, res.stderr
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 501
        for row in rows[:50]:
            step, path, energy, d0, d1, r = row.split(",")
            assert len(path) == 3
            counts = {c: path.count(c) for c in "UHID"}
            assert int(d0) == counts["U"] + counts["H"] + 1
            assert int(d1) == counts["I"]
            assert float(energy) == pytest.approx(
                -1.0 * int(d0) + 0.5 * int(d1), abs=1e-12
            )

    def test_determinism_and_replay(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["sample", "--n", 6, "--alpha", "0", "--beta", "0",
                 "--steps", "2e3", "--seed", 42]
        assert cli(*flags, "--out", a).returncode == 0
        assert cli(*flags, "--out", b).returncode == 0
        assert a.read_bytes() == b.read_bytes()
        # Manifest replay rewrites the same bytes.
        manifest = tmp_path / "a.csv.manifest.json"
        assert manifest.exists()
        assert cli("replay", manifest).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "command",
        [
            ("exact", "pi", "--m", 3),
            ("exact", "gap", "--m", 4),
            ("exact", "tv-curve", "--m", 4, "--from", "UDHH", "--horizon", 50),
            ("decompose", "report", "--m", 4, "--level", "kqs"),
            ("convert", "--to", "trees", "--degrees"),
        ],
        ids=["exact-pi", "exact-gap", "exact-tv-curve", "decompose-kqs", "convert"],
    )
    def test_replay_reproduces_every_command(self, tmp_path, command):
        if command[0] == "convert":
            words = tmp_path / "words.txt"
            words.write_text("UD\nUHID\nHH\n")
            flags = [*command, "--in", words]
        else:
            flags = [*command, "--params", "turner04-cg"]
        out = tmp_path / "out.txt"
        res = cli(*flags, "--out", out)
        assert res.returncode == 0, res.stderr
        recorded = out.read_bytes()
        out.unlink()
        res = cli("replay", tmp_path / "out.txt.manifest.json")
        assert res.returncode == 0, res.stderr
        assert out.read_bytes() == recorded

    def test_summary_and_manifest(self, tmp_path):
        out = tmp_path / "s.csv"
        res = cli("sample", "--n", 4, "--alpha", 0, "--beta", 0,
                  "--steps", "3000", "--seed", 1, "--out", out)
        assert res.returncode == 0
        summary = json.loads((tmp_path / "s.csv.summary.json").read_text())
        assert summary["m"] == 3
        chain0 = summary["per_chain"][0]
        assert chain0["emitted"] == 3001
        assert 0.0 <= chain0["tv_vs_uniform"] <= 1.0
        assert 0.0 <= chain0["tv_vs_exact"] <= 1.0
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "sample"
        assert manifest["params"]["alpha"] == 0.0

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "s.jsonl"
        res = cli("sample", "--n", 3, "--alpha", 1, "--beta", 1,
                  "--steps", 50, "--format", "jsonl", "--out", out)
        assert res.returncode == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 51
        assert set(records[0]) == {"step", "path", "energy", "d0", "d1", "r"}

    def test_jsonl_energy_text_is_the_csv_column(self, tmp_path):
        # At a large finite alpha the energies print in exponent form; each
        # JSONL energy is the same text as the CSV energy of its step.
        flags = ("--n", 10, "--alpha", "1e300", "--beta", 0, "--steps", 200, "--seed", 4)
        for name, fmt in (("s.csv", "csv"), ("s.jsonl", "jsonl")):
            assert cli("sample", *flags, "--format", fmt, "--out", tmp_path / name).returncode == 0
        rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
        records = (tmp_path / "s.jsonl").read_text().splitlines()
        assert len(records) == len(rows) == 201
        csv_energies = [row.split(",")[2] for row in rows]
        jsonl_energies = [line.split('"energy":')[1].split(",")[0] for line in records]
        assert jsonl_energies == csv_energies
        assert all("e+30" in e for e in csv_energies)
        assert [json.loads(line)["energy"] for line in records] == list(map(float, csv_energies))

    def test_multiple_chains(self, tmp_path):
        out = tmp_path / "mc.csv"
        res = cli("sample", "--n", 4, "--alpha", 0, "--beta", 0, "--steps", 200,
                  "--seed", 5, "--chains", 2, "--out", out)
        assert res.returncode == 0, res.stderr
        f0 = tmp_path / "mc.chain0.csv"
        f1 = tmp_path / "mc.chain1.csv"
        assert f0.exists() and f1.exists()
        assert f0.read_bytes() != f1.read_bytes()
        # Re-running reproduces both chains byte for byte.
        res = cli("sample", "--n", 4, "--alpha", 0, "--beta", 0, "--steps", 200,
                  "--seed", 5, "--chains", 2, "--out", tmp_path / "mc2.csv")
        assert (tmp_path / "mc2.chain0.csv").read_bytes() == f0.read_bytes()

    # Python 3.12 warns on a fork while numpy's BLAS threads run.
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "earlier-file"])
    def test_failed_chain_leaves_nothing_the_run_made(self, tmp_path, monkeypatch, capsys, earlier):
        # Chain 1 raises and chains 0 and 2 finish: the run is all or
        # nothing, so their files go too, then the directory made for them.
        # A file an earlier run left for the failed chain stays.
        import concurrent.futures
        import multiprocessing
        from functools import partial

        import treegibbs.cli as cli_module

        real_run = cli_module.run

        def run(cfg, *args, **kwargs):
            if cfg.chain_id == 1:
                raise OSError("chain 1 fails")
            return real_run(cfg, *args, **kwargs)

        # Forked workers inherit the patched ``run``.
        monkeypatch.setattr(cli_module, "run", run)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", partial(
            concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
        out = tmp_path / "runs" / "s.csv"
        if earlier:
            out.parent.mkdir()
            (out.parent / "s.chain1.csv").write_text("an earlier run\n")
        argv = ["sample", "--n", "8", "--params", "turner04-cg", "--steps", "2000",
                "--seed", "3", "--chains", "3", "--out", str(out)]
        assert cli_module.main(argv) == 3
        assert "chain 1 fails" in capsys.readouterr().err
        if earlier:
            assert [p.name for p in out.parent.iterdir()] == ["s.chain1.csv"]
            assert (out.parent / "s.chain1.csv").read_text() == "an earlier run\n"
        else:
            assert list(tmp_path.iterdir()) == []

    def test_flag_validation(self, tmp_path):
        assert cli("sample", "--n", 5, "--steps", 10).returncode == 2  # no energy
        assert cli("sample", "--n", 5, "--alpha", 1, "--beta", 0,
                   "--params", "turner04-cg", "--steps", 10).returncode == 2  # both
        assert cli("sample", "--n", 1, "--alpha", 0, "--beta", 0).returncode == 3  # n < 2
        assert cli("sample", "--n", 5, "--alpha", 0, "--beta", 0,
                   "--steps", "ten").returncode == 2  # bad count literal
        assert cli("sample", "--n", 5, "--params", "nope").returncode == 3

    @pytest.mark.parametrize("chains", [1, 2])
    @pytest.mark.parametrize(
        "schedule",
        [("--steps", 100, "--thin", 0), ("--steps", 100, "--burn-in", 200)],
        ids=["thin-0", "burn-in-past-steps"],
    )
    def test_rejected_schedule_leaves_no_file(self, tmp_path, schedule, chains):
        res = cli("sample", "--n", 8, "--params", "turner04-cg", *schedule,
                  "--chains", chains, "--out", tmp_path / "a.csv")
        assert res.returncode == 3, res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command,code",
        [
            (("exact", "tv-curve", "--m", 4, "--from", "UD", "--params", "turner04-cg"), 3),
            (("exact", "gap", "--m", 13, "--params", "turner04-cg"), 4),
            (("decompose", "report", "--m", -2, "--params", "turner04-cg"), 3),
            (("convert", "--to", "trees"), 3),
            (("sample", "--n", 5, "--params", "turner04-cg", "--chains", 0), 3),
        ],
        ids=["tv-curve-start", "gap-cap", "decompose-negative-m", "convert-missing-input",
             "sample-no-chains"],
    )
    def test_rejected_command_leaves_nothing(self, tmp_path, command, code):
        if command[0] == "convert":
            command = (*command, "--in", tmp_path / "missing.txt")
        res = cli(*command, "--out", tmp_path / "a" / "b" / "x.out")
        assert res.returncode == code, res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["", ".", "/", "sub/"])
    @pytest.mark.parametrize(
        "command",
        [
            ("sample", "--n", 5, "--params", "turner04-cg", "--steps", 10),
            ("sample", "--n", 5, "--params", "turner04-cg", "--steps", 10, "--chains", 2),
            ("exact", "gap", "--m", 3, "--params", "turner04-cg"),
        ],
        ids=["sample", "sample-chains", "exact-gap"],
    )
    def test_out_that_names_no_file_is_rejected(self, tmp_path, monkeypatch, capsys, command, out):
        # Rejected before any work, as one validation error; nothing is
        # written, not even a file named after the directory.
        from treegibbs.cli import main

        monkeypatch.chdir(tmp_path)
        assert main([*map(str, command), "--out", out]) == 3
        assert capsys.readouterr() == ("", f"validation error: --out {out!r} names no file\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [
            ("sample", "--n", 5, "--params", "turner04-cg", "--steps", 10),
            ("sample", "--n", 5, "--params", "turner04-cg", "--steps", 10, "--chains", 2),
            ("exact", "gap", "--m", 3, "--params", "turner04-cg"),
        ],
        ids=["sample", "sample-chains", "exact-gap"],
    )
    def test_out_that_names_a_directory_is_rejected_before_any_work(
        self, tmp_path, monkeypatch, capsys, command
    ):
        import treegibbs.cli as cli_module
        import treegibbs.exact as exact_module

        def reached(*args, **kwargs):
            raise AssertionError("the command's work started")

        monkeypatch.setattr(cli_module, "run", reached)
        monkeypatch.setattr(exact_module, "reversal_gap", reached)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        assert cli_module.main([*map(str, command), "--out", "adir"]) == 3
        assert capsys.readouterr() == ("", "validation error: --out 'adir' names no file\n")
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]
        assert list((tmp_path / "adir").iterdir()) == []

    def test_interrupted_run_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        import treegibbs.cli as cli_module

        def interrupted_run(cfg, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "run", interrupted_run)
        with pytest.raises(KeyboardInterrupt):
            cli_module.main(["sample", "--n", "6", "--params", "turner04-cg",
                             "--out", str(tmp_path / "a" / "b" / "s.csv")])
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_run_leaves_no_file(self, tmp_path, monkeypatch):
        # Interrupted after the first sample is written: no data file, part
        # file, summary or manifest is left behind.
        import treegibbs.cli as cli_module

        run = cli_module.run

        def interrupted_run(cfg, **kwargs):
            collect = kwargs["collector"]

            def collect_then_stop(sample):
                collect(sample)
                raise KeyboardInterrupt

            return run(cfg, **{**kwargs, "collector": collect_then_stop})

        argv = ["sample", "--n", "6", "--params", "turner04-cg", "--steps", "100",
                "--out", str(tmp_path / "s.csv")]
        monkeypatch.setattr(cli_module, "run", interrupted_run)
        with pytest.raises(KeyboardInterrupt):
            cli_module.main(argv)
        assert list(tmp_path.iterdir()) == []
        # Uninterrupted, the run leaves its three files and no part file.
        monkeypatch.setattr(cli_module, "run", run)
        assert cli_module.main(argv) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "s.csv", "s.csv.manifest.json", "s.csv.summary.json"]

    @pytest.mark.parametrize(
        "args",
        [
            ("sample", "--n", 5, "--params", "turner04-cg", "--steps", "inf"),
            ("sample", "--n", 5, "--params", "turner04-cg", "--steps", "1e400"),
            ("exact", "tv-curve", "--m", 3, "--params", "turner04-cg", "--horizon", "inf"),
        ],
        ids=["steps-inf", "steps-1e400", "horizon-inf"],
    )
    def test_infinite_count_is_usage_error(self, args):
        res = cli(*args)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "text,count",
        [("9007199254740993", 2**53 + 1), ("1e6", 10**6), ("2.0", 2), ("0", 0),
         ("1_000", 1000), ("-0", 0)],
    )
    def test_count_is_read_exactly(self, text, count):
        # An integer literal past 2**53 is not rounded through a float.  The
        # parse alone: a run this long would never finish its burn-in.
        argv = ["sample", "--n", "5", "--steps", text, "--burn-in", text]
        args = build_parser().parse_args(argv)
        assert (args.steps, args.burn_in) == (count, count)
        assert type(args.steps) is int

    @pytest.mark.parametrize("text", ["-1", "1.5", "-1e3", "abc", "nan"])
    def test_bad_count_is_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_count(text)

    def test_sigterm_leaves_no_output_or_manifest(self, tmp_path):
        # SIGTERM removes the part file and the directory made for it, then
        # ends the process by SIGTERM; the data file, summary and manifest
        # never appear.
        status = terminate_once_writing(
            tmp_path, "--n", 50, "--params", "turner04-cg", "--steps", "1e9",
            "--out", tmp_path / "run" / "s.csv")
        assert status == -signal.SIGTERM
        assert list(tmp_path.iterdir()) == []

    def test_sigterm_to_the_parent_ends_every_chain(self, tmp_path):
        # Sent to the parent alone, SIGTERM ends the workers, which clean up
        # as one chain does, and then the parent.
        status = terminate_once_writing(
            tmp_path, "--n", 50, "--params", "turner04-cg", "--steps", "1e9",
            "--thin", 1000, "--chains", 2, "--out", tmp_path / "run" / "s.csv")
        assert status == -signal.SIGTERM
        assert list(tmp_path.iterdir()) == []

    # Pinned SHA-256 of (data file, summary JSON) for fixed runs: a change to
    # the move loop, its RNG use or the row format that alters one byte fails
    # here.  Every run takes one ``advance`` call after burn-in; the m > 8
    # runs ask it for emission times only (one sample covers the rows of a
    # held word, at thin 1 and at thin 200 alike), the m <= 8 runs for every
    # time, to count visits (the last at thin 1).
    GOLDEN = [
        (["--n", 12, "--params", "turner04-cg", "--steps", "2e4", "--burn-in", 100,
          "--thin", 3, "--seed", 7], "csv",
         "28532f58d7c8ab6939f81d40275d18d2462342bccb1ac35574cd9661776e2c19",
         "38cd8d0d535a4d2e7e9d405e129b6d68ecf36566f4f34b6ff51329313d0818b1"),
        (["--n", 12, "--params", "turner04-cg", "--steps", "2e4", "--burn-in", 100,
          "--thin", 3, "--seed", 7], "jsonl",
         "00350bcb89d4984bd4d676e721684edff955a5134b88897e505a7d423505c8b6",
         "38cd8d0d535a4d2e7e9d405e129b6d68ecf36566f4f34b6ff51329313d0818b1"),
        (["--n", 7, "--alpha", 0, "--beta", 0, "--steps", "2e4", "--seed", 7], "csv",
         "569df8e22b16b83e849af4187cd32b6c5c90d05014dde7e6fc806ff0db4ad3b8",
         "38403298a9b09522b517979ace7fb33c8adf5faccef26266bffbec941e6ad113"),
        (["--n", 8, "--params", "turner04-cg", "--steps", "5e4", "--thin", 1], "csv",
         "ff4b542aedbfd16f35259ac8a1edfef3aa5130452bdee5a96642c1c9f74aac93",
         "bd5754608601269d4043f1cc863ec461841a323dd00c5c8bce54622e47f2cf21"),
        (["--n", 50, "--params", "turner04-cg", "--steps", "5e4", "--burn-in", "1e4",
          "--thin", 1], "csv",
         "3369551ca3d1a992f7fa8e9c1758e897f137fad7a19e323e77bacae2592840ad",
         "e7665b0c2793a1f9e364e61dc531d74e0ad36855ec00c1d918545a83067b4f41"),
        (["--n", 60, "--params", "turner04-cg", "--steps", "2e5", "--burn-in", 100,
          "--thin", 200], "jsonl",
         "6d5876cec4e07bb3a4b8518d1cf69e7ad1e9cf77aca2e215df85b51a1a6e7578",
         "3a27fa7659285d0f0e15b133c7251381170b9fd8bb2f1f6236cac87aa8c0d690"),
        # n = 1000: the ``sample-long`` shape (one row per sample), and thin 1,
        # whose 136 held words fill two batches of fields and part of a third.
        (["--n", 1000, "--params", "turner04-cg", "--steps", "3e5", "--thin", 1000,
          "--seed", 5], "jsonl",
         "3f602013d75413287e437d7a1a7a249200cc0f90a495b438c38edd37d6621078",
         "04bba3531db18fd9e9d1844d137baf82ca21bbe98b468577c3e3c17952fe51f2"),
        (["--n", 1000, "--params", "turner04-cg", "--steps", 3000, "--burn-in", 1000,
          "--thin", 1, "--seed", 5], "csv",
         "8197b81b2655df9617fc429b17cf70300d5d064ce21cc48b5cb973433b19ff84",
         "06d38edf53c9ff1c72ff8c564bbd62fe098557400d02bc88273be0a2b9ed223c"),
    ]

    @pytest.mark.parametrize("flags,fmt,data_sha,summary_sha", GOLDEN)
    def test_golden_bytes(self, tmp_path, flags, fmt, data_sha, summary_sha):
        import hashlib

        out = tmp_path / f"g.{fmt}"
        res = cli("sample", *flags, "--format", fmt, "--out", out)
        assert res.returncode == 0, res.stderr
        summary = tmp_path / f"g.{fmt}.summary.json"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == data_sha
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == summary_sha

    def test_params_file(self, tmp_path):
        pf = tmp_path / "p.txt"
        pf.write_text("alpha=0.0\nbeta=0.0\n")
        res = cli("sample", "--n", 3, "--params", pf, "--steps", 10,
                  "--out", tmp_path / "s.csv")
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize(
        "coefficients",
        [("--alpha", "nan", "--beta", 0), ("--alpha", "inf", "--beta", 0),
         ("--alpha", 0, "--beta=-inf"), ("--alpha", "1e400", "--beta", 0),
         ("params", "alpha=nan\nbeta=0\n"),
         ("params", "a=9.3\nb=0\nc=-0.9\nh=-12.9\nf=inf\ni=2.3\ng=-1.1\n")],
        ids=["alpha-nan", "alpha-inf", "beta-minus-inf", "alpha-overflow", "file-nan",
             "nntm-inf"],
    )
    def test_non_finite_coefficients_are_validation_errors(self, tmp_path, coefficients):
        if coefficients[0] == "params":
            pf = tmp_path / "p.txt"
            pf.write_text(coefficients[1])
            coefficients = ("--params", pf)
        out = tmp_path / "s.csv"
        res = cli("sample", "--n", 3, *coefficients, "--steps", 10, "--out", out)
        assert res.returncode == 3, res.stderr
        assert "must be finite" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_mean_energy_stays_finite_when_the_sum_overflows(self, tmp_path):
        # Every energy is finite here, but their sum is not.
        out = tmp_path / "x.jsonl"
        res = cli("sample", "--n", 30, "--alpha", "1e306", "--beta=-1e306", "--steps", 10,
                  "--format", "jsonl", "--out", out)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""

        def reject(constant):
            raise ValueError(f"{constant} is not standard JSON")

        text = (tmp_path / "x.jsonl.summary.json").read_text()
        mean = json.loads(text, parse_constant=reject)["per_chain"][0]["mean_energy"]
        energies = [json.loads(line, parse_constant=reject)["energy"]
                    for line in out.read_text().splitlines()]
        assert min(energies) <= mean <= max(energies)


def expanded_statistics(fields, rows):
    """The summary statistics computed over every row, each held word's
    (energy, d0, d1) repeated ``rows`` times: the reference for
    ``_row_statistics``, with d0 copied to float for the batch means."""
    energies, d0s, d1s = (np.repeat(column, rows) for column in zip(*fields))

    def histogram(values):
        keys, counts = np.unique(values, return_counts=True)
        return {str(k): int(c) for k, c in zip(keys.tolist(), counts.tolist())}

    with np.errstate(over="ignore", invalid="ignore"):
        mean_energy = np.mean(energies)
        if not np.isfinite(mean_energy):
            mean_energy = np.sum(energies / len(energies))
            mean_energy = np.clip(mean_energy, energies.min(), energies.max())
    return {
        "mean_energy": float(mean_energy),
        "mean_d0": float(np.mean(d0s)),
        "mean_d1": float(np.mean(d1s)),
        "se_d0_batch_means": batch_means_stderr(d0s.astype(float)) if d0s.size >= 4 else None,
        "d0_histogram": histogram(d0s),
        "d1_histogram": histogram(d1s),
    }


HELD_WORD = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False),  # energy
    st.integers(1, 60),  # d0
    st.integers(0, 60),  # d1
    st.integers(1, 40),  # rows
)


class TestSampleSummary:
    @settings(max_examples=200, deadline=None)
    @given(held=st.lists(HELD_WORD, min_size=1, max_size=80), constant_d0=st.booleans())
    @example(held=[(-2.5, 3, 1, 1)], constant_d0=False)  # one row
    @example(held=[(-2.5, 3, 1, 2), (0.5, 2, 0, 1)], constant_d0=False)  # three rows
    @example(held=[(1.5, 3, 1, 2), (0.5, 2, 0, 2)], constant_d0=False)  # four rows
    @example(held=[(1e308, 2, 0, 3), (-1e308, 3, 1, 2), (1e308, 2, 1, 4)], constant_d0=False)
    @example(held=[(1e308, 2, 0, 60), (-1e308, 3, 1, 70)], constant_d0=True)
    def test_held_word_tallies_equal_the_per_row_statistics(self, held, constant_d0):
        if constant_d0:
            held = [(e, held[0][1], d1, n) for e, _, d1, n in held]
        energy, d0, d1, rows = zip(*held)
        got = _row_statistics(array("d", energy), array("q", d0), array("q", d1), array("q", rows))
        want = expanded_statistics([h[:3] for h in held], rows)
        assert json.dumps(got) == json.dumps(want)

    def test_traced_peak_per_emitted_row(self, tmp_path):
        # At m = 49 and thin 1 the chain holds about 0.09 words a row: the
        # summary's columns cost 32 B a held word, and its one per-row array
        # (the energies) 8 B a row, so the run peaks near 11 B a row.  A
        # summary that expands every series per row, and copies d0 to float
        # for the batch means, reads 43 B.
        import tracemalloc

        params = resolve_params("turner04-cg")

        def sample(steps, out):
            args = build_parser().parse_args(
                ["sample", "--n", "50", "--params", "turner04-cg", "--steps", str(steps),
                 "--seed", "3"])
            return _sample_chain(params, args, 0, out)

        sample(1000, tmp_path / "warm.csv")  # lazy imports stay out of the trace
        tracemalloc.start()
        try:
            summary = sample(200_000, tmp_path / "s.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary["emitted"] == 200_001
        assert peak / 200_001 <= 16


class TestConvert:
    def test_path_to_tree_examples(self):
        res = cli("convert", "--to", "trees", input_text="UD\n\n")
        assert res.returncode == 0
        assert res.stdout.splitlines() == ["(()())", "()"]

    def test_roundtrip_all_m5(self, tmp_path):
        words = "\n".join(p.word for p in iter_paths(5)) + "\n"
        infile = tmp_path / "paths.txt"
        infile.write_text(words)
        trees = tmp_path / "trees.txt"
        back = tmp_path / "back.txt"
        assert cli("convert", "--to", "trees", "--in", infile, "--out", trees).returncode == 0
        assert cli("convert", "--to", "paths", "--in", trees, "--out", back).returncode == 0
        assert back.read_text() == words

    def test_degrees_column(self):
        res = cli("convert", "--to", "trees", "--degrees", input_text="UD\n")
        assert res.stdout.splitlines() == ["(()())\t2\t0\t1"]

    def test_adjacency_json(self):
        res = cli("convert", "--to", "trees", "--adjacency", input_text="UD\n")
        adj = json.loads(res.stdout)
        assert adj == {"0": [1], "1": [2, 3], "2": [], "3": []}

    def test_bad_lines_reported_and_exit_3(self):
        res = cli("convert", "--to", "trees", input_text="UD\nDU\nHH\n")
        assert res.returncode == 3
        assert res.stdout.splitlines() == ["(()())", "()()()"]  # good lines converted
        assert "2:" in res.stderr  # line number of the failure

    def test_tree_side_errors(self):
        res = cli("convert", "--to", "paths", input_text="(()\n")
        assert res.returncode == 3

    def test_non_ascii_symbol_is_named(self, monkeypatch, capsys):
        from treegibbs.cli import main

        monkeypatch.setattr(sys, "stdin", io.StringIO("UD\nUé\n"))
        assert main(["convert", "--to", "trees"]) == 3
        out, err = capsys.readouterr()
        assert out == "(()())\n"
        assert err == "-:2: symbol 'é' not in U/H/I/D (index 1)\n"


class TestExact:
    def test_pi_uniform_m2(self):
        res = cli("exact", "pi", "--m", 2, "--alpha", 0, "--beta", 0)
        data = json.loads(res.stdout)
        assert data["pi"] == [0.2, 0.2, 0.2, 0.2, 0.2]
        assert data["log_z"] == pytest.approx(1.6094379124341003)
        assert len(data["state_order_hash"]) == 64

    def test_gap_range_and_methods(self):
        res = cli("exact", "gap", "--m", 4, "--alpha", 0, "--beta", 0)
        data = json.loads(res.stdout)
        assert 0.0 < data["gap"] <= 0.5
        assert data["method"] == "lanczos"
        model = cached_model(4, 0.0, 0.0)
        assert data["gap"] == pytest.approx(1.0 - dense_lambda1(model.P, model.pi), abs=1e-8)

    @pytest.mark.parametrize(
        "flags,params",
        [(("--alpha", "0", "--beta", "0"), EnergyParams(0.0, 0.0)),
         (("--alpha", "1", "--beta=-1"), EnergyParams(1.0, -1.0)),
         (("--params", "turner04-cg"), resolve_params("turner04-cg"))],
        ids=["0,0", "1,-1", "turner04-cg"],
    )
    def test_two_state_gap_is_closed_form(self, tmp_path, flags, params):
        # At m = 1 (H and I) the second eigenvalue of a 2 x 2 stochastic
        # matrix is its trace minus 1.
        from treegibbs import build_transition_model
        from treegibbs.cli import main

        out = tmp_path / "gap.json"
        assert main(["exact", "gap", "--m", "1", *flags, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        P = to_dense(build_transition_model(1, params).P)
        assert P.shape == (2, 2)
        assert abs(report["lambda1"] - (np.trace(P) - 1.0)) <= 1e-14
        assert report["method"] == "lanczos" and report["residual"] <= 1e-14

    def test_lanczos_no_convergence_exits_5(self, monkeypatch, capsys):
        import treegibbs.exact as exact
        from treegibbs.cli import main

        # m = 7 needs about 80 products; the cap stops the solve after 10.
        monkeypatch.setattr(exact, "LANCZOS_MAX_PRODUCTS", 10)
        assert main(["exact", "gap", "--m", "7", "--params", "turner04-cg"]) == 5
        assert "internal check failed" in capsys.readouterr().err

    def test_wrong_ritz_pair_exits_5(self, monkeypatch, capsys):
        import treegibbs.exact as exact
        from treegibbs.cli import main

        # A solve that hands back a pair off by 1e-6, as a Ritz residual
        # estimate that rounds to 0 can: its residual, computed afresh, is
        # far above any converged solve's.
        solve = exact.lanczos_top

        def off_pair(A, u, guess=None):
            lambda1, v, products = solve(A, u, guess)
            return lambda1 + 1e-6, v, products

        monkeypatch.setattr(exact, "lanczos_top", off_pair)
        assert main(["exact", "gap", "--m", "4", "--params", "turner04-cg"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("internal check failed: no convergence") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [("sample", "--n", 30, "--format", "jsonl", "--steps", 30),
         ("exact", "gap", "--m", 4)],
        ids=["sample", "exact-gap"],
    )
    def test_overflowing_energies_are_validation_errors(self, tmp_path, command):
        # Each coefficient is finite, but |alpha| (m + 1) + |beta| m is not.
        out = tmp_path / "out.json"
        res = cli(*command, "--alpha", "1e308", "--beta=-1e308", "--out", out)
        assert res.returncode == 3, res.stderr
        assert "validation error" in res.stderr and "overflow" in res.stderr
        assert "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("m,alpha,beta", [(3, 300, -300), (9, 100, -100)])
    def test_underflowing_mass_is_a_validation_error(self, m, alpha, beta):
        # Dense at m = 3, Lanczos at m = 9: both scale the kernel by 1/sqrt(pi).
        res = cli("exact", "gap", "--m", m, "--alpha", alpha, f"--beta={beta}")
        assert res.returncode == 3, res.stderr
        assert "underflows to 0" in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_tv_curve_nonincreasing(self):
        res = cli("exact", "tv-curve", "--m", 3, "--alpha", 0, "--beta", 0,
                  "--from", "HHH", "--horizon", 400)
        data = json.loads(res.stdout)
        values = [v for _, v in data["curve"]]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_cap_exceeded_exit_4(self):
        assert cli("exact", "pi", "--m", 13, "--alpha", 0, "--beta", 0).returncode == 4

    @pytest.mark.parametrize("command", ["pi", "gap", "tv-curve"])
    def test_negative_m_is_a_validation_error(self, command):
        res = cli("exact", command, "--m", -1, "--alpha", 0, "--beta", 0)
        assert res.returncode == 3, res.stderr
        assert "nonnegative" in res.stderr
        assert "Traceback" not in res.stderr

    def test_non_finite_coefficient_is_a_validation_error(self):
        res = cli("exact", "pi", "--m", 3, "--alpha", "nan", "--beta", 0)
        assert res.returncode == 3, res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize(
        "start,message",
        [("UD", "--from path has length 2, expected m=4"),
         ("UXHH", "symbol 'X' not in U/H/I/D (index 1)")],
        ids=["length", "symbol"],
    )
    def test_bad_start_is_rejected_before_the_build(self, start, message, monkeypatch, capsys):
        import treegibbs.exact as exact
        from treegibbs.cli import main

        def no_build(m, params):
            raise AssertionError("built a kernel for a start that is rejected")

        monkeypatch.setattr(exact, "build_transition_model", no_build)
        argv = ["exact", "tv-curve", "--m", "4", "--from", start, "--params", "turner04-cg"]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"validation error: {message}\n"

    def test_wrong_start_length(self):
        res = cli("exact", "tv-curve", "--m", 3, "--alpha", 0, "--beta", 0, "--from", "UD")
        assert res.returncode == 3

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli("exact", "gap", "--m", 3, "--alpha", 1, "--beta", -1, "--out", a)
        cli("exact", "gap", "--m", 3, "--alpha", 1, "--beta", -1, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_lanczos_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli("exact", "gap", "--m", 8, "--params", "turner04-cg", "--out", a).returncode == 0
        assert cli("exact", "gap", "--m", 8, "--params", "turner04-cg", "--out", b).returncode == 0
        assert json.loads(a.read_text())["method"] == "lanczos"
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "command",
        [("exact", "gap", "--m", 8), ("decompose", "report", "--m", 6, "--level", "kqs")],
        ids=["exact-gap", "decompose-kqs"],
    )
    def test_numbers_do_not_follow_the_blas_thread_count(self, command):
        # Threaded BLAS sums the eigensolver's products in another order, so
        # the bytes may differ across thread counts; the numbers may not.
        reports = []
        for threads in ("1", "2"):
            res = subprocess.run(
                CLI + [str(a) for a in command] + ["--params", "turner04-cg"],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=300,
            )
            assert res.returncode == 0, res.stderr
            reports.append(json.loads(res.stdout))
        assert_numbers_agree(*reports)


class TestDecompose:
    def test_negative_m_is_a_validation_error(self):
        res = cli("decompose", "report", "--m", -2, "--alpha", 0, "--beta", 0)
        assert res.returncode == 3, res.stderr
        assert "nonnegative" in res.stderr
        assert "Traceback" not in res.stderr

    def test_report_all_checks_pass(self, tmp_path):
        out = tmp_path / "d.json"
        res = cli("decompose", "report", "--m", 4, "--alpha", 1, "--beta", -1,
                  "--level", "kqs", "--out", out)
        assert res.returncode == 0, res.stderr
        rep = json.loads(out.read_text())
        assert rep["k_partition"]["bound_holds"]
        assert rep["k_partition"]["log_concave"]
        assert rep["kqs_partition"]["family_size_binomial_ok"]
        assert rep["kqs_partition"]["offdiag_rate_matches"]

    def test_underflowing_mass_is_a_validation_error(self, tmp_path):
        out = tmp_path / "d.json"
        res = cli("decompose", "report", "--m", 3, "--alpha", 300, "--beta=-300", "--out", out)
        assert res.returncode == 3, res.stderr
        assert "underflows to 0" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_invalid_level_usage_error(self):
        assert cli("decompose", "report", "--m", 4, "--alpha", 0, "--beta", 0,
                   "--level", "qsk").returncode == 2

    def test_turner_params(self):
        res = cli("decompose", "report", "--m", 3, "--params", "turner89-gc")
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["params"]["alpha"] == pytest.approx(-0.9, abs=1e-12)

    def test_out_of_memory_is_a_capacity_error(self, monkeypatch, capsys):
        import treegibbs.decomposition as decomposition
        from treegibbs.cli import main

        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(decomposition, "decomposition_report", out_of_memory)
        assert main(["decompose", "report", "--m", "10", "--alpha", "0", "--beta", "0"]) == 4
        err = capsys.readouterr().err
        assert "capacity error: out of memory" in err
        assert "lower --m" in err

    @pytest.mark.parametrize("name", ERROR_CLASSES)
    def test_each_error_class_keeps_its_exit(self, name, monkeypatch, capsys):
        import treegibbs.decomposition as decomposition
        from treegibbs.cli import main

        exc = getattr(errors, name)(*ERROR_ARGS.get(name, ("boom",)))

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(decomposition, "decomposition_report", fail)
        code, prefix = ERROR_EXITS[name]
        assert main(["decompose", "report", "--m", "3", "--alpha", "0", "--beta", "0"]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix), err
        assert str(exc) in err

    def test_unknown_parameter_set_line_is_unquoted(self, capsys):
        # A KeyError's str() is the repr of its argument; this one reads as given.
        from treegibbs.cli import main

        assert main(["exact", "pi", "--m", "2", "--params", "nope"]) == 3
        assert capsys.readouterr().err == (
            "validation error: 'nope' is neither a builtin parameter set (turner04-cg, "
            "turner04-gc, turner89-cg, turner89-gc, turner99-cg, turner99-gc) nor a readable file\n"
        )


class TestReplayErrors:
    def test_missing_argv(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text(json.dumps({"subcommand": "sample"}))
        assert cli("replay", bad).returncode == 3

    @pytest.mark.parametrize(
        "content",
        [
            b'{"argv": ["exact", "pi", "--m", "2"]',
            b'["exact", "pi", "--m", "2"]',
            b"\xff\xfe{}",
            b'{"argv": ["exact", "pi", "--m", 2]}',
            b'{"argv": ["replay", "m.json"]}',
        ],
        ids=["not-json", "not-an-object", "not-utf8", "argv-not-strings", "replays-itself"],
    )
    def test_malformed_manifest_is_a_validation_error(self, tmp_path, content):
        bad = tmp_path / "m.json"
        bad.write_bytes(content)
        res = cli("replay", bad)
        assert res.returncode == 3
        assert "validation error" in res.stderr
        assert "Traceback" not in res.stderr

    def test_power_iteration_manifest_points_to_lanczos(self, tmp_path):
        old = tmp_path / "m.json"
        argv = ["exact", "gap", "--m", "4", "--alpha", "0", "--beta", "0",
                "--method", "power-iteration"]
        old.write_text(json.dumps({"subcommand": "exact", "argv": argv}))
        res = cli("replay", old)
        assert res.returncode == 2
        assert "--method" in res.stderr
        assert "Traceback" not in res.stderr

    def test_seed_flag_manifest_is_a_usage_error(self, tmp_path):
        old = tmp_path / "m.json"
        argv = ["exact", "gap", "--m", "4", "--alpha", "0", "--beta", "0", "--seed", "7"]
        old.write_text(json.dumps({"subcommand": "exact", "argv": argv}))
        res = cli("replay", old)
        assert res.returncode == 2
        assert "--seed" in res.stderr


# The package's public names; each loads its module on first use.
PUBLIC_NAMES = [
    "BUILTIN_NNTM", "Chain", "ChainConfig", "ChainState", "DegreeProfile",
    "EnergyParams", "NNTMParams", "PlaneTree", "Sample",
    "SpectralReport", "StateIndex",
    "TransitionModel", "TwoMotzkinPath", "batch_means_stderr", "build_transition_model",
    "catalan", "check_decomposition_bound", "check_skeleton_projection",
    "decode", "decomposition_report", "degree_profile", "derive_params",
    "encode", "enumerate_paths", "gibbs_distribution", "iter_paths",
    "move_constants", "path_energy", "projected_k_distribution",
    "projection_chain", "resolve_params", "restriction_chain", "run",
    "spectral_gap", "text_to_tree", "tree_to_text", "tv_decay_curve",
    "tv_distance",
]


class TestImports:
    def test_sample_and_convert_run_without_scipy(self, tmp_path):
        paths = tmp_path / "paths.txt"
        paths.write_text("HUHD\nIIHH\n")
        # With sys.modules["scipy"] = None any scipy import raises, so every
        # command here, the oracle's too, must run on numpy alone.
        script = f"""
import json, sys
sys.modules["scipy"] = None
from treegibbs import cli
rc = [
    cli.main(["sample", "--n", "20", "--params", "turner04-cg", "--steps", "100",
              "--out", {str(tmp_path / "s.csv")!r}]),
    cli.main(["sample", "--n", "8", "--params", "turner04-cg", "--steps", "100",
              "--out", {str(tmp_path / "small.csv")!r}]),
    cli.main(["convert", "--to", "trees", "--degrees", "--in", {str(paths)!r},
              "--out", {str(tmp_path / "t.txt")!r}]),
    cli.main(["exact", "gap", "--m", "9", "--params", "turner04-cg",
              "--out", {str(tmp_path / "gap.json")!r}]),
    cli.main(["exact", "tv-curve", "--m", "4", "--params", "turner04-cg",
              "--out", {str(tmp_path / "tv.json")!r}]),
    cli.main(["decompose", "report", "--m", "6", "--level", "kqs", "--params", "turner04-cg",
              "--out", {str(tmp_path / "kqs.json")!r}]),
]
before = sys.modules["scipy"] is not None
import treegibbs
from treegibbs import spectral_gap, decomposition_report
missing = [name for name in treegibbs.__all__ if not hasattr(treegibbs, name)]
after = sys.modules["scipy"] is not None
print(json.dumps([rc, before, after, treegibbs.__all__, missing]))
"""
        res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        rc, before, after, names, missing = json.loads(res.stdout.splitlines()[-1])
        assert rc == [0, 0, 0, 0, 0, 0]
        assert not before, "a command imported scipy"
        # The n = 8 run took the exact-law summary, still without scipy.
        summary = json.loads((tmp_path / "small.csv.summary.json").read_text())
        assert "tv_vs_exact" in summary["per_chain"][0]
        assert json.loads((tmp_path / "gap.json").read_text())["method"] == "lanczos"
        assert not after
        assert names == PUBLIC_NAMES
        assert missing == []

    def test_commands_import_only_the_oracle_they_use(self, tmp_path):
        # The oracle's modules load on first use: sampling past the exact-law
        # summary's cap and converting load none of them, a small sample
        # loads the law alone, and a gap loads no decomposition code.
        paths = tmp_path / "paths.txt"
        paths.write_text("HUHD\n")
        script = f"""
import json, sys
from treegibbs import cli
oracle = ["treegibbs.law", "treegibbs.exact", "treegibbs.decomposition"]
loaded = []
for argv in [
    ["sample", "--n", "20", "--params", "turner04-cg", "--steps", "100",
     "--out", {str(tmp_path / "s.csv")!r}],
    ["convert", "--to", "trees", "--in", {str(paths)!r}, "--out", {str(tmp_path / "t.txt")!r}],
    ["sample", "--n", "8", "--params", "turner04-cg", "--steps", "100",
     "--out", {str(tmp_path / "small.csv")!r}],
    ["exact", "gap", "--m", "3", "--params", "turner04-cg",
     "--out", {str(tmp_path / "gap.json")!r}],
]:
    rc = cli.main(argv)
    loaded.append([argv[0], rc, [name for name in oracle if name in sys.modules]])
print(json.dumps(loaded))
"""
        res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1]) == [
            ["sample", 0, []],
            ["convert", 0, []],
            ["sample", 0, ["treegibbs.law"]],
            ["exact", 0, ["treegibbs.law", "treegibbs.exact"]],
        ]

    def test_import_loads_a_module_on_first_use_of_its_names(self):
        # ``import treegibbs`` loads no submodule and no numpy; a name loads
        # its own module and what that imports.
        script = """
import json, sys
import treegibbs
bare = sorted(name for name in sys.modules if name == "numpy" or name.startswith("treegibbs."))
treegibbs.catalan
loaded = sorted(name for name in sys.modules if name.startswith("treegibbs."))
print(json.dumps([bare, loaded, treegibbs.__all__ == sorted(treegibbs.__all__)]))
"""
        res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        bare, loaded, all_sorted = json.loads(res.stdout.splitlines()[-1])
        assert bare == []
        assert "treegibbs.paths" in loaded
        assert not {"treegibbs.chain", "treegibbs.exact", "treegibbs.decomposition"} & set(loaded)
        assert all_sorted

    def test_oracle_runs_without_numpy_random(self, tmp_path):
        # With sys.modules["numpy.random"] = None importing it raises, so the
        # oracle's commands, Lanczos start included, must not need it.  Nor
        # may they load hashlib's _hashlib, which maps OpenSSL's libcrypto:
        # the state order is hashed with the interpreter's own SHA-256.
        # Older numpy versions import numpy.random, and through its secrets
        # import _hashlib, within ``import numpy``; there neither can be
        # checked, and the test is skipped.
        script = f"""
import json, sys
import numpy
if "numpy.random" in sys.modules:
    print(json.dumps("eager"))
    sys.exit()
sys.modules["numpy.random"] = None
from treegibbs import cli
rc = [
    cli.main(["exact", "gap", "--m", "9", "--params", "turner04-cg",
              "--out", {str(tmp_path / "gap.json")!r}]),
    cli.main(["exact", "tv-curve", "--m", "4", "--params", "turner04-cg",
              "--out", {str(tmp_path / "tv.json")!r}]),
    cli.main(["decompose", "report", "--m", "6", "--level", "kqs", "--params", "turner04-cg",
              "--out", {str(tmp_path / "kqs.json")!r}]),
]
print(json.dumps([rc, "_hashlib" in sys.modules]))
"""
        res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout.splitlines()[-1])
        if out == "eager":
            pytest.skip(f"numpy {np.__version__} imports numpy.random with numpy")
        assert out == [[0, 0, 0], False], res.stderr

    def test_order_hash_falls_back_to_hashlib(self):
        # Without the interpreter's own SHA-256 modules the law module takes
        # hashlib's, and the pinned state orders hash the same.
        script = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from treegibbs import law
hashlib = sys.modules.get("hashlib")
print(json.dumps([hashlib is not None and law.sha256 is hashlib.sha256,
                  {str(m): law.StateIndex.build(m).order_hash() for m in range(13)}]))
"""
        res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        from_hashlib, hashes = json.loads(res.stdout.splitlines()[-1])
        assert from_hashlib
        pins = json.loads((Path(__file__).parent / "data" / "law_pins_m0-12.json").read_text())
        assert hashes == pins["order_hash"]


# The environment of a process whose stdout is block-buffered, as it is
# without PYTHONUNBUFFERED, and of one whose stdout is not; argparse wraps
# its text to COLUMNS.
BUFFERED = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "COLUMNS": "80"}
UNBUFFERED = {**BUFFERED, "PYTHONUNBUFFERED": "1"}


class TestProcess:
    """The process ``python -m treegibbs`` runs: its output to a pipe, exit
    statuses and stderr lines, a closed pipe, and a profiler."""

    def test_stdout_equals_the_out_file(self, tmp_path):
        args = ["exact", "gap", "--m", "6", "--params", "turner04-cg"]
        piped = subprocess.run(CLI + args, capture_output=True, env=BUFFERED, timeout=300)
        assert piped.returncode == 0, piped.stderr
        out = tmp_path / "gap.json"
        assert subprocess.run(CLI + args + ["--out", str(out)], env=BUFFERED,
                              timeout=300).returncode == 0
        assert piped.stdout == out.read_bytes()

    def test_sample_to_stdout_hashes_to_its_golden(self):
        import hashlib

        flags, fmt, data_sha, _ = TestSample.GOLDEN[4]  # 3.5 MB of rows
        res = subprocess.run(CLI + ["sample", *map(str, flags), "--format", fmt],
                             capture_output=True, env=BUFFERED, timeout=300)
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(res.stdout).hexdigest() == data_sha

    @pytest.mark.parametrize(
        "args,code,stdout,stderr",
        [
            (["--version"], 0, f"treegibbs {__version__}\n", ""),
            (["--help"], 0, lambda parser: parser.format_help(), ""),
            (["exact", "gap", "--m", "3", "--bogus"], 2, "",
             lambda parser: parser.format_usage()
             + "treegibbs: error: unrecognized arguments: --bogus\n"),
            (["sample", "--n", "1", "--params", "turner04-cg"], 3, "",
             "validation error: --n must be at least 2, got 1\n"),
            (["exact", "gap", "--m", "13", "--params", "turner04-cg"], 4, "",
             "capacity error: enumeration length m=13 exceeds cap 12; "
             "lower --m/--n or raise the cap in code\n"),
        ],
        ids=["version", "help", "unknown-flag", "validation", "capacity"],
    )
    def test_exit_status_and_stderr(self, args, code, stdout, stderr, monkeypatch):
        monkeypatch.setenv("COLUMNS", BUFFERED["COLUMNS"])
        # --help's text and the usage line come from the parser.
        parser = build_parser()
        stdout, stderr = (x(parser) if callable(x) else x for x in (stdout, stderr))
        res = subprocess.run(CLI + args, capture_output=True, text=True, env=BUFFERED,
                             timeout=300)
        assert (res.returncode, res.stdout, res.stderr) == (code, stdout, stderr)

    @pytest.mark.parametrize("env", [BUFFERED, UNBUFFERED], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args,lines_read",
        [
            (["sample", "--n", "50", "--params", "turner04-cg", "--steps", "1e9"], 1),
            (["exact", "gap", "--m", "6", "--params", "turner04-cg"], 0),
        ],
        ids=["sample-after-one-line", "gap-before-any"],
    )
    def test_closed_pipe_is_one_io_error(self, args, lines_read, env):
        proc = subprocess.Popen(CLI + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env)
        try:
            for _ in range(lines_read):
                proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 3, stderr
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert stderr == "i/o error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize(
        "closed,args,code,stdout,stderr",
        [
            ("1>&-", ["exact", "gap", "--m", "3", "--params", "turner04-cg"], 3, "",
             "i/o error: [Errno 9] stdout was closed at start\n"),
            ("0<&-", ["convert", "--to", "trees"], 3, "",
             "i/o error: [Errno 9] stdin was closed at start\n"),
            ("2>&-", ["exact", "gap", "--m", "0", "--params", "turner04-cg"], 3, "", ""),
            ("2>&-", ["exact", "gap", "--m", "1", "--params", "turner04-cg"], 0, '{\n  "m": 1,', ""),
            ("2>&-", ["sample", "--n", "3", "--alpha", "0", "--beta", "0", "--steps", "3"], 3,
             "step,path,energy,d0,d1,r\n0,HH,", ""),
        ],
        ids=["stdout-data", "stdin-data", "stderr-message", "stderr-unused", "stderr-summary"],
    )
    def test_stream_closed_at_start(self, closed, args, code, stdout, stderr):
        # A command that needs a stream closed at start is an i/o error, exit
        # 3; a message for a closed stderr is dropped and the exit code kept.
        res = subprocess.run(["sh", "-c", f'exec "$@" {closed}', "sh", *CLI, *args],
                             capture_output=True, text=True, env=BUFFERED, timeout=300)
        assert res.returncode == code, res.stderr
        assert res.stdout.startswith(stdout) and bool(res.stdout) == bool(stdout)
        assert res.stderr == stderr

    def test_profiler_prints_its_stats(self):
        # A profiler reports as the interpreter ends, so the entry lets it.
        res = subprocess.run(
            [sys.executable, "-m", "cProfile", "-m", "treegibbs",
             "exact", "gap", "--m", "4", "--params", "turner04-cg"],
            capture_output=True, text=True, timeout=300,
        )
        assert res.returncode == 0, res.stderr
        report, stats = res.stdout.split("\n}\n", 1)
        assert json.loads(report + "}")["m"] == 4
        assert "function calls" in stats and "Ordered by" in stats
