"""End-to-end CLI tests: flags, exit codes, file outputs, determinism."""

import json
import subprocess
import sys

import pytest

from treegibbs import enumerate_paths

CLI = [sys.executable, "-m", "treegibbs"]


def cli(*args, input_text=None, env=None):
    return subprocess.run(
        CLI + [str(a) for a in args],
        input=input_text,
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


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

    def test_out_dir_env(self, tmp_path):
        import os

        env = dict(os.environ, TREEGIBBS_OUT_DIR=str(tmp_path / "nested"))
        res = cli("sample", "--n", 3, "--alpha", 0, "--beta", 0, "--steps", 10,
                  "--out", "x.csv", env=env)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "nested" / "x.csv").exists()

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

    # Pinned SHA-256 of (data file, summary JSON) for fixed runs: a change to
    # the move loop, its RNG use or the row format that alters one byte fails
    # here.  The m > 8 runs take the emission-only path (at thin 1, one sample
    # covers many rows; at thin 200, one ``advance(thin)`` per row), the
    # m <= 8 runs the occupancy-tracking one (the last at thin 1).
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


class TestConvert:
    def test_path_to_tree_examples(self):
        res = cli("convert", "--to", "trees", input_text="UD\n\n")
        assert res.returncode == 0
        assert res.stdout.splitlines() == ["(()())", "()"]

    def test_roundtrip_all_m5(self, tmp_path):
        words = "\n".join(p.word for p in enumerate_paths(5)) + "\n"
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
        assert data["method"] == "dense"
        res2 = cli("exact", "gap", "--m", 4, "--alpha", 0, "--beta", 0,
                   "--method", "lanczos")
        data2 = json.loads(res2.stdout)
        assert data2["method"] == "lanczos"
        assert data2["gap"] == pytest.approx(data["gap"], abs=1e-8)

    def test_lanczos_on_two_states_is_a_validation_error(self):
        res = cli("exact", "gap", "--m", 1, "--alpha", 0, "--beta", 0, "--method", "lanczos")
        assert res.returncode == 3
        assert "validation error" in res.stderr and "Traceback" not in res.stderr

    def test_lanczos_no_convergence_exits_5(self, monkeypatch, capsys):
        import treegibbs.exact as exact
        from scipy.sparse.linalg import ArpackNoConvergence

        from treegibbs.cli import main

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", None, None)

        monkeypatch.setattr(exact, "eigsh", no_convergence)
        assert main(["exact", "gap", "--m", "7", "--params", "turner04-cg"]) == 5
        assert "internal check failed" in capsys.readouterr().err

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
        assert "lanczos" in res.stderr

    def test_seed_flag_manifest_is_a_usage_error(self, tmp_path):
        old = tmp_path / "m.json"
        argv = ["exact", "gap", "--m", "4", "--alpha", "0", "--beta", "0", "--seed", "7"]
        old.write_text(json.dumps({"subcommand": "exact", "argv": argv}))
        res = cli("replay", old)
        assert res.returncode == 2
        assert "--seed" in res.stderr


# The package's public names, as exported before the exact-oracle names became
# lazily imported.
PUBLIC_NAMES = [
    "BUILTIN_NNTM", "ChainConfig", "ChainState", "DegreeProfile", "DyckPath",
    "EnergyParams", "NNTMParams", "PartitionLabel", "PlaneTree", "ProjectionModel",
    "RestrictionModel", "Sample", "SpectralReport", "StateIndex", "SymbolCounts",
    "TransitionModel", "TwoMotzkinPath", "batch_means_stderr", "build_transition_model",
    "builtin_params", "catalan", "check_decomposition_bound", "check_skeleton_projection",
    "classify", "decode", "decomposition_report", "degree_profile", "derive_params",
    "encode", "enumerate_paths", "gibbs_distribution", "iter_paths",
    "motzkin", "move_constants", "neighbors", "path_energy", "projected_k_distribution",
    "projection_chain", "resolve_params", "restriction_chain", "run",
    "spectral_gap", "text_to_tree", "transition_probability",
    "tree_energy", "tree_to_text", "tv_decay_curve", "tv_distance", "validate",
]


class TestImports:
    def test_sample_and_convert_run_without_scipy(self, tmp_path):
        paths = tmp_path / "paths.txt"
        paths.write_text("HUHD\nIIHH\n")
        script = f"""
import json, sys
from treegibbs import cli
rc = [
    cli.main(["sample", "--n", "20", "--params", "turner04-cg", "--steps", "100",
              "--out", {str(tmp_path / "s.csv")!r}]),
    cli.main(["sample", "--n", "8", "--params", "turner04-cg", "--steps", "100",
              "--out", {str(tmp_path / "small.csv")!r}]),
    cli.main(["convert", "--to", "trees", "--degrees", "--in", {str(paths)!r},
              "--out", {str(tmp_path / "t.txt")!r}]),
]
before = "scipy" in sys.modules
import treegibbs
from treegibbs import spectral_gap, decomposition_report
missing = [name for name in treegibbs.__all__ if not hasattr(treegibbs, name)]
print(json.dumps([rc, before, "scipy" in sys.modules, treegibbs.__all__, missing]))
"""
        res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        rc, before, after, names, missing = json.loads(res.stdout.splitlines()[-1])
        assert rc == [0, 0, 0]
        assert not before, "sample/convert imported scipy"
        # The n = 8 run took the exact-law summary, still without scipy.
        summary = json.loads((tmp_path / "small.csv.summary.json").read_text())
        assert "tv_vs_exact" in summary["per_chain"][0]
        assert after
        assert names == PUBLIC_NAMES
        assert missing == []
