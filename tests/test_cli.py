"""End-to-end tests of the command-line front end.

Everything drives main() in-process; file outputs go to tmp_path.
Solver-heavy paths run at loosened tolerances to keep the suite quick.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bcs_edge
import bcs_edge.cli as cli
from bcs_edge import lemma_suite
from bcs_edge.critical_temperature import tc_bulk
from bcs_edge.errors import RefusedRegime
from bcs_edge.kernels import EULER_GAMMA


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_usage_errors_exit_one(capsys, tmp_path):
    assert cli.main([]) == 1
    assert cli.main(["tc-bulk", "--v", "0.4"]) == 1
    assert cli.main(["tc-bulk", "--mu", "1"]) == 1
    assert cli.main(["tc-bulk", "--mu", "1", "--v", "not-a-number"]) == 1
    assert cli.main(["spectrum", "--T", "-1", "--mu", "1"]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert (
        cli.main(
            ["ratio-curve", "--mu", "1", "--bc", "sideways", "--v-min", "1",
             "--v-max", "2", "--v-count", "2"]
        )
        == 1
    )
    assert (
        cli.main(
            ["ratio-curve", "--mu", "1", "--bc", "dirichlet", "--v-min", "1",
             "--v-max", "2", "--v-count", "0"]
        )
        == 1
    )
    capsys.readouterr()
    # a value outside its option's bound names the flag, whether it came
    # from the command line or a config file; --v-max below --v-min, the
    # one rule across options, leaves through main's invalid-value branch
    config = tmp_path / "run.cfg"
    config.write_text("v_count = 0\n")
    refusals = [
        (["spectrum", "--T", "1", "--mu", "1", "--grid-points", "1"],
         "bcs-edge spectrum: error: --grid-points must be at least 2\n"),
        (["verify", "--seed", "-1"],
         "bcs-edge verify: error: --seed must be nonnegative and finite\n"),
        (["ratio-curve", "--config", str(config), "--mu", "1", "--v-min", "1",
          "--v-max", "2"],
         "bcs-edge ratio-curve: error: --v-count must be at least 1\n"),
        (["ratio-curve", "--mu", "1", "--v-min", "2", "--v-max", "1", "--v-count", "2"],
         "bcs-edge: invalid value: --v-max must be >= --v-min\n"),
    ]
    for argv, refusal in refusals:
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(refusal)


@pytest.mark.parametrize(
    ("argv", "flag"),
    [
        (["asymptotics", "--mu", "inf", "--v", "1"], "--mu"),
        (["spectrum", "--T", "inf", "--mu", "1"], "--T"),
        (["spectrum", "--T", "1e-3", "--mu", "nan"], "--mu"),
        (["tc-bulk", "--mu", "1", "--v", "inf"], "--v"),
        (["ratio-curve", "--mu", "1", "--bc", "dirichlet", "--v-min", "1",
          "--v-max", "inf", "--v-count", "2"], "--v-max"),
        (["trial-gap", "--T", "0.1", "--mu", "1", "--b", "inf"], "--b"),
        (["tc-boundary", "--mu", "1", "--v", "0.5", "--tol", "nan"], "--tol"),
        (["ratio-curve", "--mu", "1", "--v-min", "nan", "--v-max", "1",
          "--v-count", "2"], "--v-min"),
        (["verify", "--mu", "inf"], "--mu"),
    ],
)
def test_non_finite_values_exit_one(capsys, argv, flag):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert f"{flag} must be" in captured.err and "finite" in captured.err


def test_unwritable_out_path_exit_one(capsys):
    code = cli.main(
        ["asymptotics", "--mu", "1", "--v", "1",
         "--out", "/nonexistent-dir/x.csv"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot write output" in captured.err
    assert "Traceback" not in captured.err


def test_help_and_version_exit_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["--version"]) == 0
    assert cli.main(["tc-bulk", "--help"]) == 0
    capsys.readouterr()


def test_module_entry_point_exits_with_mains_code():
    src = str(Path(bcs_edge.__file__).resolve().parents[1])

    def module(*args):
        return subprocess.run(
            [sys.executable, "-m", "bcs_edge.cli", *args],
            cwd=src,
            capture_output=True,
            text=True,
            timeout=120,
        )

    out = module("--version")
    assert (out.returncode, out.stdout) == (0, f"bcs-edge {bcs_edge.__version__}\n")
    out = module("asymptotics", "--mu", "1", "--v", "0.5")
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "v,mu,tc_asymptotic"
    assert module("asymptotics", "--mu", "-1", "--v", "0.5").returncode == 1


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert version == bcs_edge.__version__


_FLAGS = {
    "tc-bulk": {"mu", "v", "tol", "grid-points", "threads", "out", "format"},
    "tc-boundary": {"mu", "v", "bc", "tol", "grid-points", "threads", "out",
                    "format"},
    "ratio-curve": {"mu", "bc", "v-min", "v-max", "v-count", "tol",
                    "grid-points", "threads", "out", "format"},
    "spectrum": {"T", "mu", "bc", "tol", "grid-points", "out", "format"},
    "trial-gap": {"T", "mu", "b", "tol", "grid-points", "out", "format"},
    "asymptotics": {"mu", "v", "out", "format"},
    "verify": {"mu", "samples", "seed", "out", "format"},
}


def test_each_command_takes_exactly_its_flags():
    taken = {
        name: {opt.flag[2:] for opt in opts}
        for name, (_, opts, _) in cli._COMMANDS.items()
    }
    assert taken == _FLAGS


def test_tc_bulk_single_row(capsys):
    code, out = run_cli(
        capsys, ["tc-bulk", "--mu", "1", "--v", "0.4", "--tol", "1e-4"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["v", "mu", "tc", "residual", "evaluations"]
    assert len(rows) == 1
    tc = float(rows[0]["tc"])
    weak_coupling = (8.0 * math.exp(EULER_GAMMA) / math.pi) * math.exp(
        -math.pi / 0.4
    )
    assert tc == pytest.approx(weak_coupling, rel=0.05)
    assert abs(float(rows[0]["residual"])) < 1e-3


def test_tc_bulk_monotone_in_coupling(capsys):
    code, out = run_cli(
        capsys,
        ["tc-bulk", "--mu", "1", "--v", "0.4", "--v", "0.8", "--tol", "1e-4"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r["v"]) for r in rows] == [0.4, 0.8]
    assert float(rows[0]["tc"]) < float(rows[1]["tc"])


def test_tc_bulk_json_format(capsys):
    code, out = run_cli(
        capsys,
        ["tc-bulk", "--mu", "1", "--v", "0.4", "--tol", "1e-3", "--format", "json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "tc-bulk"
    assert obj["rows"][0]["tc"] > 0


def test_ratio_curve_json_format(capsys):
    argv = ["ratio-curve", "--mu", "1", "--bc", "neumann", "--v-min", "0.6",
            "--v-max", "0.6", "--v-count", "1", "--tol", "1e-4", "--format", "json"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "ratio-curve"
    [row] = obj["rows"]
    assert row["bc"] == "neumann" and row["v"] == 0.6
    assert row["tc_boundary"] > row["tc_bulk"] > 0.0
    assert isinstance(row["grid_nodes"], int) and row["grid_nodes"] > 0


def test_tc_boundary_at_least_bulk(capsys):
    code_b, out_b = run_cli(
        capsys, ["tc-bulk", "--mu", "1", "--v", "0.5", "--tol", "1e-4"]
    )
    code_h, out_h = run_cli(
        capsys,
        ["tc-boundary", "--mu", "1", "--v", "0.5", "--bc", "dirichlet",
         "--tol", "1e-4"],
    )
    assert code_b == 0 and code_h == 0
    _, rows_b = parse_csv(out_b)
    _, rows_h = parse_csv(out_h)
    assert float(rows_h[0]["tc"]) >= float(rows_b[0]["tc"])


# one cheap run of every subcommand; each must replay from its manifest
_REPLAY_RUNS = {
    "tc-bulk": ["--mu", "1", "--v", "0.4", "--tol", "1e-3"],
    "tc-boundary": ["--mu", "1", "--v", "0.5", "--bc", "neumann", "--tol", "1e-3"],
    "ratio-curve": ["--mu", "1", "--bc", "dirichlet", "--v-min", "0.5",
                    "--v-max", "1.0", "--v-count", "2", "--tol", "1e-3"],
    "spectrum": ["--T", "1.0", "--mu", "1", "--tol", "1e-4"],
    "trial-gap": ["--T", "1e-2", "--mu", "1", "--tol", "1e-5"],
    "asymptotics": ["--mu", "1", "--v", "0.4", "--v", "0.8"],
    "verify": ["--samples", "500", "--seed", "3"],
}


@pytest.mark.parametrize("command", list(_REPLAY_RUNS))
def test_manifest_replay(command, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert cli.main([command, *_REPLAY_RUNS[command], "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "out.txt.manifest.json").read_text())
    for key in ("command", "version", "config", "seeds", "grid_policy",
                "argv", "rows", "wall_clock_s", "created_utc"):
        assert key in manifest
    assert manifest["command"] == command
    assert manifest["argv"][0] == command
    # only what the command read: tol where it takes --tol, points per
    # panel where it takes --grid-points, a seed for verify alone
    args = _REPLAY_RUNS[command]
    takes_knob = command not in ("asymptotics", "verify")
    assert manifest["grid_policy"] == {
        "tol": float(args[args.index("--tol") + 1]) if "--tol" in args else None,
        "points_per_panel": 16 if takes_knob else None,
    }
    assert manifest["seeds"] == {"seed": 3 if command == "verify" else None}

    replay = tmp_path / "replay.txt"
    assert cli.main(manifest["argv"] + ["--out", str(replay)]) == 0
    capsys.readouterr()
    assert replay.read_bytes() == out.read_bytes()
    # the replay's manifest differs only in timing and output path
    again = json.loads((tmp_path / "replay.txt.manifest.json").read_text())
    for m in (manifest, again):
        for key in ("created_utc", "wall_clock_s", "output"):
            del m[key]
        del m["config"]["out"]
    assert again == manifest

    if command == "ratio-curve":
        header, rows = parse_csv(out.read_text())
        assert header == [
            "v", "mu", "bc", "tc_bulk", "tc_boundary", "relative_shift",
            "gap_at_tc_bulk", "grid_nodes",
        ]
        assert [float(r["v"]) for r in rows] == sorted(float(r["v"]) for r in rows)
        assert all(r["bc"] == "dirichlet" for r in rows)
        assert all(float(r["relative_shift"]) >= 0.0 for r in rows)
        assert manifest["config"]["tol"] == 1e-3
        for row in manifest["rows"]:
            assert row["tc_bulk_evaluations"] >= 2
            assert row["tc_boundary_evaluations"] >= 1
            assert 0 < row["matrix_nodes"] < row["grid_nodes"]


# every (command, flag) pair that 0.1.0 accepted and then ignored, and
# the grid settings that 0.6.0 dropped: the core cutoff is a constant,
# and verify builds its grids at the default points per panel
_DROPPED = [
    *[(command, "--seed") for command in
      ("tc-bulk", "tc-boundary", "ratio-curve", "spectrum", "trial-gap",
       "asymptotics")],
    *[(command, "--threads") for command in
      ("spectrum", "trial-gap", "asymptotics", "verify")],
    ("asymptotics", "--tol"),
    ("verify", "--tol"),
    ("asymptotics", "--grid-points"),
    ("verify", "--grid-points"),
    *[(command, "--cutoff-factor") for command in _REPLAY_RUNS],
]


@pytest.mark.parametrize(("command", "flag"), _DROPPED)
def test_dropped_flags_rejected(command, flag, capsys):
    assert cli.main([command, *_REPLAY_RUNS[command], flag, "3"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_ratio_curve_partial_failure(tmp_path, capsys):
    # v=0.05 seeds tc_bulk at T/mu ~ 2e-27, below the supported floor
    with pytest.raises(RefusedRegime) as refused:
        tc_bulk(0.05, 1.0, 1e-3)
    solved = tc_bulk(0.5, 1.0, 1e-3)
    out = tmp_path / "partial.csv"
    code = cli.main(
        ["ratio-curve", "--mu", "1", "--bc", "neumann", "--v-min", "0.05",
         "--v-max", "0.5", "--v-count", "2", "--tol", "1e-3", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 3
    _, rows = parse_csv(out.read_text())
    assert rows[1]["tc_bulk"] == repr(solved.tc)
    assert rows[0]["tc_bulk"] == "nan"
    assert rows[0]["tc_boundary"] == "nan"
    assert rows[0]["grid_nodes"] == "0"
    manifest = json.loads((tmp_path / "partial.csv.manifest.json").read_text())
    assert manifest["rows"][0]["error"] == str(refused.value)


def test_numeric_failure_exit_two(capsys):
    refusals = [
        # the weak-coupling seed of v=0.05 lies below the supported T/mu floor
        ["tc-bulk", "--mu", "1", "--v", "0.05"],
        # a trial state narrower than any node spacing: <g|A-a|g> is 0
        ["trial-gap", "--T", "1", "--mu", "1", "--b", "1e-12"],
    ]
    for argv in refusals:
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "numeric failure" in captured.err


def spectrum_rows(capsys, T, mu, bc):
    code, out = run_cli(
        capsys,
        ["spectrum", "--T", repr(T), "--mu", repr(mu), "--bc", bc,
         "--format", "json"],
    )
    assert code == 0
    return json.loads(out)["rows"]


def test_spectrum_bound_state_localizes_at_low_p(capsys):
    rows = spectrum_rows(capsys, 1e-3, 1.0, "dirichlet")
    assert rows[0]["gap"] > 0
    assert rows[0]["top_eigenvalue"] > rows[0]["a_edge"]
    mass_low = sum(r["weight"] * r["psi2"] for r in rows if r["p"] <= 1.0)
    mass_total = sum(r["weight"] * r["psi2"] for r in rows)
    assert mass_total == pytest.approx(1.0, rel=1e-9)
    assert mass_low > 0.9


def test_spectrum_zero_past_the_matrix_cut(tmp_path, capsys):
    # one row per grid node; the eigenvector is the cut matrix's, padded
    # with zeros, so psi2 vanishes past the cut and stays normalised
    out = tmp_path / "spectrum.json"
    argv = ["spectrum", "--T", "1.0", "--mu", "1", "--bc", "neumann",
            "--tol", "1e-8", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    rows = json.loads(out.read_text())["rows"]
    (record,) = json.loads((tmp_path / "spectrum.json.manifest.json").read_text())["rows"]
    m = record["matrix_nodes"]
    assert len(rows) == record["n_nodes"] > m
    assert 0.0 <= record["cut_bound"] <= 0.5e-8
    assert all(r["psi2"] == 0.0 for r in rows[m:])
    assert any(r["psi2"] > 0.0 for r in rows[m - 16 : m])
    mass = sum(r["weight"] * r["psi2"] for r in rows)
    assert mass == pytest.approx(1.0, rel=1e-12)


def test_spectrum_neumann_gap_positive_at_high_T(capsys):
    rows = spectrum_rows(capsys, 1.0, 1.0, "neumann")
    assert rows[0]["gap"] > 0.01


def test_spectrum_no_bound_state_at_zero_mu(capsys):
    rows = spectrum_rows(capsys, 1.0, 0.0, "dirichlet")
    assert rows[0]["gap"] <= 1e-6


def test_grid_knobs_change_discretization(tmp_path, capsys):
    rows_default = spectrum_rows(capsys, 1.0, 0.0, "dirichlet")
    code, out = run_cli(
        capsys,
        ["spectrum", "--T", "1.0", "--mu", "0.0", "--bc", "dirichlet",
         "--grid-points", "8", "--format", "json"],
    )
    assert code == 0
    rows_coarse = json.loads(out)["rows"]
    assert len(rows_coarse) < len(rows_default)

    # the knobs reach the grids of every other command that builds one
    def curve_nodes(*knobs):
        code, out = run_cli(
            capsys,
            ["ratio-curve", "--mu", "1", "--v-min", "2", "--v-max", "2",
             "--v-count", "1", "--tol", "1e-3", *knobs],
        )
        assert code == 0
        return int(parse_csv(out)[1][0]["grid_nodes"])

    def bulk_nodes(*knobs):
        out = tmp_path / "bulk.csv"
        argv = ["tc-bulk", "--mu", "1", "--v", "1", "--tol", "1e-3", *knobs]
        assert cli.main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "bulk.csv.manifest.json").read_text())
        return manifest["rows"][0]["numerics"]["grid_nodes"]

    def trial_gap(*knobs):
        code, out = run_cli(
            capsys,
            ["trial-gap", "--T", "1e-2", "--mu", "1", "--tol", "1e-6", *knobs],
        )
        assert code == 0
        return float(parse_csv(out)[1][0]["trial_gap"])

    fine = ("--grid-points", "32")
    assert curve_nodes(*fine) > curve_nodes()
    assert bulk_nodes(*fine) > bulk_nodes()
    assert trial_gap(*fine) != trial_gap()


def test_trial_gap_positive_at_small_T(capsys):
    code, out = run_cli(
        capsys, ["trial-gap", "--T", "1e-4", "--mu", "1", "--tol", "1e-7"]
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["T", "mu", "b", "trial_gap"]
    assert float(rows[0]["b"]) == 1.0
    assert float(rows[0]["trial_gap"]) > 0


def test_asymptotics_closed_form(capsys):
    code, out = run_cli(
        capsys, ["asymptotics", "--mu", "1", "--v", "0.4", "--v", "0.8"]
    )
    assert code == 0
    _, rows = parse_csv(out)
    expected = (8.0 * math.exp(EULER_GAMMA) / math.pi) * math.exp(-math.pi / 0.4)
    assert float(rows[0]["tc_asymptotic"]) == pytest.approx(expected, rel=1e-12)
    assert float(rows[0]["tc_asymptotic"]) < float(rows[1]["tc_asymptotic"])


def test_verify_clean_run_is_deterministic(capsys):
    argv = ["verify", "--samples", "2000", "--seed", "7"]
    code1, out1 = run_cli(capsys, argv)
    code2, out2 = run_cli(capsys, argv)
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert len(obj["rows"]) == 8
    assert all(r["violations"] == 0 for r in obj["rows"])


def test_verify_detects_injected_kernel_bug(capsys, monkeypatch):
    # scale the kernel surfaces the checks consume by (1 + 1e-2)
    names = ("_tanh_pair_ratio", "eval_B", "eval_L")
    originals = {name: getattr(lemma_suite, name) for name in names}
    for name, fn in originals.items():
        monkeypatch.setattr(
            lemma_suite,
            name,
            lambda *args, fn=fn, **kwargs: (1.0 + 1e-2) * fn(*args, **kwargs),
        )
    code, out = run_cli(capsys, ["verify", "--samples", "1500"])
    monkeypatch.undo()
    assert code != 0
    obj = json.loads(out)
    assert sum(r["violations"] for r in obj["rows"]) > 0
    for name, fn in originals.items():
        assert getattr(lemma_suite, name) is fn


def test_verify_csv_format_and_manifest(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(
        ["verify", "--samples", "500", "--format", "csv", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    header, rows = parse_csv(out.read_text())
    assert header == ["name", "samples", "violations", "worst_margin", "seed"]
    assert len(rows) == 8
    manifest = json.loads((tmp_path / "report.csv.manifest.json").read_text())
    assert manifest["output"] == "report.csv"
    assert manifest["seeds"] == {"seed": 0}


def test_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# sweep defaults\nmu = 2.0\nv = 0.4, 0.8\n")
    code, out = run_cli(
        capsys, ["asymptotics", "--config", str(config), "--mu", "1.0"]
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert all(float(r["mu"]) == 1.0 for r in rows)
    assert [float(r["v"]) for r in rows] == [0.4, 0.8]

    code, out = run_cli(capsys, ["asymptotics", "--config", str(config)])
    _, rows = parse_csv(out)
    assert all(float(r["mu"]) == 2.0 for r in rows)

    config.write_text("bogus_key = 1\n")
    assert cli.main(["asymptotics", "--config", str(config), "--mu", "1",
                     "--v", "0.4"]) == 1
    config.write_text("mu = not-a-number\n")
    assert cli.main(["asymptotics", "--config", str(config), "--v", "0.4"]) == 1
    assert cli.main(["asymptotics", "--mu", "1", "--v", "0.4",
                     "--config", str(tmp_path / "missing.cfg")]) == 1
    # a config file may hold only keys its command takes
    config.write_text("seed = 0\n")
    assert cli.main(["asymptotics", "--config", str(config), "--mu", "1",
                     "--v", "0.4"]) == 1
    assert "unknown config key: seed" in capsys.readouterr().err
    # a line without '=', and a value outside its option's choices
    config.write_text("mu = 1\nv 0.4\n")
    assert cli.main(["asymptotics", "--config", str(config)]) == 1
    assert "expected key=value" in capsys.readouterr().err
    config.write_text("bc = sideways\n")
    assert cli.main(["tc-boundary", "--config", str(config), "--mu", "1",
                     "--v", "0.4"]) == 1
    assert "invalid choice: 'sideways'" in capsys.readouterr().err


def test_thread_pool_preserves_row_order(capsys):
    code, out = run_cli(
        capsys,
        ["tc-bulk", "--mu", "1", "--v", "0.4", "--v", "0.6", "--v", "0.8",
         "--tol", "1e-3", "--threads", "3"],
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [float(r["v"]) for r in rows] == [0.4, 0.6, 0.8]
    tcs = [float(r["tc"]) for r in rows]
    assert tcs == sorted(tcs)


@pytest.mark.parametrize("env", ["3", "soup"])
def test_threads_env_var_ignored(env, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BCS_EDGE_THREADS", env)
    out = tmp_path / "a.csv"
    code = cli.main(
        ["tc-bulk", "--mu", "1", "--v", "0.4", "--tol", "1e-3", "--threads", "1",
         "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["config"]["threads"] == 1
    argv = manifest["argv"]
    assert argv[argv.index("--threads") + 1] == "1"


def test_threads_below_one_exit_one(tmp_path, capsys):
    out = tmp_path / "a.csv"
    argv = ["tc-bulk", "--mu", "1", "--v", "0.4", "--tol", "1e-3",
            "--out", str(out)]
    assert cli.main(argv + ["--threads", "-3"]) == 1
    assert cli.main(argv + ["--threads", "0"]) == 1
    config = tmp_path / "run.cfg"
    config.write_text("threads = 0\n")
    assert cli.main(argv + ["--config", str(config)]) == 1
    assert "--threads must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_stdout_csv_uses_plain_floats(capsys):
    code, out = run_cli(capsys, ["asymptotics", "--mu", "1", "--v", "0.5"])
    assert code == 0
    value = out.strip().splitlines()[1].split(",")[2]
    assert float(value) > 0
    assert "," not in value and " " not in value
