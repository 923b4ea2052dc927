import json
from pathlib import Path

import pytest

from heightlab.cli import build_parser, main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_golden_file():
    assert build_parser("heightlab").format_help() == (DATA / "cli_help.txt").read_text()


def test_every_documented_flag_is_listed():
    parser = build_parser("heightlab")
    subs = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    combined = "".join(p.format_help() for p in subs.choices.values())
    for flag in (
        "--target", "--height", "--bound", "--tau", "--depth", "--seed",
        "--trials", "--cap", "--precision-bits", "--out", "--format",
        "--config", "--workers", "--schedule", "--records", "--count",
        "--d", "--s", "--kind", "--qmax", "--brute",
        "--levels", "--warmup", "--reducer", "--enum-cap", "--name",
    ):
        assert flag in combined, flag


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys, )
    assert code == 2
    assert "usage: heightlab" in out


def test_cf_table(capsys):
    code, out, _ = run(capsys, "cf", "--target", "golden", "--depth", "5")
    assert code == 0
    assert out.splitlines()[0] == "target,n,a,p,q"
    assert "golden,5,1,5,8" in out


def test_cf_terminating_rational(capsys):
    code, out, _ = run(capsys, "cf", "--target", "dec:3/7", "--depth", "10")
    assert code == 0
    assert "dec:3/7,2,3,3,7" in out
    assert out.count("dec:3/7") == 2


def test_cf_unknown_target(capsys):
    code, _, err = run(capsys, "cf", "--target", "pi")
    assert code == 2
    assert "unknown target" in err


def test_series_boundary(capsys):
    code, out, _ = run(capsys, "series", "--kind", "max", "--d", "2",
                       "--tau", "4", "--s", "1.0")
    assert code == 0
    assert out.splitlines()[0] == "verdict: diverges (boundary)"


def test_series_accepts_spec_kind_spelling(capsys):
    code, out, _ = run(capsys, "series", "--kind", "prod_d_root", "--d", "2",
                       "--tau", "4", "--s", "2", "--qmax", "100")
    assert code == 0
    assert "verdict: converges" in out


def test_series_missing_flag(capsys):
    code, _, err = run(capsys, "series", "--kind", "max", "--d", "2", "--tau", "4")
    assert code == 2
    assert "--s" in err


def test_approx_brute_agrees(capsys):
    code, out, _ = run(capsys, "approx", "--target", "golden", "--height", "max",
                       "--bound", "8", "--brute", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["match"] is True
    assert blob["fast"]["point"] == ["5/8"]


def test_approx_min_needs_count(capsys):
    code, _, err = run(capsys, "approx", "--target", "golden", "--target", "sqrt2",
                       "--height", "min", "--bound", "10")
    assert code == 2
    assert "counting mode" in err


def test_approx_min_count(capsys):
    code, out, _ = run(capsys, "approx", "--target", "golden", "--target", "sqrt2",
                       "--height", "min", "--bound", "1000", "--count", "--tau", "5")
    assert code == 0
    assert out.splitlines()[1] == "4"


def test_approx_records_csv(capsys):
    code, out, _ = run(capsys, "approx", "--target", "golden", "--height", "max",
                       "--bound", "50", "--records")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("height_base,height_root,error_lo,error_hi,p0,q0")
    assert len(lines) == 9


def test_approx_cap_exceeded(capsys):
    code, _, err = run(capsys, "approx", "--target", "seed:1", "--target", "seed:2",
                       "--target", "seed:3", "--height", "max", "--bound", "300",
                       "--brute", "--enum-cap", "1000")
    assert code == 4
    assert "cap exceeded" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ("approx", "--target", "golden", "--height", "max", "--bound", "8", "--enum-cap"),
        ("exponent", "--target", "golden", "--height", "max", "--cap", "10000",
         "--enum-cap"),
        ("experiment", "--name", "khintchine", "--d", "2", "--kind", "max",
         "--trials", "1", "--workers", "1", "--enum-cap"),
        ("experiment", "--name", "minsplit", "--schedule", "1000,100000", "--enum-cap"),
        ("cf", "--target", "seed:3", "--precision-bits"),
        ("approx", "--target", "golden", "--height", "max", "--bound", "8",
         "--precision-bits"),
        ("exponent", "--target", "golden", "--height", "max", "--cap", "10000",
         "--precision-bits"),
        ("experiment", "--name", "khintchine", "--d", "2", "--kind", "max",
         "--trials", "1", "--workers", "1", "--precision-bits"),
        ("exponent", "--target", "golden", "--height", "max", "--cap", "1000", "--warmup"),
    ],
)
def test_nonpositive_enum_cap_is_usage_error(capsys, argv, cap):
    # argv ends with the flag that receives the nonpositive value
    code, out, err = run(capsys, *argv, cap)
    assert code == 2
    assert f"{argv[-1]} must be >= 1" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--target", "dec:1/3", "--bound", "10", "--records"),
         "record chains need irrational coordinates"),
        (("--target", "golden", "--count", "--tau", "0", "--bound", "10"), "tau must be positive"),
        (("--target", "golden", "--count", "--tau", "-1", "--bound", "10"),
         "tau must be positive"),
        (("--target", "golden", "--count", "--tau", "2.000000000000000000001", "--bound", "10"),
         "tau must have denominator <= 1000 and numerator <= 10000"),
    ],
)
def test_approx_library_argument_error_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "approx", "--height", "max", *argv)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err


def test_exponent_insufficient_data(capsys):
    code, _, err = run(capsys, "exponent", "--target", "golden", "--height", "max",
                       "--cap", "100")
    assert code == 5
    assert "insufficient data" in err


def test_exponent_json(capsys):
    code, out, _ = run(capsys, "exponent", "--target", "golden", "--height", "max",
                       "--cap", "10000", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["kind"] == "max"
    assert 2.05 < blob["value"] < 2.15
    assert blob["entries"][0]["height"] == [2, 1]


def test_exponent_constant_mode(capsys):
    code, out, _ = run(capsys, "exponent", "--target", "golden", "--height", "max",
                       "--cap", "100000", "--tau", "2", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert 0.44 < blob["value"] < 0.45


@pytest.mark.parametrize(
    "fixture, argv",
    [
        ("exponent_golden_max", ("--target", "golden", "--height", "max")),
        ("exponent_seeded_min",
         ("--target", "seed:7", "--target", "seed:8", "--height", "min")),
        ("exponent_seeded_running_max",
         ("--target", "seed:7", "--target", "seed:8", "--height", "max",
          "--reducer", "running_max")),
        ("exponent_golden_tau2", ("--target", "golden", "--height", "max", "--tau", "2")),
        ("exponent_golden_tau2_last",
         ("--target", "golden", "--height", "max", "--tau", "2", "--reducer", "last")),
    ],
)
def test_exponent_output_matches_fixture(capsys, fixture, argv):
    # the fixtures hold the output of the eager traces, which certified every
    # record before reading the estimate
    code, out, _ = run(capsys, "exponent", *argv, "--cap", "1000000", "--format", "json")
    assert code == 0
    assert out == (DATA / f"{fixture}.json").read_text()


def test_experiment_khintchine_band(capsys):
    code, out, _ = run(capsys, "experiment", "--name", "khintchine", "--d", "2",
                       "--kind", "max", "--trials", "5", "--seed", "7000",
                       "--cap", "1000000", "--workers", "1")
    assert code == 0
    assert "passes=True" in out


def test_experiment_khintchine_without_an_ok_trial_fails_its_predicate(capsys):
    code, out, _ = run(capsys, "experiment", "--name", "khintchine", "--d", "2",
                       "--kind", "max", "--trials", "2", "--cap", "50", "--workers", "1")
    assert code == 5
    assert out.splitlines()[-1] == "ok=0 failed=2 median=None within_band=None passes=False"


@pytest.mark.parametrize("via_config", [False, True])
def test_experiment_khintchine_rejects_tau(tmp_path, capsys, via_config):
    # no khintchine trial reads a tau, so one given is a usage error, not a
    # value silently written into the run's config
    argv = ["experiment", "--name", "khintchine", "--d", "2", "--kind", "max",
            "--trials", "1", "--workers", "1"]
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 3\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--tau", "3"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--tau" in err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_experiment_khintchine_without_trials_is_a_usage_error(capsys, trials):
    code, out, err = run(capsys, "experiment", "--name", "khintchine", "--d", "2",
                         "--kind", "max", "--trials", trials, "--workers", "1")
    assert code == 2
    assert out == ""
    assert "need trials >= 1" in err


def test_experiment_minsplit_reports_predicate_failure(capsys):
    code, out, err = run(capsys, "experiment", "--name", "minsplit", "--tau", "5",
                         "--schedule", "1000,100000")
    assert code == 5
    assert "liouville,golden,1000 100000,4 4,stagnating" in out
    assert "predicted verdict failed" in err


def test_experiment_box(capsys):
    code, out, _ = run(capsys, "experiment", "--name", "box", "--kind", "max",
                       "--tau", "4", "--levels", "6..9")
    assert code == 0
    assert out.splitlines()[-1].startswith("slope=")


# the levels are checked before any level is counted
@pytest.mark.parametrize("levels, shown", [("6..7", "[6, 7]"), ("-2..3", "[-2, -1, 0, 1, 2, 3]")])
def test_experiment_box_levels_are_a_usage_error(capsys, levels, shown):
    code, out, err = run(capsys, "experiment", "--name", "box", "--kind", "max",
                         "--tau", "4", f"--levels={levels}")
    assert code == 2
    assert out == ""
    assert f"at least 3 grid levels, each >= 0, got {shown}" in err


def test_experiment_unknown_name(capsys):
    code, _, err = run(capsys, "experiment", "--name", "nope")
    assert code == 2
    assert "khintchine" in err


def test_config_file_fills_missing_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depth = 4\ntarget = golden\n# comment\n")
    code, out, _ = run(capsys, "cf", "--config", str(cfg))
    assert code == 0
    assert out.count("golden,") == 4


# 10 is --depth's default: an explicit flag wins even when it equals it
@pytest.mark.parametrize("depth", [2, 10])
def test_explicit_flag_beats_config(tmp_path, capsys, depth):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("depth = 4\n")
    code, out, _ = run(capsys, "cf", "--target", "golden", "--depth", str(depth),
                       "--config", str(cfg))
    assert code == 0
    assert out.count("golden,") == depth


@pytest.mark.parametrize(
    "argv, line",
    [
        (("cf", "--target", "golden"), "nope = 1"),
        # a key that only other subcommands take
        (("heights", "--d", "2"), "target = golden"),
    ],
)
def test_config_unknown_key(tmp_path, capsys, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert f"unknown config key {line.split(' =')[0]!r}" in err


def test_config_boolean_key_is_honoured(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("records = true\n")
    argv = ("approx", "--target", "golden", "--target", "sqrt2", "--height", "max",
            "--bound", "20")
    code, out, _ = run(capsys, *argv, "--config", str(cfg))
    assert code == 0
    assert out == run(capsys, *argv, "--records")[1]
    assert out.startswith("height_base,")


@pytest.mark.parametrize("line", ["format = xml", "records = yes"])
def test_config_bad_value_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(capsys, "approx", "--target", "golden", "--height", "max",
                         "--bound", "5", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "bad config value" in err


def test_out_writes_file(tmp_path, capsys):
    dest = tmp_path / "table.csv"
    code, out, _ = run(capsys, "cf", "--target", "sqrt2", "--depth", "3",
                       "--out", str(dest))
    assert code == 0
    assert out == ""
    assert dest.read_text().splitlines()[-1] == "sqrt2,3,2,5,12"


@pytest.mark.parametrize(
    "argv",
    [
        ("cf", "--target", "golden"),
        # a khintchine run writes its files after the trials, so the paths
        # must be checked before the first trial
        ("experiment", "--name", "khintchine", "--d", "2", "--kind", "max",
         "--trials", "1", "--cap", "100", "--workers", "1"),
    ],
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    dest = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, *argv, "--out", str(dest))
    assert code == 2
    assert out == ""
    assert f"cannot write output {str(dest)!r}" in err


def test_khintchine_out_check_leaves_no_file(tmp_path, capsys):
    # the run files are checked before the trials by creating them; a run
    # that then fails leaves neither behind
    code, _, err = run(capsys, "experiment", "--name", "khintchine", "--d", "2",
                       "--kind", "lcm", "--workers", "1", "--out", str(tmp_path / "k.json"))
    assert code == 2
    assert "unsupported kind lcm" in err
    assert list(tmp_path.iterdir()) == []


def test_heights_exponent_table(capsys):
    code, out, _ = run(capsys, "heights", "--d", "2")
    assert code == 0
    assert "lcm,2,1.5,1.5" in out


def test_heights_rejects_max_at_d1(capsys):
    code, _, err = run(capsys, "heights", "--kind", "max", "--d", "1")
    assert code == 2


def test_bad_bound(capsys):
    code, _, err = run(capsys, "approx", "--target", "golden", "--height", "max",
                       "--bound", "x")
    assert code == 2
    assert "bad bound" in err


def test_unknown_flag_is_usage_error(capsys):
    code = main(["cf", "--bogus"])
    assert code == 2
