import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from glauert_bem import DomainError, best_glide_angle, cli, load_polar, synthetic_polar
from glauert_bem.cli import ROW_HEADER, main
from glauert_bem.polar import dump_polar

from conftest import positive_alpha_polar, run_main, window_polar, zero_lift_polar
from test_demo_golden import COMMANDS, assert_matches_golden

BASE_CFG = """
turbine.blade_count=3
turbine.radius=1.2
turbine.fluid_density=1.0
turbine.upstream_speed=1.0
turbine.rotation_speed=3.0
turbine.lambda_min=0.8
turbine.lambda_max=3.0
polar.path=polar.csv
correction.variant=wilson_spera
correction.tip_loss=true
run.lambda_count=5
design.mode=simplified
"""

DEMO = Path(__file__).resolve().parents[1] / "demo"


@pytest.fixture
def workdir(tmp_path):
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, cd2=0.3,
                            beta=0.4, label="cli")
    dump_polar(polar, tmp_path / "polar.csv")
    (tmp_path / "run.cfg").write_text(BASE_CFG)
    return tmp_path


def _write_cfg(workdir, extra="", base=BASE_CFG, name="run.cfg"):
    (workdir / name).write_text(base + extra)
    return str(workdir / name)


def _rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_solve_all_methods_agree_and_converge(workdir):
    out = workdir / "solve.csv"
    code = main(["solve", "--config", str(workdir / "run.cfg"),
                 "--method", "all", "--out", str(out)])
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 5 * 4
    by_lambda = {}
    for row in rows:
        assert row["root_category"] in ("principal", "correction_branch")
        assert abs(float(row["residual"])) <= 1e-10
        by_lambda.setdefault(row["lambda"], []).append(float(row["phi"]))
    for phis in by_lambda.values():
        assert len(phis) == 4
        assert max(phis) - min(phis) < 1e-8


def test_csv_cells_round_trip_exactly(workdir):
    out = workdir / "solve.csv"
    main(["solve", "--config", str(workdir / "run.cfg"), "--method", "fixed",
          "--out", str(out)])
    numeric = ["lambda", "phi", "alpha", "a", "a_prime", "F", "residual", "J"]
    for row in _rows(out):
        for key in numeric:
            assert repr(float(row[key])) == row[key]


def test_identical_runs_are_byte_identical(workdir):
    a, b = workdir / "a.csv", workdir / "b.csv"
    main(["solve", "--config", str(workdir / "run.cfg"), "--out", str(a)])
    main(["solve", "--config", str(workdir / "run.cfg"), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_jobs_flag_preserves_output(workdir):
    a, b = workdir / "a.csv", workdir / "b.csv"
    main(["solve", "--config", str(workdir / "run.cfg"), "--out", str(a)])
    main(["solve", "--config", str(workdir / "run.cfg"), "--jobs", "3",
          "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_output_path_from_config_and_out_override(workdir, capsys):
    cfg = _write_cfg(workdir, "output.path=results/solve.csv\n", name="out.cfg")
    (workdir / "results").mkdir()
    assert main(["solve", "--config", cfg, "--method", "fixed"]) == 0
    assert capsys.readouterr().out == ""  # nothing on stdout: the CSV went to the file
    target = workdir / "results" / "solve.csv"  # relative to the config's directory
    assert len(_rows(target)) == 5

    expected = target.read_bytes()
    target.unlink()
    override = workdir / "override.csv"
    assert main(["solve", "--config", cfg, "--method", "fixed", "--out", str(override)]) == 0
    assert not target.exists()  # --out wins over output.path
    assert override.read_bytes() == expected


@pytest.mark.parametrize("cmd", ["solve", "scan", "design", "sweep", "check"])
def test_unwritable_output_exits_2_without_a_traceback(workdir, capsys, cmd):
    # --out naming a directory once raised IsADirectoryError, and output.path in
    # a missing directory FileNotFoundError, out of every subcommand
    assert main([cmd, "--config", str(workdir / "run.cfg"), "--out", str(workdir)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {workdir}: Is a directory\n"
    cfg = _write_cfg(workdir, "output.path=gone/out.csv\n", name="gone.cfg")
    assert main([cmd, "--config", cfg]) == 2
    target = workdir / "gone" / "out.csv"
    assert capsys.readouterr().err == f"error: cannot write {target}: No such file or directory\n"


def test_unwritable_output_fails_before_the_command_runs(workdir, capsys, monkeypatch):
    # a corrected-design sweep of the demo once ran for 35 s before this error
    calls = []

    def forbidden(*args, **kwargs):
        calls.append(args)
        raise DomainError("the command ran")

    monkeypatch.setattr(cli, "cp_sweep", forbidden)
    monkeypatch.setattr(cli, "optimize_element", forbidden)
    cfg = _write_cfg(workdir, base=BASE_CFG.replace("design.mode=simplified",
                                                    "design.mode=corrected"))
    target = workdir / "missing" / "x.csv"
    for cmd in ("sweep", "design"):
        assert main([cmd, "--config", cfg, "--out", str(target)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {target}: No such file or directory\n")
    assert calls == []
    # the check creates no file and leaves an existing one as it is
    fresh, kept = workdir / "fresh.csv", workdir / "kept.csv"
    kept.write_text("earlier output\n")
    for out in (fresh, kept):
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: the command ran\n"
    assert not fresh.exists() and kept.read_text() == "earlier output\n"


def test_bisection_wrong_initial_guess_flag(workdir):
    cfg = _write_cfg(workdir, "run.lambda=2.5\nsolver.bracket_lo=0.3\n"
                              "solver.bracket_hi=0.35\n",
                     base=BASE_CFG.replace("run.lambda_count=5\n", ""),
                     name="bad.cfg")
    out = workdir / "bad.csv"
    code = main(["solve", "--config", cfg, "--method", "bisect", "--out", str(out)])
    assert code == 1
    rows = _rows(out)
    assert rows[0]["root_category"] == "wrong_initial_guess"


def test_scan_reports_categories(workdir):
    cfg = _write_cfg(workdir, "run.lambda=1.75\ndesign.gamma=0.15\n"
                              "design.chord=0.3\n",
                     base=BASE_CFG.replace("run.lambda_count=5\n", "")
                                  .replace("design.mode=simplified",
                                           "design.mode=fixed")
                                  .replace("correction.variant=wilson_spera",
                                           "correction.variant=none")
                                  .replace("correction.tip_loss=true",
                                           "correction.tip_loss=false"),
                     name="scan.cfg")
    out = workdir / "scan.csv"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    cats = [row["root_category"] for row in _rows(out)]
    assert "negative_lift_branch" in cats
    assert "principal" in cats


def test_scan_writes_a_root_with_zero_lift_with_J_nan(workdir):
    # lift is exactly 0 on [0.4, 0.7]; theta - gamma = pi/4 - 0.25 lies there, so the
    # plain model has a root at phi = theta, where J divides by C_L = 0
    dump_polar(zero_lift_polar(), workdir / "zero.csv")
    cfg = _write_cfg(workdir, "run.lambda=1.0\ndesign.gamma=0.25\ndesign.chord=0.3\n",
                     base=BASE_CFG.replace("run.lambda_count=5\n", "")
                                  .replace("polar.path=polar.csv", "polar.path=zero.csv")
                                  .replace("design.mode=simplified", "design.mode=fixed")
                                  .replace("correction.variant=wilson_spera",
                                           "correction.variant=none")
                                  .replace("correction.tip_loss=true",
                                           "correction.tip_loss=false"),
                     name="zero.cfg")
    out = workdir / "zero-scan.csv"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    [row] = _rows(out)
    assert abs(float(row["phi"]) - math.pi / 4) <= 1e-15
    assert float(row["alpha"]) == float(row["phi"]) - 0.25
    assert abs(float(row["residual"])) <= 1e-10 and math.isfinite(float(row["a"]))
    assert (row["method"], row["J"]) == ("scan", "nan")


def test_scan_warns_when_it_finds_no_root(workdir, capsys):
    # twist 1.2 at lambda 2 puts the one root, phi = 0.50, above phi_upper =
    # theta = 0.4636, where the scan does not look: the CSV holds the header only
    cfg = _write_cfg(workdir, "run.lambda=2.0\ndesign.gamma=1.2\ndesign.chord=0.1\n",
                     base=BASE_CFG.replace("run.lambda_count=5\n", "")
                                  .replace("design.mode=simplified", "design.mode=fixed"),
                     name="noroot.cfg")
    out = workdir / "noroot.csv"
    assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines() == [ROW_HEADER]
    assert capsys.readouterr().err == ("WARNING bem: lambda=2: the scan found no root "
                                       "(it does not look above phi_upper=0.463648)\n")


def test_design_simplified_matches_closed_form(workdir):
    out = workdir / "design.csv"
    assert main(["design", "--config", str(workdir / "run.cfg"),
                 "--out", str(out)]) == 0
    polar = load_polar(workdir / "polar.csv")
    alpha_bar = best_glide_angle(polar)
    rows = _rows(out)
    assert len(rows) == 5
    for row in rows:
        theta = math.atan2(1.0, float(row["lambda"]))
        assert abs(float(row["gamma"]) - (2.0 * theta / 3.0 - alpha_bar)) < 1e-9
        assert row["converged"] == "true"


def test_design_single_lambda_single_row(workdir):
    cfg = _write_cfg(workdir, "run.lambda=1.75\n",
                     base=BASE_CFG.replace("run.lambda_count=5\n", ""),
                     name="one.cfg")
    out = workdir / "one.csv"
    assert main(["design", "--config", cfg, "--out", str(out)]) == 0
    assert len(_rows(out)) == 1


def test_design_corrected_mode_runs(workdir, capsys):
    cfg = _write_cfg(workdir, "run.lambda=1.75\ndesign.step=0.2\ndesign.tol=1e-4\n",
                     base=BASE_CFG.replace("run.lambda_count=5\n", "")
                                  .replace("design.mode=simplified",
                                           "design.mode=corrected"),
                     name="corr.cfg")
    out = workdir / "corr.csv"
    assert main(["design", "--config", cfg, "--out", str(out)]) == 0
    row = _rows(out)[0]
    assert row["mode"] == "corrected" and row["converged"] == "true"
    # the optimized design's check prints its flags as every other mode does (a
    # design in numpy scalars once made them numpy bools, printed False)
    assert main(["check", "--config", cfg]) == 0
    flags = re.findall(r"(?:upper_is_theta|guaranteed)=(\w+)", capsys.readouterr().out)
    assert len(flags) == 2 and set(flags) <= {"true", "false"}


def _negative_lift_cfg(workdir, mode):
    """One lambda on a polar whose lift is negative at its best glide angle, so
    that its simplified optimum fails."""
    (workdir / "neg.csv").write_text("alpha_rad,cl,cd\n-0.5,-1,0.01\n-0.1,-0.5,0.01\n"
                                     "0.6,-0.2,0.01\n1.0,0.5,0.01\n")
    return _write_cfg(workdir, "run.lambda=1.4\npolar.alpha_s=0.3\n"
                               "design.gamma=0.1\ndesign.chord=0.1\n",
                      base=BASE_CFG.replace("run.lambda_count=5\n", "")
                                   .replace("polar.csv", "neg.csv")
                                   .replace("design.mode=simplified", f"design.mode={mode}"),
                      name=f"neg-{mode}.cfg")


def test_design_failure_row_is_labelled_like_the_mode_rows(workdir):
    # fixed mode's design rows are the simplified optimum, and so is its failure row
    cfg = _negative_lift_cfg(workdir, "fixed")
    out = workdir / "neg_design.csv"
    assert main(["design", "--config", cfg, "--out", str(out)]) == 1
    assert out.read_text().splitlines()[1:] == ["1.4,nan,nan,nan,nan,simplified,false"]


def test_failed_design_rows_of_solve_scan_and_check(workdir, capsys):
    cfg = _negative_lift_cfg(workdir, "simplified")
    error = "cl <= 0 everywhere on (0, 0.3]"
    assert main(["solve", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        ROW_HEADER, "1.4,nan,nan,nan,nan,nan,nan,0,design,nan,design_failed"]
    assert captured.err == f"WARNING bem: lambda=1.4: {error}\n"
    assert main(["scan", "--config", cfg]) == 0  # the lambda is skipped
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [ROW_HEADER]
    assert captured.err == f"WARNING bem: lambda=1.4: {error}\n"
    assert main(["check", "--config", cfg]) == 0
    assert capsys.readouterr().out == f"lambda=1.4 design FAIL ({error})\n"


def _demo_cfg(workdir, settings, name):
    """demo/run.cfg with its polar path made absolute and each key of
    ``settings`` set to its value, or dropped where the value is None."""
    settings = {"polar.path": str(DEMO / "polar.csv"), **settings}
    kept = [line for line in (DEMO / "run.cfg").read_text().splitlines()
            if line.partition("=")[0] not in settings]
    extra = "".join(f"{key}={value}\n" for key, value in settings.items()
                    if value is not None)
    return _write_cfg(workdir, extra, base="\n".join(kept) + "\n", name=name)


def test_solve_rows_without_a_state(workdir, capsys):
    # phi0 = 1.6 lies outside (0, pi/2), so the three methods that start there
    # stop with no state, and bisection rejects the bracket (1e-4, 1.6)
    cfg = _demo_cfg(workdir, {"run.lambda_count": None, "run.lambda": "1.5",
                              "solver.phi0": "1.6", "solver.bracket_hi": "1.6"},
                    "nostate.cfg")
    assert main(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().out.splitlines() == [ROW_HEADER] + [
        f"1.5,1.6,nan,nan,nan,nan,nan,0,{name},nan,not_converged"
        for name in ("usual", "fixed", "newton")] + [
        "1.5,nan,nan,nan,nan,nan,nan,0,bisect,nan,solver_error"]


def test_sweep_rows_of_failed_elements(workdir, capsys):
    # a twist of 0.9 leaves no root in I+ from lambda 0.85 up
    cfg = _demo_cfg(workdir, {"design.mode": "fixed", "design.gamma": "0.9",
                              "design.chord": "0.1"}, "failing.cfg")
    out = workdir / "failing.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 40
    failed = [row for row in rows if row.endswith(",false")]
    assert len(failed) == 36 and failed == rows[4:]
    assert failed[0] == "0.8461538461538461,0.9,0.1,nan,nan,nan,nan,nan,0.0,false"
    assert all(row.endswith(",true") for row in rows[:4])
    assert capsys.readouterr().out.splitlines()[-1] == (
        "warning: 36 element(s) failed; Cp computed with J=0 contributions")


def test_sweep_emits_cp_summary(workdir, capsys):
    cfg = _write_cfg(workdir, "sweep.grid_n=12\nsweep.refine=true\n",
                     name="sweep.cfg")
    out = workdir / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    lines = [l for l in stdout.splitlines() if l]
    assert lines[0].startswith("Cp=")
    assert any(l.startswith("Cp_refined=") for l in lines)
    assert any(l.startswith("Cp_refinement_delta=") for l in lines)
    cp = float(lines[0].split("=", 1)[1])
    assert 0.0 < cp < 1.0
    rows = _rows(out)
    assert len(rows) == 12
    assert all(row["ok"] == "true" for row in rows)


def test_check_reports_pass_lines(workdir, capsys):
    assert main(["check", "--config", str(workdir / "run.cfg")]) == 0
    stdout = capsys.readouterr().out
    assert "existence_simplified PASS" in stdout
    assert "interval PASS" in stdout


def test_check_warns_why_an_existence_criterion_is_undecided(workdir, capsys):
    # the element of tests/test_solvers.py's sign-change reproducer: both margins
    # are positive at max I+, min I+ has the same sign, so both verdicts FAIL and
    # the log says why; the output keeps its form
    dump_polar(synthetic_polar("linear_lift", slope=6.283185, cd0=0.01, beta=0.612104),
               workdir / "undecided.csv")
    cfg = _write_cfg(workdir, base="""
turbine.blade_count=3
turbine.radius=1.0
turbine.upstream_speed=0.576516
turbine.rotation_speed=2.202581
polar.path=undecided.csv
polar.beta=0.612104
correction.variant=none
run.lambda=2.202581
design.mode=fixed
design.gamma=-0.070055
design.chord=0.176581
""", name="undecided.cfg")
    assert main(["check", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == (
        "lambda=2.202581 interval PASS (margin=1.6866593564039598) "
        "existence_simplified FAIL (margin=0.11399517425614275) "
        "existence_corrected FAIL (margin=0.11399517425614275) upper_is_theta=true")
    warnings = captured.err.splitlines()
    assert len(warnings) == 1 and warnings[0].startswith("WARNING bem: lambda=2.20258: ")
    assert "simplified criterion undecided" in warnings[0]
    assert "corrected criterion undecided" in warnings[0]


_CHECK_CFG = """
turbine.radius=1.1
turbine.upstream_speed=1.0
turbine.rotation_speed=3.0
design.mode=fixed
"""


def test_check_appendix_is_na_where_the_polar_cuts_max_I_plus_below_theta(workdir, capsys):
    # alpha_s = 0.5 above the samples: min(theta, beta + gamma) is theta, but the
    # working interval ends at gamma + alpha_max = 0.55 < theta = 0.588, where the
    # appendix once read guaranteed=true beside upper_is_theta=false
    dump_polar(window_polar(), workdir / "window.csv")
    cfg = _write_cfg(workdir, "turbine.lambda_min=0.6\nturbine.lambda_max=3.0\n"
                              "polar.path=window.csv\npolar.alpha_s=0.5\nrun.lambda=1.5\n"
                              "design.gamma=0.25\ndesign.chord=0.01\n",
                     base=_CHECK_CFG, name="window.cfg")
    assert main(["check", "--config", cfg]) == 0
    existence, appendix = capsys.readouterr().out.splitlines()
    assert existence.endswith(" upper_is_theta=false")
    assert appendix == ("lambda=1.5 appendix N/A "
                        "(needs max I+ = theta (polar window too narrow))")


def test_check_reports_an_element_whose_I_plus_is_empty(workdir, capsys):
    # sampled at alpha >= 0.3 only: I+ is empty at lambda 2, where the check once
    # stopped with exit code 1 and wrote no line for either lambda
    dump_polar(positive_alpha_polar(), workdir / "positive.csv")
    cfg = _write_cfg(workdir, "turbine.lambda_min=1.0\nturbine.lambda_max=2.0\n"
                              "polar.path=positive.csv\nrun.lambda_count=2\n"
                              "design.gamma=0.2\ndesign.chord=0.05\n",
                     base=_CHECK_CFG, name="positive.cfg")
    assert main(["check", "--config", cfg]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 4 and lines[2].startswith("lambda=2.0 interval PASS")
    assert lines[2].endswith(" existence_simplified FAIL (margin=nan) "
                             "existence_corrected FAIL (margin=nan) upper_is_theta=false")
    assert lines[3] == "lambda=2.0 appendix N/A (working interval I+ is empty for this element)"
    assert captured.err == ("WARNING bem: lambda=2: "
                            "working interval I+ is empty for this element\n")


def test_config_errors_exit_2(workdir, capsys):
    bad = _write_cfg(workdir, "bogus.key=1\n", name="unknown.cfg")
    assert main(["solve", "--config", bad]) == 2
    assert "unknown key" in capsys.readouterr().err

    missing = _write_cfg(workdir, "", base="turbine.radius=1.0\n", name="missing.cfg")
    assert main(["solve", "--config", missing]) == 2

    both = _write_cfg(workdir, "run.lambda=1.0\n", name="both.cfg")
    assert main(["solve", "--config", both]) == 2

    badbool = _write_cfg(workdir, "correction.tip_loss=maybe\n",
                         base=BASE_CFG.replace("correction.tip_loss=true\n", ""),
                         name="bool.cfg")
    assert main(["solve", "--config", badbool]) == 2

    nofile = _write_cfg(workdir, "", base=BASE_CFG.replace("polar.csv", "gone.csv"),
                        name="nofile.cfg")
    assert main(["solve", "--config", nofile]) == 2
    capsys.readouterr()

    # files that cannot be read: each of these once ended in a traceback and exit 1
    (workdir / "latin.csv").write_bytes(b"\xff" + (workdir / "polar.csv").read_bytes())
    (workdir / "latin.cfg").write_bytes(BASE_CFG.encode() + b"# caf\xe9\n")
    at = len(BASE_CFG.encode()) + 5  # the offset of the byte 0xe9
    for cfg, err in [
        (_write_cfg(workdir, "", base=BASE_CFG.replace("polar.csv", "."), name="dir.cfg"),
         f"cannot read polar file {workdir}: Is a directory"),
        (_write_cfg(workdir, "", base=BASE_CFG.replace("polar.csv", "latin.csv"),
                    name="latin-polar.cfg"),
         "polar is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
         "invalid start byte"),
        (str(workdir / "latin.cfg"),
         f"cannot read config file {workdir / 'latin.cfg'}: 'utf-8' codec can't decode "
         f"byte 0xe9 in position {at}: invalid continuation byte")]:
        for cmd in ("solve", "scan", "check"):
            assert main([cmd, "--config", cfg]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"config error: {err}\n"  # one line, no traceback
            assert captured.out == ""

    # run settings out of range, and a reversed bracket, in every subcommand
    for k, (extra, key) in enumerate([("design.step=-1\n", "design.step"),
                                      ("design.tol=-1\n", "design.tol"),
                                      ("design.max_steps=0\n", "design.max_steps"),
                                      ("sweep.grid_n=1\n", "sweep.grid_n"),
                                      ("design.gamma=2\n", "design.gamma"),
                                      ("design.chord=0\n", "design.chord"),
                                      ("solver.bracket_lo=0.5\nsolver.bracket_hi=0.1\n",
                                       "bracket")]):
        cfg = _write_cfg(workdir, extra, name=f"range{k}.cfg")
        for cmd in ("solve", "design", "sweep"):
            assert main([cmd, "--config", cfg, "--out", str(workdir / "x.csv")]) == 2
            err = capsys.readouterr().err
            assert key in err and err.count("\n") == 1

    # non-finite numbers: an infinite radius once ended in a ZeroDivisionError, a
    # NaN tolerance ran Newton to max_iter, and a NaN radius gave nan rows
    for k, (extra, key) in enumerate([("turbine.radius=inf\n", "turbine.radius"),
                                      ("turbine.radius=nan\n", "radius"),
                                      ("turbine.radius=1.2\nsolver.tol=nan\n", "tolerances")]):
        cfg = _write_cfg(workdir, extra, base=BASE_CFG.replace("turbine.radius=1.2\n", ""),
                         name=f"finite{k}.cfg")
        for cmd in ("solve", "scan", "check"):
            assert main([cmd, "--config", cfg, "--out", str(workdir / "x.csv")]) == 2
            assert key in capsys.readouterr().err


def test_empty_default_bracket_fails_newton_and_bisection_only(workdir):
    # bracket_lo above theta = atan(1/1.75) = 0.519 and no bracket_hi: the
    # bracket (bracket_lo, theta) is empty, and only the bracketed methods need it
    cfg = _write_cfg(workdir, "run.lambda=1.75\nsolver.bracket_lo=0.6\n",
                     base=BASE_CFG.replace("run.lambda_count=5\n", ""), name="empty.cfg")
    out = workdir / "empty.csv"
    assert main(["solve", "--config", cfg, "--method", "all", "--out", str(out)]) == 1
    rows = {row["method"]: row for row in _rows(out)}
    assert sorted(rows) == ["bisect", "fixed", "newton", "usual"]
    for name in ("newton", "bisect"):
        assert rows[name]["root_category"] == "wrong_initial_guess"
    for name in ("usual", "fixed"):
        assert rows[name]["root_category"] == "principal"
        assert abs(float(rows[name]["residual"])) <= 1e-10


# ---------------------------------------------------------------------------
# fuzz: configs the schema accepts, through every subcommand

SUBCOMMANDS = (["solve", "--method", "all"], ["scan"], ["design"], ["sweep"], ["check"])
_FLAG = st.sampled_from(["true", "false"])
_FUZZ_POLARS = st.one_of(
    st.none(),  # the demo polar
    st.tuples(st.just("linear_lift"), st.fixed_dictionaries({
        "slope": st.floats(2.0, 8.0), "cd0": st.floats(0.0, 0.03),
        "cd2": st.floats(0.0, 0.5), "beta": st.floats(0.05, 0.6)})),
    st.tuples(st.just("linear_lift_with_stall"), st.fixed_dictionaries({
        "slope": st.floats(2.0, 8.0), "alpha_s": st.floats(0.1, 0.5),
        "drop": st.floats(0.0, 0.9), "transition": st.floats(0.01, 0.2),
        "cd0": st.floats(0.0, 0.03), "cd2": st.floats(0.0, 0.5)})),
)


@st.composite
def _fuzz_config(draw):
    """A config's text, without ``polar.path``: every variant, tip loss and strict
    mode on and off, the three design modes with small positive ascent settings,
    few lambdas and a small sweep grid."""
    lam_min = draw(st.floats(0.5, 2.0))
    mode = draw(st.sampled_from(["simplified", "fixed", "corrected"]))
    lines = ["turbine.blade_count=3", "turbine.radius=1.1", "turbine.upstream_speed=1.0",
             "turbine.rotation_speed=3.0", f"turbine.lambda_min={lam_min!r}",
             f"turbine.lambda_max={lam_min + draw(st.floats(0.1, 2.5))!r}",
             "correction.variant=" + draw(st.sampled_from(
                 ["none", "glauert3", "glauert_empirical", "buhl", "wilson_spera"])),
             f"correction.tip_loss={draw(_FLAG)}",
             f"correction.strict_lemma_mode={draw(_FLAG)}",
             f"run.lambda_count={draw(st.integers(1, 3))}", f"design.mode={mode}",
             f"design.step={draw(st.floats(1e-3, 0.5))!r}",
             f"design.tol={draw(st.floats(1e-6, 1e-2))!r}",
             f"design.max_steps={draw(st.integers(1, 4))}",
             f"sweep.grid_n={draw(st.integers(2, 4))}", f"sweep.refine={draw(_FLAG)}"]
    if mode == "fixed":
        lines += [f"design.gamma={draw(st.floats(-0.3, 0.6))!r}",
                  f"design.chord={draw(st.floats(0.01, 1.0))!r}"]
    return "\n".join(lines) + "\n"


@seed(20261019)
@settings(max_examples=80, deadline=None, database=None)
@given(polar=_FUZZ_POLARS, config=_fuzz_config())
def test_every_subcommand_exits_0_1_or_2_without_a_traceback(polar, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = DEMO / "polar.csv"
        if polar is not None:
            path = Path(tmp) / "polar.csv"
            dump_polar(synthetic_polar(polar[0], **polar[1]), path)
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(config + f"polar.path={path}\n")
        for command in SUBCOMMANDS:
            # an exception out of main fails the test
            _, err, code = run_main(command + ["--config", str(cfg),
                                               "--out", str(Path(tmp) / "out.csv")])
            assert code in (0, 1, 2), command
            assert code != 2 or err.count("\n") == 1 and err.endswith("\n"), (command, err)
            assert "Traceback" not in err, command


def test_console_script_is_installed(tmp_path):
    exe = shutil.which("bem")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout
    # the five subcommands through the script give the demo's golden outputs
    for name, command in COMMANDS.items():
        out = tmp_path / f"{name}.out"
        proc = subprocess.run([exe, *command, "--config", str(DEMO / "run.cfg"), "--out", str(out)],
                              capture_output=True, text=True)
        assert_matches_golden("demo", name,
                              (out.read_text(), proc.stdout, proc.stderr, proc.returncode))
    # an output that cannot be written: exit 2 and one error line from the script too
    proc = subprocess.run([exe, "check", "--config", str(DEMO / "run.cfg"),
                           "--out", str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write {tmp_path}: Is a directory\n"
