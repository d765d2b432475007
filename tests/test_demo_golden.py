"""Golden output of the five ``bem`` subcommands on ``demo/run.cfg``, on
its copies under the four other correction variants and on its
corrected-design copy, and of ``bem scan`` and ``bem sweep`` on its copy
whose batches hold failing elements.

Each subcommand runs through ``cli.main``; its CSV (or report) file, its
stdout, its stderr (the ``bem`` log included) and its exit code are
compared with the files under ``tests/golden/``.  Text fields and exit
codes must match exactly, floats to 1e-12 relative.  To write the golden
files again (only on purpose, from a tree whose output is the reference)::

    PYTHONPATH=src python tests/test_demo_golden.py
"""

import io
import json
import logging
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from glauert_bem.cli import main

from conftest import run_main

ROOT = Path(__file__).resolve().parent.parent
DEMO_CFG = ROOT / "demo" / "run.cfg"
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "solve": ["solve", "--method", "all"],
    "scan": ["scan"],
    "design": ["design"],
    "sweep": ["sweep"],
    "check": ["check"],
}
# Copies of the demo: a line that sets a key on the left is replaced by the
# line on the right.
POLAR_LINE = {"polar.path": f"polar.path={DEMO_CFG.parent / 'polar.csv'}"}
CORRECTED_LINES = {
    **POLAR_LINE,
    "design.mode": "design.mode=corrected",
    "run.lambda_count": "run.lambda=1.4",
    "sweep.grid_n": "sweep.grid_n=3",
    "sweep.refine": "sweep.refine=false",
}
CORRECTED_COMMANDS = tuple(COMMANDS)
# a fixed design whose scan and sweep batches hold failing elements: lambda 0.6
# and 3 have no root below phi_upper, lambda 1.8 has one
FAILING_LINES = {
    **POLAR_LINE,
    "design.mode": "design.mode=fixed\ndesign.gamma=0.4\ndesign.chord=0.05",
    "run.lambda_count": "run.lambda_count=3",
    "sweep.grid_n": "sweep.grid_n=3",
    "sweep.refine": "sweep.refine=false",
}
FAILING_COMMANDS = ("scan", "sweep")
# the demo runs wilson_spera; the golden files of the others carry the variant's name
VARIANTS = ("glauert3", "glauert_empirical", "buhl", "none")


def variant_lines(variant):
    return {**POLAR_LINE, "correction.variant": f"correction.variant={variant}"}
REL_TOL = 1e-12
_FLOAT = re.compile(r"[-+]?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?|[-+]?inf")
_SEPARATORS = re.compile(r"([,=()\s]+)")


def run_demo(name, out_path, cfg=DEMO_CFG):
    """(output file text, stdout, stderr, exit code) of one subcommand."""
    out, err, code = run_main(COMMANDS[name] + ["--config", str(cfg), "--out", str(out_path)])
    return Path(out_path).read_text(), out, err, code


def write_config(directory, name, replaced):
    """The copy ``name`` of ``demo/run.cfg`` with the lines ``replaced``, written
    to ``directory``."""
    lines = [replaced.get(line.split("=", 1)[0], line)
             for line in DEMO_CFG.read_text().splitlines()]
    path = Path(directory) / f"{name}.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


def _is_float(token):
    # a decimal point or an exponent marks a float cell; integers stay text
    return bool(_FLOAT.fullmatch(token)) and any(ch in token for ch in ".eEi")


def mismatches(expected, got):
    """Lines where ``got`` differs from ``expected`` beyond the float tolerance."""
    exp_lines, got_lines = expected.splitlines(), got.splitlines()
    if len(exp_lines) != len(got_lines):
        return [f"{len(got_lines)} lines, expected {len(exp_lines)}"]
    bad = []
    for k, (exp, out) in enumerate(zip(exp_lines, got_lines)):
        exp_tokens, out_tokens = _SEPARATORS.split(exp), _SEPARATORS.split(out)
        same = len(exp_tokens) == len(out_tokens)
        for a, b in zip(exp_tokens, out_tokens) if same else ():
            if a == b:
                continue
            if not (_is_float(a) and _is_float(b)):
                same = False
                break
            x, y = float(a), float(b)
            if not abs(x - y) <= REL_TOL * max(abs(x), abs(y)):
                same = False
                break
        if not same:
            bad.append(f"line {k + 1}: {out!r}, expected {exp!r}")
    return bad


def assert_matches_golden(prefix, name, result):
    """One :func:`run_demo` result against the golden files of ``prefix``."""
    text, out, err, code = result
    streams = json.loads((GOLDEN / f"{prefix}_streams.json").read_text())[name]
    assert code == streams["exit"]
    assert mismatches((GOLDEN / f"{prefix}_{name}.out").read_text(), text) == []
    assert mismatches(streams["stdout"], out) == []
    assert mismatches(streams["stderr"], err) == []


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_demo_output_matches_golden(name, tmp_path):
    assert_matches_golden("demo", name, run_demo(name, tmp_path / f"{name}.out"))


@pytest.mark.parametrize("name", CORRECTED_COMMANDS)
def test_corrected_design_output_matches_golden(name, tmp_path):
    cfg = write_config(tmp_path, "corrected", CORRECTED_LINES)
    assert_matches_golden("corrected", name, run_demo(name, tmp_path / f"{name}.out", cfg))


@pytest.mark.parametrize("name", FAILING_COMMANDS)
def test_failing_elements_output_matches_golden(name, tmp_path):
    cfg = write_config(tmp_path, "failing", FAILING_LINES)
    assert_matches_golden("failing", name, run_demo(name, tmp_path / f"{name}.out", cfg))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_other_variant_output_matches_golden(name, variant, tmp_path):
    cfg = write_config(tmp_path, variant, variant_lines(variant))
    assert_matches_golden(variant, name, run_demo(name, tmp_path / f"{name}.out", cfg))


def test_one_process_runs_every_subcommand_twice_alike(tmp_path):
    # main parses with one parser built at import: an argparse error or a config
    # error between two runs of a subcommand must leave the second run's output,
    # streams and exit code those of the first
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("bogus.key=1\n")
    runs, failures = [{}, {}], []
    for k, run in enumerate(runs):
        for name in COMMANDS:
            err = io.StringIO()
            with redirect_stderr(err), pytest.raises(SystemExit) as stop:
                main(["scan", "--method", "newton", "--config", str(DEMO_CFG)])
            failures.append((stop.value.code, err.getvalue()))
            run[name] = run_demo(name, tmp_path / f"{name}{k}.out")
            err = io.StringIO()
            with redirect_stderr(err):
                failures.append((main(["check", "--config", str(bad_cfg)]), err.getvalue()))
    assert runs[1] == runs[0]
    assert failures[0][0] == 2
    assert failures[0][1].endswith("bem: error: unrecognized arguments: --method newton\n")
    assert failures[1] == (2, "config error: line 1: unknown key 'bogus.key'\n")
    assert failures == failures[:2] * len(runs) * len(COMMANDS)
    for name, result in runs[0].items():
        assert_matches_golden("demo", name, result)


def test_each_run_logs_once_to_its_own_stderr(tmp_path):
    # the bem log was bound to the stderr of the first run in a process, so a
    # second run's warnings went to the first run's stream; a handler of the
    # root logger on the same stream must not write them again
    cfg = write_config(tmp_path, "failing", FAILING_LINES)
    expected = json.loads((GOLDEN / "failing_streams.json").read_text())["scan"]["stderr"]
    root = logging.getLogger()
    before = root.handlers[:], root.level
    errs = [io.StringIO(), io.StringIO()]
    echo = logging.StreamHandler(errs[1])
    for k, err in enumerate(errs):
        if k:
            root.addHandler(echo)
        try:
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                assert main(["scan", "--config", str(cfg),
                             "--out", str(tmp_path / f"{k}.csv")]) == 0
        finally:
            root.removeHandler(echo)
    assert expected.count("\n") == 2
    assert [err.getvalue() for err in errs] == [expected, expected]
    assert (root.handlers, root.level) == before
    bem = logging.getLogger("bem")
    assert (bem.handlers, bem.level, bem.propagate) == ([], logging.NOTSET, True)


def test_comparison_tolerates_last_digits_only():
    assert mismatches("1,0.30000000000000004,x", "1,0.3,x") == []
    assert mismatches("1,0.3,x", "1,0.3000001,x") != []
    assert mismatches("1,0.3,x", "2,0.3,x") != []       # integers are exact
    assert mismatches("a=1.5 PASS", "a=1.5 FAIL") != []  # text is exact
    assert mismatches("nan,1.0", "nan,1.0") == []
    assert mismatches("1.0", "1.0\n2.0") != []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = [("demo", COMMANDS, DEMO_CFG),
                ("corrected", CORRECTED_COMMANDS,
                 write_config(tmp, "corrected", CORRECTED_LINES)),
                ("failing", FAILING_COMMANDS, write_config(tmp, "failing", FAILING_LINES))]
        runs += [(variant, COMMANDS, write_config(tmp, variant, variant_lines(variant)))
                 for variant in VARIANTS]
        for prefix, names, config in runs:
            streams = {}
            for name in names:
                text, out, err, code = run_demo(name, Path(tmp) / f"{name}.out", config)
                (GOLDEN / f"{prefix}_{name}.out").write_text(text)
                streams[name] = {"exit": code, "stdout": out, "stderr": err}
            (GOLDEN / f"{prefix}_streams.json").write_text(json.dumps(streams, indent=1) + "\n")
    print(f"wrote {sum(len(names) for _, names, _ in runs)} golden outputs to {GOLDEN}")
