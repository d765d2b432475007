import inspect
import math
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glauert_bem import (ConfigError, CorrectionSpec, DesignEvaluationError, DomainError,
                         ElementGeometry, SolveOptions, TurbineConfig, ValidationError, cp_sweep,
                         optimize_element, synthetic_polar)
from glauert_bem.config import _CONVERT, _SCHEMA, parse_config
from glauert_bem.polar import dump_polar

# every key but run.lambda_count (it excludes run.lambda), none at its default
NON_DEFAULT = {
    "turbine.blade_count": "2",
    "turbine.radius": "1.3",
    "turbine.fluid_density": "1.1",
    "turbine.upstream_speed": "2.0",
    "turbine.rotation_speed": "4.0",
    "turbine.lambda_min": "0.9",
    "turbine.lambda_max": "2.5",
    "polar.path": "wing.csv",
    "polar.beta": "0.3",
    "polar.alpha_s": "0.35",
    "polar.clamp_cl": "yes",
    "correction.variant": "buhl",
    "correction.a_c": "0.35",
    "correction.tip_loss": "on",
    "correction.strict_lemma_mode": "false",
    "solver.tol": "1e-9",
    "solver.max_iter": "500",
    "solver.epsilon": "0.5",
    "solver.phi0": "0.3",
    "solver.bracket_lo": "0.01",
    "solver.bracket_hi": "0.7",
    "solver.phi_tol": "1e-11",
    "run.lambda": "1.5",
    "design.mode": "fixed",
    "design.gamma": "0.1",
    "design.chord": "0.25",
    "design.step": "0.05",
    "design.tol": "1e-5",
    "design.max_steps": "50",
    "sweep.grid_n": "7",
    "sweep.refine": "true",
    "output.path": "out.csv",
}

MINIMAL = {"turbine.radius": "1.2", "turbine.upstream_speed": "1.0",
           "turbine.rotation_speed": "3.0", "polar.path": "wing.csv",
           "run.lambda_count": "4"}


@pytest.fixture
def workdir(tmp_path):
    polar = synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01, beta=0.4)
    dump_polar(polar, tmp_path / "wing.csv")
    return tmp_path


def _write(workdir, pairs, extra=""):
    path = workdir / "run.cfg"
    path.write_text("".join(f"{key}={value}\n" for key, value in pairs.items()) + extra)
    return path


def _error(workdir, pairs, extra=""):
    with pytest.raises(ConfigError) as info:
        parse_config(_write(workdir, pairs, extra))
    return str(info.value)


def test_every_key_configures_its_object(workdir):
    assert set(NON_DEFAULT) | {"run.lambda_count"} == set(_SCHEMA)
    cfg = parse_config(_write(workdir, NON_DEFAULT))
    tb = cfg.turbine
    assert (tb.blade_count, tb.radius, tb.fluid_density, tb.upstream_speed,
            tb.rotation_speed, tb.lambda_min, tb.lambda_max) == (2, 1.3, 1.1, 2.0, 4.0, 0.9, 2.5)
    assert (cfg.polar.label, cfg.polar.beta, cfg.polar.alpha_s, cfg.polar.clamp_cl) == (
        "wing", 0.3, 0.35, True)
    corr = cfg.correction
    assert (corr.variant, corr.a_c, corr.tip_loss, corr.strict_lemma_mode) == (
        "buhl", 0.35, True, False)
    opts = cfg.solver
    assert (opts.tol, opts.max_iter, opts.epsilon, opts.phi0, opts.bracket_lo,
            opts.bracket_hi, opts.phi_tol) == (1e-9, 500, 0.5, 0.3, 0.01, 0.7, 1e-11)
    assert cfg.lambdas == [1.5]
    assert (cfg.design_mode, cfg.design_gamma, cfg.design_chord, cfg.design_step,
            cfg.design_tol, cfg.design_max_steps) == ("fixed", 0.1, 0.25, 0.05, 1e-5, 50)
    assert (cfg.sweep_grid_n, cfg.sweep_refine) == (7, True)
    assert cfg.output_path == str(workdir / "out.csv")


def test_object_keys_are_read_off_the_fields_of_their_classes():
    assert all(tag in _CONVERT for tag, _ in _SCHEMA.values())
    assert {key for key, (_, required) in _SCHEMA.items() if required} == {
        "turbine.radius", "turbine.upstream_speed", "turbine.rotation_speed", "polar.path"}
    objects = {key: tag for key, (tag, _) in _SCHEMA.items()
               if key.startswith(("turbine.", "correction.", "solver."))}
    assert {key: tag for key, tag in objects.items() if tag != "float"} == {
        "turbine.blade_count": "int", "correction.variant": "str",
        "correction.tip_loss": "bool", "correction.strict_lemma_mode": "bool",
        "solver.max_iter": "int"}
    assert len(objects) == 18


def test_run_config_defaults_equal_the_library_defaults(workdir):
    # a run key left out takes the keyword default of the function it configures
    cfg = parse_config(_write(workdir, MINIMAL))
    optimize = inspect.signature(optimize_element).parameters
    assert (cfg.design_step, cfg.design_tol, cfg.design_max_steps) == (
        optimize["step"].default, optimize["tol"].default, optimize["max_steps"].default)
    assert cfg.sweep_grid_n == inspect.signature(cp_sweep).parameters["grid_n"].default


def _readme_config_keys():
    """The keys that the first column of README's Configuration table names; a
    ``/``-joined name such as ``turbine.lambda_min/max`` names both keys."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration", 1)[1].split("\n### ", 1)[0]
    keys = set()
    for row in re.findall(r"^\| (.+?) \|", section, re.MULTILINE):
        for name in re.findall(r"`([^`]+)`", row):
            first, *others = name.split("/")
            keys |= {first} | {first.rpartition("_")[0] + "_" + other for other in others}
    return keys


def test_readme_names_every_config_key():
    assert _readme_config_keys() == set(_SCHEMA)


def test_lambda_count_spans_the_turbine_range(workdir):
    cfg = parse_config(_write(workdir, {**MINIMAL, "turbine.lambda_min": "1.0",
                                        "turbine.lambda_max": "2.5"}))
    assert cfg.lambdas == [1.0, 1.5, 2.0, 2.5]
    assert all(type(lam) is float for lam in cfg.lambdas)


@pytest.mark.parametrize("key, value, expected", [
    ("turbine.blade_count", "3.0", "an integer"),
    ("turbine.radius", "wide", "a number"),
    ("correction.tip_loss", "maybe", "a boolean"),
])
def test_bad_values_name_the_expected_type(workdir, key, value, expected):
    message = _error(workdir, {**MINIMAL, key: value})
    assert message == f"{key}: expected {expected}, got {value!r}"


def test_unknown_duplicate_and_missing_keys(workdir):
    assert _error(workdir, MINIMAL, "turbine.radious=1.0\n") == (
        "line 6: unknown key 'turbine.radious'")
    assert _error(workdir, MINIMAL, "turbine.radius=1.0\n") == (
        "line 6: duplicate key 'turbine.radius'")
    missing = {k: v for k, v in MINIMAL.items() if k != "turbine.upstream_speed"}
    assert _error(workdir, missing) == "missing required key 'turbine.upstream_speed'"
    assert _error(workdir, MINIMAL, "turbine.radius 1.0\n") == (
        "line 6: expected key=value, got 'turbine.radius 1.0'")
    gone = workdir / "gone.cfg"
    with pytest.raises(ConfigError, match=f"^cannot read config file {gone}: "):
        parse_config(gone)


def test_lambdas_and_design_mode_are_config_errors(workdir):
    no_lambda = {k: v for k, v in MINIMAL.items() if k != "run.lambda_count"}
    assert _error(workdir, no_lambda) == "missing run.lambda or run.lambda_count"
    assert _error(workdir, {**no_lambda, "run.lambda": "3.5"}) == (
        "run.lambda outside [lambda_min, lambda_max]")
    assert _error(workdir, {**MINIMAL, "design.mode": "optimal"}) == (
        "design.mode must be fixed|simplified|corrected, got 'optimal'")
    for given in ("design.gamma", "design.chord"):
        assert _error(workdir, {**MINIMAL, "design.mode": "fixed", given: "0.1"}) == (
            "design.mode=fixed requires design.gamma and design.chord")


def test_single_lambda_excludes_a_lambda_count(workdir):
    assert _error(workdir, {**MINIMAL, "run.lambda": "1.0"}) == (
        "give either run.lambda or run.lambda_count, not both")


def test_object_validation_becomes_a_config_error(workdir):
    assert "unknown correction variant 'glauert2'" in _error(
        workdir, {**MINIMAL, "correction.variant": "glauert2"})


def test_unset_object_keys_take_the_object_defaults(workdir):
    cfg = parse_config(_write(workdir, MINIMAL))
    assert cfg.turbine == TurbineConfig(radius=1.2, upstream_speed=1.0, rotation_speed=3.0)
    assert cfg.correction == CorrectionSpec()
    assert cfg.solver == SolveOptions()
    # a CSV holds no beta: it defaults to alpha_s, the sampled argmax of cl
    assert (cfg.polar.beta, cfg.polar.alpha_s, cfg.polar.clamp_cl) == (1.2, 1.2, False)


@pytest.mark.parametrize("key, value, rule", [
    pytest.param("design.step", "-1", "must be positive and finite",
                 id="design.step--1-must be positive"),
    pytest.param("design.step", "0", "must be positive and finite",
                 id="design.step-0-must be positive"),
    ("design.tol", "-1", "must be >= 0"),
    ("design.tol", "nan", "must be >= 0"),
    pytest.param("design.max_steps", "0", "must be an integer >= 1",
                 id="design.max_steps-0-must be >= 1"),
    pytest.param("sweep.grid_n", "1", "must be an integer >= 2",
                 id="sweep.grid_n-1-must be >= 2"),
    ("run.lambda_count", "0", "must be >= 1"),
    pytest.param("design.chord", "0", "must be positive and finite",
                 id="design.chord-0-must be positive"),
    ("design.gamma", "-1.6", "must satisfy |gamma| < pi/2"),
])
def test_run_settings_out_of_range_are_config_errors(workdir, key, value, rule):
    # checked whatever the design mode: MINIMAL runs the simplified design
    assert _error(workdir, {**MINIMAL, key: value}) == f"{key} {rule}"


def test_a_zero_design_tolerance_parses(workdir):
    # the library's rule, tol >= 0: the ascent then runs until no step is acceptable
    assert parse_config(_write(workdir, {**MINIMAL, "design.tol": "0"})).design_tol == 0.0


# a start without power, which optimize_element refuses after its settings pass
_NO_POWER = (ElementGeometry(lam=3.0, r=0.5, gamma=-0.0625, chord=1.5, tip_radius=1.0),
             synthetic_polar("linear_lift", slope=3.0, cd0=0.0, cd2=0.125, beta=0.4),
             CorrectionSpec(variant="glauert_empirical"))


def _no_design(lam):
    raise DomainError("no design")


def _library_rule(key, value):
    """The message with which the function that takes run key ``key`` refuses
    ``value``, or None where it takes it and goes on to its first solve."""
    turbine = TurbineConfig(radius=1.2, upstream_speed=1.0, rotation_speed=3.0)
    name = key.partition(".")[2]
    try:
        if key == "sweep.grid_n":  # every element fails: DomainError once the grid is made
            cp_sweep(turbine, _NO_POWER[1], _NO_POWER[2], _no_design, grid_n=value)
        elif name in ("gamma", "chord"):  # the fixed design's elements
            ElementGeometry.from_turbine(turbine, 1.0, **{"gamma": 0.1, "chord": 0.2, name: value})
        else:
            optimize_element(*_NO_POWER, **{name: value})
    except ValidationError as exc:
        assert str(exc).startswith(f"{name} ")  # each rule names its parameter first
        return str(exc).partition(" ")[2]
    except (DesignEvaluationError, DomainError):
        pass
    return None


_FINITE_OR_NAN = st.floats(allow_infinity=False) | st.just(math.nan)


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key_value=st.one_of(
    st.tuples(st.sampled_from(["design.step", "design.tol", "design.gamma", "design.chord"]),
              _FINITE_OR_NAN | st.floats(-2.0, 2.0)),
    st.tuples(st.sampled_from(["design.max_steps", "sweep.grid_n"]), st.integers(-5, 300))))
def test_config_and_library_refuse_the_same_run_settings(workdir, key_value):
    # an infinity is no number to the config reader (the library refuses one
    # too, but for tol): the range rules are drawn on finite numbers and NaN
    key, value = key_value
    rule = _library_rule(key, value)
    if rule is None:
        parse_config(_write(workdir, {**MINIMAL, key: repr(value)}))
    else:
        assert _error(workdir, {**MINIMAL, key: repr(value)}) == f"{key} {rule}"


def test_reversed_solver_bracket_is_a_config_error(workdir):
    message = _error(workdir, {**MINIMAL, "solver.bracket_lo": "0.5",
                               "solver.bracket_hi": "0.1"})
    assert message == "bracket endpoints must satisfy lo < hi"


DEMO = Path(__file__).resolve().parents[1] / "demo"


def _fields(cfg):
    """Every field of a parsed config, the polar by its samples."""
    return {**vars(cfg), "polar": cfg.polar.samples}


@pytest.mark.parametrize("text", [
    *[f"# note{sep}design.mode=fixed\n" for sep in
      ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")],
    "\r\n", "\r",
], ids=lambda text: {"\r\n": "CRLF", "\r": "CR"}.get(text) or f"U+{ord(text[6]):04X}")
def test_only_a_newline_ends_a_config_line(tmp_path, text):
    # str.splitlines() also ends a line at each character inside the comment,
    # so the rest of the comment would be read as a key (here a duplicate one);
    # CRLF and CR line ends are read as "\n"
    shutil.copy(DEMO / "polar.csv", tmp_path)
    demo = (DEMO / "run.cfg").read_text(encoding="utf-8")
    text = demo.replace("\n", text) if text[0] == "\r" else demo + text
    (tmp_path / "run.cfg").write_bytes(text.encode("utf-8"))
    assert _fields(parse_config(tmp_path / "run.cfg")) == _fields(parse_config(DEMO / "run.cfg"))
