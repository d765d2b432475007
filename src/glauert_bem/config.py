"""Run configuration: flat key=value files with dotted section prefixes.

Example::

    # three-bladed rotor, corrected model
    turbine.radius=1.1
    turbine.upstream_speed=1.0
    turbine.rotation_speed=2.7273
    correction.variant=wilson_spera
    correction.tip_loss=true
    polar.path=sample_polar.csv
    run.lambda_count=30
    design.mode=simplified
    output.path=out.csv

Unknown keys are rejected.  The turbine, correction and solver keys are
the fields of TurbineConfig, CorrectionSpec and SolveOptions, and the
design, sweep and output keys the defaulted fields of RunConfig, all read
off the classes.  Every default lives on the field it configures,
RunConfig included (its ascent and grid defaults are those of
optimize_element and cp_sweep): a key left out is not passed on, so it
takes the default of its object (``load_polar``'s for the polar keys),
after the reference protocol (tol=1e-10, epsilon=1, bracket (1e-4,
theta), per-variant a_c).  The schema keeps only each key's converter tag
and whether it is required; the run keys' range checks live here.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .design import cp_sweep, optimize_element
from .errors import BemError, ConfigError
from .model import CorrectionSpec, TurbineConfig
from .polar import PolarTable, _content_lines, load_polar
from .solvers import SolveOptions

_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _number(raw):
    """float(raw), refusing an infinity: no setting can take one.  NaN passes
    here and fails the range check of its key, which names the rule."""
    value = float(raw)
    if math.isinf(value):
        raise ValueError(raw)
    return value


# converter tag -> (function of the raw text, what a bad value was expected to be);
# the function raises ValueError or KeyError on a bad value
_CONVERT = {"int": (int, "an integer"), "float": (_number, "a number"),
            "bool": (lambda raw: _BOOLS[raw.lower()], "a boolean"),
            "str": (str, None)}


_OPT = inspect.signature(optimize_element).parameters


@dataclass
class RunConfig:
    """A parsed run: the objects it configures, its lambdas, and the run's own
    settings, whose fields with a default are the ``design.*``, ``sweep.*`` and
    ``output.path`` keys (``design_step`` stands for ``design.step``).  The
    ascent and grid defaults are those of optimize_element and cp_sweep."""

    turbine: TurbineConfig
    polar: PolarTable
    correction: CorrectionSpec
    solver: SolveOptions
    lambdas: list
    design_mode: str = "simplified"
    design_gamma: float = None
    design_chord: float = None
    design_step: float = _OPT["step"].default
    design_tol: float = _OPT["tol"].default
    design_max_steps: int = _OPT["max_steps"].default
    sweep_grid_n: int = inspect.signature(cp_sweep).parameters["grid_n"].default
    sweep_refine: bool = False
    output_path: str = None


def _fields(section, cls):
    """The schema entries ``key -> (converter tag, required)`` of a dataclass's
    fields: key ``section.field``, the annotation as converter tag (Optional[float]
    read as float), required where the field has no default."""
    return {f"{section}.{f.name}": (f.type.replace("Optional[float]", "float"),
                                    f.default is MISSING)
            for f in fields(cls)}


# RunConfig's defaulted fields are the run's own keys, the first _ read as the dot
_RUN = {f.name.replace("_", ".", 1): (f.type, False)
        for f in fields(RunConfig) if f.default is not MISSING}
_SCHEMA = {
    **_fields("turbine", TurbineConfig),
    "polar.path": ("str", True),
    "polar.beta": ("float", False),
    "polar.alpha_s": ("float", False),
    "polar.clamp_cl": ("bool", False),
    **_fields("correction", CorrectionSpec),
    **_fields("solver", SolveOptions),
    "run.lambda": ("float", False),
    "run.lambda_count": ("int", False),
    **_RUN,
}


def _read_pairs(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    values = {}
    for lineno, line in _content_lines(text):
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, val = map(str.strip, line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val
    return values


def _section(cfg, name):
    """Keyword arguments from the keys of one schema section: the name after the dot."""
    return {key.partition(".")[2]: value for key, value in cfg.items()
            if key.startswith(name + ".")}


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    raw = _read_pairs(path)
    cfg = {}
    for key, (kind, required) in _SCHEMA.items():
        if key in raw:
            convert, expected = _CONVERT[kind]
            try:
                cfg[key] = convert(raw[key])
            except (ValueError, KeyError):
                raise ConfigError(f"{key}: expected {expected}, got {raw[key]!r}")
        elif required:
            raise ConfigError(f"missing required key {key!r}")

    base = Path(path).parent
    # the polar file's location is no keyword of load_polar
    polar_path = base / cfg.pop("polar.path")  # an absolute path replaces base
    if not polar_path.exists():
        raise ConfigError(f"polar file not found: {polar_path}")

    try:
        turbine = TurbineConfig(**_section(cfg, "turbine"))
        polar = load_polar(polar_path, **_section(cfg, "polar"))
        correction = CorrectionSpec(**_section(cfg, "correction"))
        solver = SolveOptions(**_section(cfg, "solver"))
    except BemError as exc:
        raise ConfigError(str(exc))
    except OSError as exc:  # the polar path names a directory or an unreadable file
        raise ConfigError(f"cannot read polar file {polar_path}: {exc.strerror or exc}")

    lam_single, lam_count = cfg.get("run.lambda"), cfg.get("run.lambda_count")
    if lam_single is not None and lam_count is not None:
        raise ConfigError("give either run.lambda or run.lambda_count, not both")
    if lam_single is not None:
        if not turbine.lambda_min <= lam_single <= turbine.lambda_max:
            raise ConfigError("run.lambda outside [lambda_min, lambda_max]")
        lambdas = [lam_single]
    elif lam_count is not None:
        if lam_count < 1:
            raise ConfigError("run.lambda_count must be >= 1")
        lambdas = np.linspace(turbine.lambda_min, turbine.lambda_max, lam_count).tolist()
    else:
        raise ConfigError("missing run.lambda or run.lambda_count")

    # output.path left out or empty: stdout; a relative one is taken from base
    cfg["output.path"] = str(base / cfg["output.path"]) if cfg.get("output.path") else None
    run = RunConfig(turbine, polar, correction, solver, lambdas,
                    **{key.replace(".", "_"): cfg[key] for key in _RUN if key in cfg})
    if run.design_mode not in ("fixed", "simplified", "corrected"):
        raise ConfigError(f"design.mode must be fixed|simplified|corrected, got {run.design_mode!r}")
    if run.design_mode == "fixed" and (run.design_gamma is None or run.design_chord is None):
        raise ConfigError("design.mode=fixed requires design.gamma and design.chord")
    if run.design_chord is not None and not run.design_chord > 0.0:
        raise ConfigError("design.chord must be positive")
    if run.design_gamma is not None and not abs(run.design_gamma) < math.pi / 2.0:
        raise ConfigError("design.gamma must satisfy |gamma| < pi/2")
    for key, value in (("design.step", run.design_step), ("design.tol", run.design_tol)):
        if not value > 0.0:
            raise ConfigError(f"{key} must be positive")
    if run.design_max_steps < 1:
        raise ConfigError("design.max_steps must be >= 1")
    if run.sweep_grid_n < 2:
        raise ConfigError("sweep.grid_n must be >= 2")
    return run
