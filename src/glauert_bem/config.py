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

Unknown keys are rejected.  A turbine, polar, correction or solver key
left out takes the default of the object it configures, after the
reference protocol (tol=1e-10, epsilon=1, bracket (1e-4, theta),
per-variant a_c); the run keys' defaults and range checks live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

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


# key -> (converter tag, default); REQUIRED: no default; OWN: a key of an object's
# section, passed only where the file sets it, so the object's own default applies
_REQUIRED, _OWN = object(), object()
_SCHEMA = {
    "turbine.blade_count": ("int", _OWN),
    "turbine.radius": ("float", _REQUIRED),
    "turbine.fluid_density": ("float", _OWN),
    "turbine.upstream_speed": ("float", _REQUIRED),
    "turbine.rotation_speed": ("float", _REQUIRED),
    "turbine.lambda_min": ("float", _OWN),
    "turbine.lambda_max": ("float", _OWN),
    "polar.path": ("str", _REQUIRED),
    "polar.beta": ("float", _OWN),
    "polar.alpha_s": ("float", _OWN),
    "polar.clamp_cl": ("bool", _OWN),
    "correction.variant": ("str", _OWN),
    "correction.a_c": ("float", _OWN),
    "correction.tip_loss": ("bool", _OWN),
    "correction.strict_lemma_mode": ("bool", _OWN),
    "solver.tol": ("float", _OWN),
    "solver.max_iter": ("int", _OWN),
    "solver.epsilon": ("float", _OWN),
    "solver.phi0": ("float", _OWN),
    "solver.bracket_lo": ("float", _OWN),
    "solver.bracket_hi": ("float", _OWN),
    "solver.phi_tol": ("float", _OWN),
    "run.lambda": ("float", None),
    "run.lambda_count": ("int", None),
    "design.mode": ("str", "simplified"),
    "design.gamma": ("float", None),
    "design.chord": ("float", None),
    "design.step": ("float", 1e-2),
    "design.tol": ("float", 1e-6),
    "design.max_steps": ("int", 10_000),
    "sweep.grid_n": ("int", 50),
    "sweep.refine": ("bool", False),
    "output.path": ("str", None),
}


@dataclass
class RunConfig:
    turbine: TurbineConfig
    polar: PolarTable
    correction: CorrectionSpec
    solver: SolveOptions
    lambdas: list
    design_mode: str
    design_gamma: Optional[float]
    design_chord: Optional[float]
    design_step: float
    design_tol: float
    design_max_steps: int
    sweep_grid_n: int
    sweep_refine: bool
    output_path: Optional[str]


def _read_pairs(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    values = {}
    for lineno, line in _content_lines(text):
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val
    return values


# keys that configure no object of their section: the polar file's location
_NOT_KEYWORDS = ("polar.path",)


def _section(cfg, name):
    """Keyword arguments from the keys of one schema section: the name after the dot."""
    return {key.partition(".")[2]: value for key, value in cfg.items()
            if key.startswith(name + ".") and key not in _NOT_KEYWORDS}


def parse_config(path) -> RunConfig:
    """Parse and validate a run configuration file."""
    raw = _read_pairs(path)
    cfg = {}
    for key, (kind, default) in _SCHEMA.items():
        if key in raw:
            convert, expected = _CONVERT[kind]
            try:
                cfg[key] = convert(raw[key])
            except (ValueError, KeyError):
                raise ConfigError(f"{key}: expected {expected}, got {raw[key]!r}")
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        elif default is not _OWN:
            cfg[key] = default

    base = Path(path).parent
    polar_path = base / cfg["polar.path"]  # an absolute path replaces base
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

    lam_single, lam_count = cfg["run.lambda"], cfg["run.lambda_count"]
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

    mode = cfg["design.mode"]
    if mode not in ("fixed", "simplified", "corrected"):
        raise ConfigError(f"design.mode must be fixed|simplified|corrected, got {mode!r}")
    if mode == "fixed" and (cfg["design.gamma"] is None or cfg["design.chord"] is None):
        raise ConfigError("design.mode=fixed requires design.gamma and design.chord")
    if cfg["design.chord"] is not None and not cfg["design.chord"] > 0.0:
        raise ConfigError("design.chord must be positive")
    if cfg["design.gamma"] is not None and not abs(cfg["design.gamma"]) < math.pi / 2.0:
        raise ConfigError("design.gamma must satisfy |gamma| < pi/2")
    for key in ("design.step", "design.tol"):
        if not cfg[key] > 0.0:
            raise ConfigError(f"{key} must be positive")
    if cfg["design.max_steps"] < 1:
        raise ConfigError("design.max_steps must be >= 1")
    if cfg["sweep.grid_n"] < 2:
        raise ConfigError("sweep.grid_n must be >= 2")

    return RunConfig(
        turbine=turbine, polar=polar, correction=correction, solver=solver,
        lambdas=lambdas, design_mode=mode,
        design_gamma=cfg["design.gamma"], design_chord=cfg["design.chord"],
        design_step=cfg["design.step"], design_tol=cfg["design.tol"],
        design_max_steps=cfg["design.max_steps"],
        sweep_grid_n=cfg["sweep.grid_n"], sweep_refine=cfg["sweep.refine"],
        output_path=str(base / cfg["output.path"]) if cfg["output.path"] else None,
    )
