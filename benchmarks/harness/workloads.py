"""The three seeded workloads: inputs, units and canonical outputs.

Every workload is a single caller in a closed loop: a unit is issued only
after the previous one returned.  Inputs depend on the seed alone; the
only program result they use is ``blade_design``'s start design, the
simplified optimum.  A unit's output is reduced to a canonical,
JSON-serialisable form that the correctness gate checks and that two runs
of the same code must reproduce exactly.

* ``element_solve``: fixed elements through all four ``METHODS`` and
  ``scan_roots``; one call is one unit.
* ``rotor_cli``: rotor configs through ``glauert_bem.cli.main``, all five
  subcommands per rotor; one subcommand call is one unit.
* ``blade_design``: ``optimize_element`` from simplified optima with the
  settings of acceptance criterion 07; one optimize call is one unit.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VARIANTS = ("none", "glauert3", "glauert_empirical", "buhl", "wilson_spera")
SOLVER_KINDS = ("usual", "fixed", "newton", "bisect")
ROOT_CATEGORIES = ("principal", "negative_lift_branch", "stall_branch", "correction_branch")
SUBCOMMANDS = ("solve", "scan", "design", "sweep", "check")
DEMO_CONFIG = Path("demo") / "run.cfg"
DEMO_POLAR = Path("demo") / "polar.csv"
DEMO_GLIDE = 0.2  # best glide angle of the demo polar, rounded; an input, not a result

BLOCK = 20             # 5 variants x tip loss on/off, twice
ELEMENTS = 40          # element_solve: 5 units each
SEEDED_ROTORS = 4      # rotor_cli: besides the demo rotor, 5 units each
STALL_POLARS = 6
# Tip-speed ratios of element_solve, chosen so that no solve fails.  Below
# about 1.15 the classical iteration cycles on some elements; without a
# high-induction correction, elements above about 1.8 can have two roots
# inside the default bracket (bisection cannot start) or none near theta
# (Newton cannot converge).  Negative twist offsets and chord factors above
# 1.5 make both more frequent, so those ranges start at 0 and end at 1.5.
ELEMENT_LAMBDAS = (1.2, 2.6)
NONE_LAMBDAS = (1.2, 1.8)


@dataclass
class Unit:
    """One closed-loop call: what it runs and the input properties it has."""

    uid: int
    kind: str
    item: int
    variant: str
    tip_loss: bool


@dataclass
class Inputs:
    """Everything set-up produced for one workload; ``bem`` is the package."""

    bem: object
    units: list
    items: list
    tmp: Path
    nproc: int
    extra: dict = field(default_factory=dict)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _stratified(rng, n):
    """Uniform samples on [0, 1): per block of BLOCK, one in each 1/BLOCK stratum.

    Elements come in blocks with the same mix of variants, tip loss, polars
    and stratified parameters, so the mix of cheap and expensive elements is
    nearly the same on every seed and in every prefix of whole blocks.
    """
    return np.concatenate([(rng.permutation(BLOCK) + rng.random(BLOCK)) / BLOCK
                           for _ in range(n // BLOCK)])


def _balanced(rng, n, weights):
    """Per block of BLOCK, choices among the options in fixed proportions, shuffled."""
    counts = np.floor(np.asarray(weights, float) * BLOCK / sum(weights)).astype(int)
    counts[: BLOCK - counts.sum()] += 1
    block = np.repeat(np.arange(len(weights)), counts)
    return np.concatenate([rng.permutation(block) for _ in range(n // BLOCK)])


STALL_RANGES = {"slope": (5.0, 7.0), "alpha_s": (0.2, 0.35), "drop": (0.2, 0.6),
                "transition": (0.03, 0.1), "cd0": (0.005, 0.02), "cd2": (0.0, 0.3)}


def _stratified_rows(rng, n, width):
    """n rows of ``width`` uniform samples, each column stratified over the n rows."""
    return np.stack([(rng.permutation(n) + rng.random(n)) / n for _ in range(width)], axis=1)


def _stall_polar_params(rng, n, ranges=STALL_RANGES):
    """Parameters of n stall polars, each one stratified over the n polars."""
    rows = _stratified_rows(rng, n, len(ranges))
    return [{key: float(lo + (hi - lo) * u)
             for (key, (lo, hi)), u in zip(ranges.items(), row)} for row in rows]


def _glide_estimate(params):
    """Best glide angle of a seeded stall polar from its parameters alone.

    Below stall cd/cl = cd0/(slope alpha) + cd2 alpha/slope, smallest at
    sqrt(cd0/cd2); past alpha_s the lift drops, so the estimate is capped
    there.  It is an input of the workload, not a result of the program.
    """
    if params["cd2"] <= 0.0:
        return params["alpha_s"]
    return min(math.sqrt(params["cd0"] / params["cd2"]), params["alpha_s"])


def _write_and_load_polar(bem, params, path):
    """Write a seeded stall polar as CSV and load it back through the public API."""
    bem.polar.dump_polar(bem.synthetic_polar("linear_lift_with_stall", **params), path)
    return bem.load_polar(path)


def _closed_form_design(bem, polar, alpha_bar, lam, r, blades):
    """Drag-free optimum (gamma*, chord*) as design.simplified_optimum computes it,
    given a glide angle ``alpha_bar`` of the polar."""
    theta = math.atan2(1.0, lam)
    phi = 2.0 * theta / 3.0
    chord = 8.0 * math.pi * r * bem.mu_G(theta, phi) / (blades * polar.cl(alpha_bar))
    return phi - alpha_bar, chord


# ---------------------------------------------------------------------------
# element_solve


def setup_element_solve(bem, root: Path, tmp: Path, rng) -> Inputs:
    polars, glide = [bem.load_polar(root / DEMO_POLAR)], [DEMO_GLIDE]
    for k, params in enumerate(_stall_polar_params(rng, STALL_POLARS)):
        polars.append(_write_and_load_polar(bem, params, tmp / f"stall{k}.csv"))
        glide.append(_glide_estimate(params))
    # the demo rotor: radius 1.1, element radius lambda / 3
    radius, speed, omega, blades = 1.1, 1.0, 3.0, 3
    which = _balanced(rng, ELEMENTS, [2.0] + [3.0 / STALL_POLARS] * STALL_POLARS)
    lams = _stratified(rng, ELEMENTS)
    twists = 0.1 * _stratified(rng, ELEMENTS)
    chords = np.exp(math.log(0.5) + math.log(3.0) * _stratified(rng, ELEMENTS))
    items, units = [], []
    for i in range(ELEMENTS):
        variant = VARIANTS[i % len(VARIANTS)]
        tip = (i // len(VARIANTS)) % 2 == 0
        lo, hi = NONE_LAMBDAS if variant == "none" else ELEMENT_LAMBDAS
        k, lam = int(which[i]), lo + (hi - lo) * float(lams[i])
        r = lam * speed / omega
        gamma, chord = _closed_form_design(bem, polars[k], glide[k], lam, r, blades)
        geom = bem.ElementGeometry(lam=lam, r=r, gamma=gamma + float(twists[i]),
                                   chord=chord * float(chords[i]), blade_count=blades,
                                   tip_radius=radius)
        corr = bem.CorrectionSpec(variant=variant, tip_loss=tip)
        items.append((geom, polars[k], corr))
        for kind in SOLVER_KINDS + ("scan",):
            units.append(Unit(len(units), kind, i, variant, tip))
    for geom, polar, corr in items:  # warm-up: one residual per element
        bem.residual(geom, polar, corr, 0.5 * geom.theta)
    return Inputs(bem, units, items, tmp, nproc())


def run_element_unit(inp: Inputs, unit: Unit):
    """Returns (canonical output, failed)."""
    bem = inp.bem
    geom, polar, corr = inp.items[unit.item]
    try:
        if unit.kind == "scan":
            roots = bem.scan_roots(geom, polar, corr)
            out = {"raised": None,
                   "roots": [[rec.phi, rec.category, rec.state.a, rec.state.a_prime,
                              rec.state.tip_factor, rec.state.residual]
                             for rec in roots.records]}
            return out, False
        rep = bem.solvers.METHODS[unit.kind](geom, polar, corr, bem.SolveOptions())
    except bem.BemError as exc:
        return {"raised": type(exc).__name__}, True
    out = {"raised": None, "converged": bool(rep.converged), "phi": rep.phi_star,
           "iterations": rep.iterations, "state": None, "category": None}
    if rep.state is not None:
        st = rep.state
        out["state"] = [st.phi, st.a, st.a_prime, st.tip_factor, st.residual]
        if rep.converged:
            out["category"] = bem.solvers.classify_root(geom, polar, corr, st.phi, st)
    return out, not rep.converged


# ---------------------------------------------------------------------------
# blade_design

DESIGN_SETTINGS = dict(step=0.25, tol=2e-4, max_steps=400)  # acceptance criterion 07
DESIGN_BLOCKS = 4  # BLOCK elements per polar and block, 1 unit each
# Above lambda 1.8 some starts run into max_steps without converging (near
# lambda 1.9 and 2.4-2.55 on these polars), so the elements stay below it.
DESIGN_LAMBDAS = (0.8, 1.8)


def setup_blade_design(bem, root: Path, tmp: Path, rng) -> Inputs:
    # The shipped demo polar and the criterion-07 polar.  Seeded stall or
    # low-drag polars are left out on purpose: on some of them a single
    # optimize call runs into max_steps at 4-13 s (every trial falls back to a
    # full scan), and one such unit would set the whole run's throughput.
    polars = [bem.load_polar(root / DEMO_POLAR)]
    bem.polar.dump_polar(bem.synthetic_polar("linear_lift", slope=2 * math.pi, cd0=0.01,
                                             cd2=0.3, beta=0.4), tmp / "criterion07.csv")
    polars.append(bem.load_polar(tmp / "criterion07.csv", beta=0.4))
    turbine = bem.TurbineConfig(radius=1.2, upstream_speed=1.0, rotation_speed=3.0,
                                lambda_min=0.8, lambda_max=3.0)
    # The optimizer's cost changes sharply with lambda, so every element gets
    # its own lambda.  Starts are the simplified optimum: its closed form with
    # one best-glide search per polar, checked against simplified_optimum.
    glide = [bem.best_glide_angle(p) for p in polars]
    lo, hi = DESIGN_LAMBDAS
    items, units = [], []
    for k, polar in enumerate(polars):
        lams = lo + (hi - lo) * _stratified(rng, DESIGN_BLOCKS * BLOCK)
        for i, lam in enumerate(map(float, lams)):
            gamma, chord = _closed_form_design(bem, polar, glide[k], lam,
                                               turbine.element_radius(lam), turbine.blade_count)
            if i == 0:
                point = bem.simplified_optimum(lam, polar, turbine)
                if (point.gamma, point.chord) != (gamma, chord):
                    raise RuntimeError("closed-form start differs from simplified_optimum")
            geom = bem.ElementGeometry.from_turbine(turbine, lam, gamma, chord)
            variant, tip = VARIANTS[i % len(VARIANTS)], (i // len(VARIANTS)) % 2 == 0
            items.append((geom, polar, bem.CorrectionSpec(variant=variant, tip_loss=tip)))
            units.append(Unit(len(units), "optimize", len(items) - 1, variant, tip))
    return Inputs(bem, units, items, tmp, nproc(),
                  {"lambda_max": turbine.lambda_max})


def run_design_unit(inp: Inputs, unit: Unit):
    bem = inp.bem
    geom, polar, corr = inp.items[unit.item]
    lam_max = inp.extra["lambda_max"]
    try:
        res = bem.optimize_element(geom, polar, corr, lambda_max=lam_max, **DESIGN_SETTINGS)
    except bem.BemError as exc:
        return {"raised": type(exc).__name__}, True
    scale = 8.0 * geom.lam ** 3 / lam_max ** 2
    out = {"raised": None, "converged": bool(res.converged), "J": res.J,
           "J_start": res.j_history[0] / scale, "gamma": res.gamma, "chord": res.chord,
           "phi": res.phi_opt, "iterations": res.iterations, "accepted": res.accepted_steps}
    return out, not res.converged


# ---------------------------------------------------------------------------
# rotor_cli


# Rotor polars keep their best glide angle, sqrt(cd0/cd2) <= 0.26, below
# stall: a rotor designed at a glide angle capped by stall has elements
# without any root, and its sweep fails.
ROTOR_POLAR_RANGES = dict(STALL_RANGES, alpha_s=(0.28, 0.35), cd0=(0.005, 0.01),
                          cd2=(0.15, 0.3))
ROTOR_RANGES = {"radius": (0.9, 1.5), "lambda_max": (2.2, 3.2), "tip_share": (0.9, 0.99),
                "lambda_min": (1.0, 1.4)}
BLADE_COUNTS = (2, 3, 4)
ROTOR_RESOLUTION = {"run.lambda_count": 2, "sweep.grid_n": 2}


def _rotor_params(rng, n):
    """Turbines of n rotors: each parameter stratified over the n rotors, blade
    counts in equal shares."""
    rows = _stratified_rows(rng, n, len(ROTOR_RANGES))
    blades = rng.permutation(np.resize(BLADE_COUNTS, n))
    return [dict({key: float(lo + (hi - lo) * u)
                  for (key, (lo, hi)), u in zip(ROTOR_RANGES.items(), row)},
                 blade_count=int(b)) for row, b in zip(rows, blades)]


def _rotor_config(params, variant, tip, polar_name):
    radius, lam_max = params["radius"], params["lambda_max"]
    omega = lam_max / (radius * params["tip_share"])  # tip element inside R
    return "\n".join([
        "# seeded benchmark rotor",
        f"turbine.blade_count={params['blade_count']}",
        f"turbine.radius={radius!r}",
        "turbine.upstream_speed=1.0",
        f"turbine.rotation_speed={omega!r}",
        f"turbine.lambda_min={params['lambda_min']!r}",
        f"turbine.lambda_max={lam_max!r}",
        f"polar.path={polar_name}",
        f"correction.variant={variant}",
        f"correction.tip_loss={'true' if tip else 'false'}",
        f"run.lambda_count={ROTOR_RESOLUTION['run.lambda_count']}",
        "design.mode=simplified",
        f"sweep.grid_n={ROTOR_RESOLUTION['sweep.grid_n']}",
        "sweep.refine=true",
        "",
    ])


def _demo_config(root):
    """The shipped demo config at the seeded rotors' resolution, its polar by
    absolute path."""
    lines = []
    for line in (root / DEMO_CONFIG).read_text().splitlines():
        key = line.partition("=")[0].strip()
        if key == "polar.path":
            line = f"polar.path={(root / DEMO_POLAR).resolve()}"
        elif key in ROTOR_RESOLUTION:
            line = f"{key}={ROTOR_RESOLUTION[key]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def setup_rotor_cli(bem, root: Path, tmp: Path, rng) -> Inputs:
    demo = tmp / "demo.cfg"
    demo.write_text(_demo_config(root))
    rotors = [(demo, "wilson_spera", True)]
    stall = _stall_polar_params(rng, SEEDED_ROTORS, ROTOR_POLAR_RANGES)
    turbines = _rotor_params(rng, SEEDED_ROTORS)
    for i in range(SEEDED_ROTORS):
        # corrected variants only: uncorrected rotors reach lambda where
        # bisection on the default bracket cannot start
        variant, tip = VARIANTS[1 + i], i % 2 == 1
        bem.polar.dump_polar(
            bem.synthetic_polar("linear_lift_with_stall", **stall[i]),
            tmp / f"rotor{i}.csv")
        path = tmp / f"rotor{i}.cfg"
        path.write_text(_rotor_config(turbines[i], variant, tip, f"rotor{i}.csv"))
        rotors.append((path, variant, tip))
    items, units = [], []
    for k, (path, variant, tip) in enumerate(rotors):
        cfg = bem.config.parse_config(path)  # validates the config and loads its polar
        if (cfg.correction.variant, cfg.correction.tip_loss) != (variant, tip):
            raise RuntimeError(f"{path}: config does not match its declared properties")
        items.append((path, len(cfg.lambdas), cfg.sweep_grid_n))
        for cmd in SUBCOMMANDS:
            units.append(Unit(len(units), cmd, k, variant, tip))
    return Inputs(bem, units, items, tmp, nproc())


def cli_argv(inp: Inputs, unit: Unit, out_path: Path):
    path = inp.items[unit.item][0]
    argv = [unit.kind, "--config", str(path), "--out", str(out_path)]
    if unit.kind == "solve":
        argv += ["--method", "all"]
    if unit.kind in ("solve", "scan", "design"):
        argv += ["--jobs", str(inp.nproc)]
    return argv


def run_cli_unit(inp: Inputs, unit: Unit):
    out_path = inp.tmp / "out.csv"
    if out_path.exists():
        out_path.unlink()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = inp.bem.cli.main(cli_argv(inp, unit, out_path))
    text = out_path.read_text() if out_path.exists() else ""
    return parse_cli_output(unit.kind, code, text, stdout.getvalue()), code != 0


def parse_cli_output(kind, code, text, stdout):
    """Canonical form of one subcommand's CSV/report output and exit code."""
    out = {"exit": code, "written": bool(text), "rows": [], "summary": {}}
    lines = text.splitlines()
    if kind in ("solve", "scan"):
        for row in csv.DictReader(lines):
            out["rows"].append([float(row["lambda"]), row["method"], row["root_category"],
                                float(row["phi"]), float(row["residual"])])
    elif kind == "design":
        for row in csv.DictReader(lines):
            out["rows"].append([float(row["lambda"]), float(row["gamma"]),
                                float(row["chord"]), row["converged"]])
    elif kind == "sweep":
        for row in csv.DictReader(lines):
            out["rows"].append([float(row["lambda"]), row["ok"], float(row["residual"])])
        for line in stdout.splitlines():
            key, sep, value = line.partition("=")
            if sep and key in ("Cp", "Cp_refined"):
                out["summary"][key] = float(value)
    else:  # check: keep the verdict words, not the margins
        for line in lines:
            words = line.split()
            out["rows"].append([words[0]] + [w for w in words[1:]
                                             if w in ("PASS", "FAIL", "N/A", "interval",
                                                      "appendix", "design")])
    return out


# ---------------------------------------------------------------------------

WORKLOADS = {
    "element_solve": (setup_element_solve, run_element_unit),
    "rotor_cli": (setup_rotor_cli, run_cli_unit),
    "blade_design": (setup_blade_design, run_design_unit),
}


def input_fingerprint(inp: Inputs, workload: str):
    """Text that identifies the generated inputs (used to show seeds differ)."""
    if workload == "rotor_cli":
        return "".join(Path(path).read_text() for path, _, _ in inp.items[1:])
    return repr([(repr(item[0]), item[1].label, repr(item[2])) for item in inp.items])
