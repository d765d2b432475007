"""Blade element momentum solver library.

Submodules: :mod:`polar` (airfoil data), :mod:`model` (domain types and
model functions), :mod:`solvers` (four solution algorithms plus condition
checks), :mod:`design` (optimal twist/chord and power sweeps), and
:mod:`cli` (the ``bem`` command).
"""

from .errors import (
    AdjointError,
    BemError,
    BracketError,
    ConfigError,
    DesignEvaluationError,
    DomainError,
    HypothesisError,
    NoPositiveLiftError,
    PolarFormatError,
    TipSingularityError,
    ValidationError,
)
from .model import (
    CorrectionSpec,
    ElementGeometry,
    FlowState,
    TurbineConfig,
    mu_G,
    mu_G_c,
    recover_induction,
    residual,
    tip_loss_factor,
)
from .polar import PolarTable, best_glide_angle, load_polar, synthetic_polar
from .solvers import (
    RootSet,
    SolveOptions,
    SolveReport,
    bracket_via_psi0,
    check_appendix_conditions,
    check_existence,
    scan_roots,
    solve_bisection,
    solve_fixed_point,
    solve_newton,
    solve_usual,
)
from .design import (
    DesignPoint,
    J_lambda,
    assemble_adjoint,
    cp_sweep,
    landscape,
    optimize_element,
    simplified_closed_forms,
    simplified_optimum,
    solve_element,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
