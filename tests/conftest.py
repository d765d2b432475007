import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import settings

from glauert_bem import CorrectionSpec, ElementGeometry, PolarTable, synthetic_polar
from glauert_bem.cli import main

# On CI a falsifying example of a random test is printed as a blob that
# @reproduce_failure replays, since the tests keep no example database.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def linear_polar():
    """Exactly-linear lift (PCHIP reproduces it to machine precision),
    constant drag: every model derivative is smooth."""
    return synthetic_polar("linear_lift", slope=2.0 * math.pi, cd0=0.01, beta=0.4)


@pytest.fixture
def dragfree_polar():
    return synthetic_polar("linear_lift", slope=2.0 * math.pi, cd0=0.0, beta=0.4)


@pytest.fixture
def stall_polar():
    return synthetic_polar("linear_lift_with_stall", slope=6.0, alpha_s=0.3,
                           drop=0.5, transition=0.05, cd0=0.012, cd2=0.1)


def zero_lift_polar():
    """Lift exactly 0 on [0.4, 0.7], beyond beta = 0.2: PCHIP takes slope 0 at each
    node of a flat run, so each of its cubics there is 0."""
    return PolarTable([-0.2, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
                      [-1.0, 0.0, 0.6, 1.1, 0.5, 0.0, 0.0, 0.0, 0.0],
                      [0.02, 0.01, 0.012, 0.02, 0.1, 0.3, 0.4, 0.5, 0.6])


def window_polar():
    """Lift 2 pi alpha sampled at 30 angles on [-0.4, 0.3], with alpha_s = 0.5 (so
    beta = 0.5) above the samples: an element's max I+ can be cut below theta."""
    alpha = np.linspace(-0.4, 0.3, 30)
    return PolarTable(alpha, 2 * math.pi * alpha, np.full(30, 0.01), alpha_s=0.5)


def positive_alpha_polar():
    """Sampled at 11 angles on [0.3, 0.8] only: lift 2 pi alpha up to 0.5, then
    pi - (alpha - 0.5); an element with theta - gamma < 0.3 has an empty I+."""
    alpha = np.linspace(0.3, 0.8, 11)
    cl = np.where(alpha <= 0.5, 2 * math.pi * alpha, math.pi - (alpha - 0.5))
    return PolarTable(alpha, cl, np.full(11, 0.01))


@pytest.fixture
def announce(capsys):
    """Print acceptance-criterion outcomes even under pytest capture."""

    def _print(text):
        with capsys.disabled():
            print(text)

    return _print


def make_geom(lam=1.75, gamma=0.1, chord=0.3, r=1.0, blades=3, tip_radius=None):
    return ElementGeometry(lam=lam, r=r, gamma=gamma, chord=chord,
                           blade_count=blades, tip_radius=tip_radius)


def trivial():
    return CorrectionSpec(variant="none", tip_loss=False)


def wilson(a_c=None, tip=False):
    return CorrectionSpec(variant="wilson_spera", a_c=a_c, tip_loss=tip)


def rng(seed):
    return np.random.default_rng(seed)


def run_main(argv):
    """(stdout, stderr, exit code) of ``cli.main(argv)``, with the ``bem`` log on
    stderr as the command line writes it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code
