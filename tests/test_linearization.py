"""Audit of the certificates against the closed loop's linearization at zero.

A certificate claims that every config it reports as satisfied decays.  For
each audited (law, family) pair, seeded random draws of (nu, a, b, mu) and
the law's resolution are put to the pair's gain check; every satisfied draw
must have a linearized spectral abscissa < 0 on the discretized problem.
The draws reach small nu, where a check read at unit stiffness certifies
growing configs: nu = 0.03 for the subdomain law, and nu = 3e-4 for the
nodal law, whose unit-stiffness reading goes wrong only at smaller nu.

The volume pair's audit is a strict expected failure.  Its `elements`
margin uses the printed (h/2pi)^2 mean-oscillation constant, which
`wavestab lemmas` falsifies, and it certifies configs whose linearization
grows: of the seeded draws below, 9 of the 76 satisfied ones grow.  The
fix, the corrected (h/pi)^2, also changes the benchmark's own
transcription of that condition (`perfbench/workloads.gain_satisfied`), so
it waits for a change to the benchmark (ROADMAP item 1); once it lands the
audit passes, and the strict mark turns that into a failure until the mark
is removed.
"""

import numpy as np
import pytest

from wavestab import (
    FourierModes,
    Nodal,
    Subdomain,
    SubdomainControl,
    VolumeElements,
    damped_wave,
    make_grid,
    strongly_damped_wave,
)
from wavestab.controllers import certificate

from conftest import closed_loop_abscissa

PI = np.pi


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def fourier_damped(rng):
    nu, a, b, mu = _log_uniform(rng, 0.03, 5.0), rng.uniform(0, 6), rng.uniform(0.2, 3), _log_uniform(rng, 0.3, 100)
    N = int(rng.choice([1, 2, 4, 8, 16]))
    return damped_wave(nu, a, b, "dirichlet"), FourierModes(N, mu), make_grid(PI, 64, "dirichlet")


def fourier_strong(rng):
    nu, a, b, mu = _log_uniform(rng, 0.03, 5.0), rng.uniform(0, 6), rng.uniform(0.2, 3), _log_uniform(rng, 0.3, 100)
    N = int(rng.choice([1, 2, 4, 8, 16]))
    return strongly_damped_wave(nu, a, b, 4.0), FourierModes(N, mu), make_grid(PI, 64, "dirichlet")


def nodal_strong(rng):
    nu, a, b, mu = _log_uniform(rng, 3e-4, 5.0), rng.uniform(0, 2), rng.uniform(0.2, 3), _log_uniform(rng, 0.3, 100)
    N = int(rng.choice([27, 54]))  # midpoints on nodes of the 108-cell grid
    return strongly_damped_wave(nu, a, b, 4.0), Nodal(N, mu), make_grid(PI, 108, "dirichlet")


def volume_damped(rng):
    nu, a, b, mu = _log_uniform(rng, 0.03, 5.0), rng.uniform(0, 6), rng.uniform(0.2, 3), _log_uniform(rng, 0.3, 100)
    N = int(rng.choice([1, 2, 4, 8, 16]))  # each divides the 64 cells
    return damped_wave(nu, a, b, "neumann"), VolumeElements(N, mu), make_grid(PI, 64, "neumann")


def subdomain_damped(rng):
    nu, a, b, mu = _log_uniform(rng, 0.03, 5.0), rng.uniform(0, 3), rng.uniform(0.2, 2), _log_uniform(rng, 1, 300)
    lo = rng.uniform(0.2, 1.4)
    omega = Subdomain(lo, lo + rng.uniform(1.0, 1.7))
    return damped_wave(nu, a, b, "dirichlet"), SubdomainControl(omega, mu), make_grid(PI, 64, "dirichlet")


@pytest.mark.parametrize(
    "draw",
    [
        fourier_damped,
        fourier_strong,
        nodal_strong,
        subdomain_damped,
        pytest.param(
            volume_damped,
            marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1"),
        ),
    ],
    ids=lambda f: f.__name__,
)
def test_satisfied_draws_decay(draw):
    rng = np.random.default_rng(20260)
    satisfied = below_unit_stiffness = 0
    for _ in range(200):
        model, ctrl, grid = draw(rng)
        if not certificate(model, ctrl).gains(grid, model, ctrl).satisfied:
            continue
        satisfied += 1
        below_unit_stiffness += model.nu < 1.0
        abscissa = closed_loop_abscissa(model, ctrl, grid)
        assert abscissa < 0.0, (model, ctrl)
    # the audit covers enough configs, some of them at nu < 1
    assert satisfied >= 20 and below_unit_stiffness >= 5, (satisfied, below_unit_stiffness)
