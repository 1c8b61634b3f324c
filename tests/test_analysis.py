"""Decay fitting, decay-law verification, and the inequality suite's sharp constants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavestab import (
    LEDGER_COLUMNS,
    analysis,
    element_averages,
    element_layout,
    fit_exponential,
    h1_seminorm_sq,
    inequality_constants,
    integral,
    make_grid,
    mode_matrix,
    verify_exponential,
    verify_polynomial,
)
from wavestab.analysis import (
    MIN_FIT_RECORDS,
    MIN_POWER_RECORDS,
    SUITE_CELLS,
    SUITE_ELEMENT_COUNTS,
    SUITE_MODE_COUNTS,
    SUITE_OFFSETS,
    SUITE_SLACK,
    check_window,
)
from wavestab.spectral import dirichlet_eigenvalue, grid_eigenvalue, trig_table

MANDATORY = (
    "element_mean_approx",
    "mean_plus_gradient_corrected",
    "paired_point_differences",
    "point_sampling_norm",
    "spectral_tail",
    "poincare",
)


def synth(values, ts):
    """A ledger without lyapunov whose t, total and stab_norm columns alone are filled."""
    ledger = np.zeros((len(ts), len(LEDGER_COLUMNS) - 1))
    for name, column in (("t", ts), ("total", values), ("stab_norm", values)):
        ledger[:, LEDGER_COLUMNS.index(name)] = column
    return ledger


def verify_over(ledger, target, safety, window):
    """``verify_exponential`` of the ledger's fit over ``window``, as the CLI calls it."""
    return verify_exponential(ledger, fit_exponential(ledger, window), target, safety)


class TestCheckWindow:
    def test_the_fit_reads_the_window_up_to_t_end(self):
        assert check_window("exponential", (2.0, 9.0), 10.0) == ((2.0, 9.0), MIN_FIT_RECORDS)
        assert check_window("exponential", (4.0, 60.0), 20.0) == ((4.0, 20.0), MIN_FIT_RECORDS)

    def test_the_power_law_reads_from_t_one(self):
        assert check_window("polynomial", (0.5, 9.0), 10.0) == ((1.0, 9.0), MIN_POWER_RECORDS)
        assert check_window("polynomial", (4.0, 60.0), 20.0) == ((4.0, 20.0), MIN_POWER_RECORDS)
        # a window that ends before t = 1 leaves the power law nothing to read
        (lo, hi), _ = check_window("polynomial", (0.1, 0.45), 0.5)
        assert lo > hi


class TestFitExponential:
    def test_exact_log_line(self):
        ts = np.linspace(0, 10, 200)
        recs = synth(7.0 * np.exp(-1.5 * ts), ts)
        fit = fit_exponential(recs, window=(1.0, 9.0))
        assert fit.rate == pytest.approx(1.5, abs=1e-9)
        assert fit.amplitude == pytest.approx(7.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_oscillation_averages_out(self):
        ts = np.linspace(0, 20, 800)
        recs = synth(np.exp(-ts) * (2.0 + np.cos(10 * ts)), ts)
        fit = fit_exponential(recs, window=(0.0, 20.0))
        assert fit.rate == pytest.approx(1.0, abs=0.05)

    def test_constant_records(self):
        ts = np.linspace(0, 5, 100)
        fit = fit_exponential(synth(np.full_like(ts, 3.0), ts), window=(1.0, 4.5))
        assert fit.rate == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared is None

    @pytest.mark.parametrize("ulps", [1, 8])
    def test_records_equal_to_round_off_have_no_r_squared(self, ulps):
        # the log values' spread, which r^2 divides by, is round-off
        ts = np.linspace(0, 5, 100)
        vals = 3.0 + np.random.default_rng(3).integers(0, ulps + 1, ts.size) * np.spacing(3.0)
        fit = fit_exponential(synth(vals, ts), window=(1.0, 4.5))
        assert fit.r_squared is None

    def test_floor_excludes_noise_tail(self):
        ts = np.linspace(0, 30, 600)
        vals = np.exp(-2.0 * ts)
        vals[vals < 1e-13] = 1e-16  # dead tail that would corrupt the slope
        fit = fit_exponential(synth(vals, ts), window=(0.0, 30.0))
        assert fit.rate == pytest.approx(2.0, abs=1e-6)

    def test_needs_twenty_usable_records(self):
        ts = np.linspace(0, 5, 10)
        with pytest.raises(ValueError, match="20"):
            fit_exponential(synth(np.exp(-ts), ts), window=(1.0, 4.5))

    def test_empty_window_rejected(self):
        ts = np.linspace(0, 5, 100)
        with pytest.raises(ValueError):
            fit_exponential(synth(np.exp(-ts), ts), window=(3.0, 2.0))

    def test_empty_ledger_rejected(self):
        with pytest.raises(ValueError, match="no records to fit"):
            fit_exponential(synth([], []), window=(0.0, 1.0))

    def test_window_recorded(self):
        ts = np.linspace(0, 10, 100)
        fit = fit_exponential(synth(np.exp(-ts), ts), window=(2, 9))
        assert fit.window == (2.0, 9.0)
        assert all(isinstance(end, float) for end in fit.window)


WINDOW = (2.0, 9.0)  # 20%-90% of the synthetic records' span


class TestVerifyExponential:
    def setup_records(self, rate, ts=None):
        ts = np.linspace(0, 10, 400) if ts is None else ts
        return synth(5.0 * np.exp(-rate * ts), ts)

    def test_passes_at_certified_rate(self):
        res = verify_over(self.setup_records(1.0), 1.0, 0.8, WINDOW)
        assert res.ok and res.rate_ok and res.envelope_ok

    def test_fails_when_decay_too_slow(self):
        res = verify_over(self.setup_records(0.5), 1.0, 0.8, WINDOW)
        assert not res.ok and not res.rate_ok

    def test_growth_fails(self):
        ts = np.linspace(0, 10, 400)
        res = verify_over(synth(np.exp(+0.3 * ts), ts), 1.0, 0.8, WINDOW)
        assert not res.ok
        assert res.fit.rate < 0

    def test_envelope_catches_excursion(self):
        # correct average slope but a mid-window bump above the envelope
        ts = np.linspace(0, 10, 400)
        vals = np.exp(-1.0 * ts)
        bump = (ts > 5.0) & (ts < 5.5)
        vals[bump] *= 40.0
        res = verify_over(synth(vals, ts), 1.0, 0.8, (2.0, 9.0))
        assert not res.envelope_ok and not res.ok

    def test_reads_its_window_from_the_fit(self):
        # a bump on (5, 5.5): inside the window (2, 9), in the head of the window (6, 9)
        ts = np.linspace(0, 10, 400)
        vals = np.exp(-1.0 * ts)
        vals[(ts > 5.0) & (ts < 5.5)] *= 40.0
        recs = synth(vals, ts)
        for window, envelope_ok in (((2.0, 9.0), False), ((6.0, 9.0), True)):
            fit = fit_exponential(recs, window)
            res = verify_exponential(recs, fit, 1.0, safety=0.8)
            assert res.fit is fit and res.envelope_ok is envelope_ok

    def test_envelope_constant_calibrated_on_head(self):
        recs = self.setup_records(1.0)
        res = verify_over(recs, 1.0, 0.8, (2.0, 9.0))
        # head max of stab*exp(+target t) = 5 exp(-0.2 t), decreasing: hit at t=0
        assert res.envelope_constant == pytest.approx(5.0, rel=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_an_envelope_constant_past_the_float_range_is_none_and_fails(self):
        # a flat stab_norm: exp(0.8 t) over the head (t <= 900) overflows
        ts = np.linspace(0.0, 4500.0, 901)
        res = verify_over(synth(np.ones_like(ts), ts), 1.0, 0.8, (900.0, 4050.0))
        assert res.envelope_constant is None
        assert res.envelope_ok is False and res.ok is False

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_target(self, bad):
        with pytest.raises(ValueError):
            verify_over(self.setup_records(1.0), bad, 0.8, WINDOW)

    @pytest.mark.parametrize("bad", [0.0, 1.5, -0.2])
    def test_rejects_bad_safety(self, bad):
        with pytest.raises(ValueError):
            verify_over(self.setup_records(1.0), 1.0, bad, WINDOW)

    @given(
        rate=st.floats(0.3, 3.0),
        target=st.floats(0.3, 3.0),
        s_hi=st.floats(0.2, 1.0),
        shrink=st.floats(0.1, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_safety(self, rate, target, s_hi, shrink):
        """Passing at a safety factor implies passing at any smaller one."""
        ts = np.linspace(0, 10, 300)
        recs = synth(3.0 * np.exp(-rate * ts) * (1.5 + np.sin(7 * ts) / 3), ts)
        hi = verify_over(recs, target, s_hi, WINDOW)
        lo = verify_over(recs, target, s_hi * shrink, WINDOW)
        if hi.ok:
            assert lo.ok


class TestVerifyPolynomial:
    def test_matching_exponent_passes(self):
        ts = np.linspace(1, 50, 500)
        res = verify_polynomial(synth(ts ** (-2.0 / 3.0), ts), 2.0 / 3.0, window=(5.0, 50.0))
        assert res.ok
        assert res.sup_ratio == pytest.approx(1.0, abs=1e-9)

    def test_slower_decay_fails(self):
        ts = np.linspace(1, 50, 500)
        res = verify_polynomial(synth(ts ** (-1.0 / 3.0), ts), 2.0 / 3.0, window=(5.0, 50.0))
        assert not res.ok
        # compensated curve grows like t^{1/3}: ratio (50/16.25)^(1/3) ~ 1.455
        assert res.sup_ratio == pytest.approx((50.0 / 16.25) ** (1.0 / 3.0), rel=1e-3)

    def test_faster_decay_passes(self):
        ts = np.linspace(1, 50, 500)
        res = verify_polynomial(synth(ts ** (-1.5), ts), 2.0 / 3.0, window=(5.0, 50.0))
        assert res.ok

    def test_window_must_start_at_one(self):
        ts = np.linspace(0.1, 50, 500)
        with pytest.raises(ValueError, match="t >= 1"):
            verify_polynomial(synth(ts ** (-1.0), ts), 1.0, window=(0.5, 50.0))

    def test_rejects_nonpositive_alpha(self):
        ts = np.linspace(1, 50, 500)
        with pytest.raises(ValueError):
            verify_polynomial(synth(ts ** (-1.0), ts), 0.0, window=(5.0, 50.0))

    def test_needs_enough_records(self):
        ts = np.linspace(1, 50, 5)
        with pytest.raises(ValueError):
            verify_polynomial(synth(ts ** (-1.0), ts), 1.0, window=(1.0, 50.0))

    def test_rejects_an_empty_window(self):
        ts = np.linspace(1, 50, 500)
        with pytest.raises(ValueError, match="empty window"):
            verify_polynomial(synth(ts ** (-1.0), ts), 1.0, window=(5.0, 5.0))

    def test_needs_records_in_both_quarters(self):
        ts = np.linspace(20, 30, 10)  # all in the middle half of (1, 50)
        with pytest.raises(ValueError, match="quarters contain no records"):
            verify_polynomial(synth(ts ** (-1.0), ts), 1.0, window=(1.0, 50.0))

    def test_rejects_a_compensated_energy_that_is_not_positive(self):
        ts = np.linspace(1, 50, 500)
        with pytest.raises(ValueError, match="not positive on the first quarter"):
            verify_polynomial(synth(np.zeros_like(ts), ts), 1.0, window=(5.0, 50.0))


def test_masked_checks_match_the_per_record_loops():
    """The array checks against the per-record loops they replaced, on a noisy ledger with a dead tail."""
    rng = np.random.default_rng(5)
    ts = np.linspace(0.0, 12.0, 600)
    vals = 3.0 * np.exp(-0.9 * ts) * (1.2 + np.sin(5.0 * ts) / 4.0) * rng.uniform(0.98, 1.02, ts.size)
    vals[-50:] = 1e-15  # under the decay floor
    recs = list(zip(ts.tolist(), vals.tolist()))
    window, target = (float(ts[100]), 11.5), 0.8  # a record sits on the window's start

    usable = [(t, v) for t, v in recs if window[0] <= t <= window[1] and v > 1e-13]
    slope, _ = np.polyfit([t for t, _ in usable], [math.log(v) for _, v in usable], 1)
    const = max(v * math.exp(target * t) for t, v in recs if t <= window[0])
    envelope_ok = all(v <= const * math.exp(-target * t) * (1.0 + 1e-9) for t, v in usable)
    res = verify_over(synth(vals, ts), 1.0, target, window)
    assert res.fit.n_points == len(usable)
    assert res.fit.rate == pytest.approx(-slope, rel=1e-13)
    assert res.envelope_constant == pytest.approx(const, rel=1e-13)
    assert res.envelope_ok == envelope_ok

    lo, hi = 1.0, 8.0
    pts = [(t, v * t**0.5) for t, v in recs if lo <= t <= hi]
    first = max(v for t, v in pts if t <= lo + 0.25 * (hi - lo))
    last = max(v for t, v in pts if t >= lo + 0.75 * (hi - lo))
    poly = verify_polynomial(synth(vals, ts), 0.5, window=(lo, hi))
    assert (poly.sup_first, poly.sup_last) == (first, last)


@pytest.fixture(scope="module")
def suite():
    return inequality_constants()


def _dirichlet_stiffness(grid) -> np.ndarray:
    """The matrix of h1_seminorm_sq on a Dirichlet grid: u @ K @ u == h1_seminorm_sq(grid, u)."""
    diff = np.diff(np.eye(grid.n_nodes + 2), axis=0)[:, 1:-1]  # the end nodes hold zero
    return diff.T @ diff / grid.dx


def _one_element_oscillation(m: int) -> float:
    """The mean-oscillation constant of one element of m cells, built without the suite's forms."""
    h = 1.0
    dx = h / m
    w = np.full(m + 1, dx)
    w[[0, -1]] *= 0.5
    centred = np.eye(m + 1) - w / h  # f minus its trapezoid mean over the element
    diff = np.diff(np.eye(m + 1), axis=0)
    stiffness = diff.T @ diff / dx + np.outer(w, w)  # + (mean f)^2 makes it definite; the lhs ignores it
    factor = np.linalg.cholesky(stiffness)
    lhs = np.linalg.solve(factor, (centred.T * w) @ centred)
    lhs = np.linalg.solve(factor, lhs.T)
    return float(np.linalg.eigvalsh(lhs)[-1]) / h**2


class TestInequalitySuite:
    def test_deterministic(self, suite):
        assert inequality_constants() == suite

    def test_mandatory_keys_hold(self, suite):
        for key in MANDATORY:
            assert suite[key].holds, key
            assert suite[key].sharp <= SUITE_SLACK * suite[key].stated

    def test_printed_variant_always_flagged(self, suite):
        printed = suite["mean_plus_gradient_printed"]
        assert not printed.holds
        assert printed.sharp / printed.stated == pytest.approx(4.0, rel=1e-3)
        assert suite["mean_plus_gradient_corrected"].holds

    def test_report_fields(self, suite):
        assert list(suite) == [
            "element_mean_approx",
            "mean_plus_gradient_printed",
            "mean_plus_gradient_corrected",
            "paired_point_differences",
            "point_sampling_norm",
            "spectral_tail",
            "poincare",
        ]
        for name, rep in suite.items():
            assert rep.name == name
            assert rep.sharp == max(rep.cases.values())
            assert all(type(c) is float for c in rep.cases.values())
            assert set(dataclasses.asdict(rep)) == {"name", "stated", "sharp", "pde", "holds", "cases"}
        assert list(suite["element_mean_approx"].cases) == [f"N={N}" for N in SUITE_ELEMENT_COUNTS]
        assert list(suite["spectral_tail"].cases) == [f"N={N}" for N in SUITE_MODE_COUNTS]
        assert len(suite["point_sampling_norm"].cases) == len(SUITE_ELEMENT_COUNTS) * len(SUITE_OFFSETS)

    def test_empirical_gradient_constant_between_bounds(self, suite):
        # the least coefficient (units h^2 ||f'||^2) that covers every grid
        # function separates the printed 1/(4 pi^2) from the corrected 1/pi^2
        for constant in suite["mean_plus_gradient_corrected"].cases.values():
            assert 1.0 / (4 * np.pi**2) < constant <= 1.0 / np.pi**2 * SUITE_SLACK

    def test_constants_on_the_suite_grid(self, suite):
        assert suite["poincare"].sharp == pytest.approx(1.0000031, abs=1e-7)
        assert suite["spectral_tail"].cases["N=1"] == pytest.approx(1.0000125, abs=1e-7)
        assert suite["spectral_tail"].sharp == pytest.approx(1.000154, abs=1e-6)
        assert suite["paired_point_differences"].sharp == pytest.approx(1.0, abs=1e-12)
        cases = suite["mean_plus_gradient_corrected"].cases
        for N, expected in zip(SUITE_ELEMENT_COUNTS, (0.101322, 0.101326, 0.101342)):
            assert cases[f"N={N}"] == pytest.approx(expected, abs=1e-6)
            # elements decouple: one element of the same cells, built with a Cholesky factor
            assert cases[f"N={N}"] == pytest.approx(_one_element_oscillation(SUITE_CELLS // N), rel=1e-10)
        assert suite["mean_plus_gradient_corrected"].pde == 1.0 / np.pi**2

    def test_mean_oscillation_converges_at_second_order(self, suite):
        # elements decouple: 8, 4 and 2 elements on the suite's cells are one element of 64, 128 and 256 cells
        cases = suite["mean_plus_gradient_corrected"].cases
        errors = [cases[f"N={N}"] - 1.0 / np.pi**2 for N in sorted(SUITE_ELEMENT_COUNTS, reverse=True)]
        assert all(e > 0.0 for e in errors)  # the grid exceeds the PDE's (h/pi)^2
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(4.0, rel=0.01)

    def test_closed_forms_equal_the_eigvalsh_path(self, monkeypatch):
        # on 64 cells, where the eigvalsh path is still accurate to 1e-12
        monkeypatch.setattr(analysis, "SUITE_CELLS", 64)
        report = inequality_constants()
        grid = make_grid(np.pi, 64, "dirichlet")
        stiffness = _dirichlet_stiffness(grid)
        u = np.random.default_rng(5).standard_normal(grid.n_nodes)
        assert u @ stiffness @ u == pytest.approx(h1_seminorm_sq(grid, u), rel=1e-12)
        lam_h = np.linalg.eigvalsh(stiffness) / grid.dx  # the quadrature weighs each stored node by dx
        k = np.arange(1, grid.n_nodes + 1)
        np.testing.assert_allclose([grid_eigenvalue(grid, j) for j in k], lam_h, rtol=1e-12)
        # the tail past N modes: its least constant is lambda_{N+1} times the
        # largest eigenvalue of the residual form relative to h1_seminorm_sq
        factor = np.linalg.cholesky(stiffness)
        for N in [0, *SUITE_MODE_COUNTS]:
            residual = np.eye(grid.n_nodes)
            if N:
                W = mode_matrix(grid, N)
                residual = residual - W.T @ (W * grid.quad_weights)
            form = (residual.T * grid.quad_weights) @ residual
            form = np.linalg.solve(factor, np.linalg.solve(factor, form).T)
            sharp = dirichlet_eigenvalue(grid.L, N + 1) * float(np.linalg.eigvalsh(form)[-1])
            closed = report["spectral_tail"].cases[f"N={N}"] if N else report["poincare"].cases["k=1"]
            assert closed == pytest.approx(sharp, rel=1e-12)

    def test_no_grid_function_exceeds_a_sharp_constant(self, suite):
        # trigonometric sums and the ramp f(x) = x, each at every element
        # count and sampling offset of the suite
        grid = make_grid(np.pi, SUITE_CELLS, "neumann")
        rng = np.random.default_rng(11)
        fs = np.vstack([rng.uniform(-1, 1, (20, 25)) @ trig_table(grid, 12), grid.nodes])
        norm, sem = integral(grid, fs, fs), h1_seminorm_sq(grid, fs)

        def covered(ratios, name, case):
            return np.all(ratios <= suite[name].cases[case] * (1.0 + 1e-12))

        for N in SUITE_ELEMENT_COUNTS:
            h, lo = grid.L / N, np.arange(N) * grid.L / N
            weights, bounds, owner, _ = element_layout(grid, N)
            means = element_averages(weights, bounds, fs)
            gap = fs - means[:, owner]
            oscillation = (norm - h * np.sum(means**2, axis=1)) / (h * h * sem)
            assert covered(oscillation, "mean_plus_gradient_corrected", f"N={N}")
            assert covered(integral(grid, gap, gap) / (h * h * sem), "element_mean_approx", f"N={N}")
            at = {
                name: np.array([np.interp(lo + s * h, grid.nodes, f) for f in fs])
                for name, s in SUITE_OFFSETS.items()
            }
            paired = np.sum((at["h"] - at["0"]) ** 2, axis=1) / (h * sem)
            assert covered(paired, "paired_point_differences", f"N={N}")
            for name in SUITE_OFFSETS:
                sampled = 2.0 * (h * np.sum(at[name] ** 2, axis=1) + h * h * sem)
                assert covered(norm / sampled, "point_sampling_norm", f"N={N} x={name}")
        assert oscillation[-1] > suite["mean_plus_gradient_printed"].stated  # the ramp refutes the printed one

    def test_element_counts_must_divide(self):
        # the suite's Neumann grid has 512 cells; element_layout refuses the rest
        assert all(SUITE_CELLS % N == 0 for N in SUITE_ELEMENT_COUNTS)
