"""Decay fitting, decay-law verification, and the inequality suite."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavestab import (
    LEDGER_COLUMNS,
    fit_exponential,
    run_inequality_suite,
    verify_exponential,
    verify_polynomial,
)
from wavestab.analysis import SUITE_ELEMENT_COUNTS

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
        res = verify_exponential(self.setup_records(1.0), 1.0, safety=0.8, window=WINDOW)
        assert res.ok and res.rate_ok and res.envelope_ok

    def test_fails_when_decay_too_slow(self):
        res = verify_exponential(self.setup_records(0.5), 1.0, safety=0.8, window=WINDOW)
        assert not res.ok and not res.rate_ok

    def test_growth_fails(self):
        ts = np.linspace(0, 10, 400)
        res = verify_exponential(synth(np.exp(+0.3 * ts), ts), 1.0, safety=0.8, window=WINDOW)
        assert not res.ok
        assert res.fit.rate < 0

    def test_envelope_catches_excursion(self):
        # correct average slope but a mid-window bump above the envelope
        ts = np.linspace(0, 10, 400)
        vals = np.exp(-1.0 * ts)
        bump = (ts > 5.0) & (ts < 5.5)
        vals[bump] *= 40.0
        res = verify_exponential(synth(vals, ts), 1.0, safety=0.8, window=(2.0, 9.0))
        assert not res.envelope_ok and not res.ok

    def test_envelope_constant_calibrated_on_head(self):
        recs = self.setup_records(1.0)
        res = verify_exponential(recs, 1.0, safety=0.8, window=(2.0, 9.0))
        # head max of stab*exp(+target t) = 5 exp(-0.2 t), decreasing: hit at t=0
        assert res.envelope_constant == pytest.approx(5.0, rel=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_target(self, bad):
        with pytest.raises(ValueError):
            verify_exponential(self.setup_records(1.0), bad, safety=0.8, window=WINDOW)

    @pytest.mark.parametrize("bad", [0.0, 1.5, -0.2])
    def test_rejects_bad_safety(self, bad):
        with pytest.raises(ValueError):
            verify_exponential(self.setup_records(1.0), 1.0, safety=bad, window=WINDOW)

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
        hi = verify_exponential(recs, target, safety=s_hi, window=WINDOW)
        lo = verify_exponential(recs, target, safety=s_hi * shrink, window=WINDOW)
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
    res = verify_exponential(synth(vals, ts), 1.0, safety=target, window=window)
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


class TestInequalitySuite:
    def test_deterministic_per_seed(self):
        a = run_inequality_suite(7, 30)
        b = run_inequality_suite(7, 30)
        assert a == b

    def test_seed_changes_samples(self):
        a = run_inequality_suite(7, 30)
        b = run_inequality_suite(8, 30)
        assert any(
            a[k].worst_ratio != b[k].worst_ratio for k in a if a[k].samples == b[k].samples
        )

    def test_mandatory_keys_clean_on_modest_sample(self):
        reports = run_inequality_suite(42, 120)
        for key in MANDATORY:
            assert reports[key].violations == 0, key

    def test_printed_variant_always_flagged(self):
        # the deterministic ramp injection falsifies the stated constant
        # even when every random sample happens to satisfy it
        reports = run_inequality_suite(0, 1)
        assert reports["mean_plus_gradient_printed"].violations >= 1
        assert reports["mean_plus_gradient_corrected"].violations == 0

    def test_report_fields(self):
        reports = run_inequality_suite(3, 10)
        assert set(reports) == set(MANDATORY) | {"mean_plus_gradient_printed"}
        for rep in reports.values():
            assert rep.samples >= 10
            assert rep.worst_ratio > 0
            d = dataclasses.asdict(rep)
            assert set(d) == {
                "name",
                "samples",
                "violations",
                "worst_ratio",
                "empirical_constant",
            }

    def test_ramp_counts_as_extra_sample(self):
        reports = run_inequality_suite(1, 15)
        assert reports["mean_plus_gradient_printed"].samples == 16
        assert reports["element_mean_approx"].samples == 15

    def test_empirical_gradient_constant_between_bounds(self):
        # smallest covering coefficient (units h^2 ||f'||^2) must separate the
        # printed 1/(4 pi^2) from the corrected 1/pi^2
        reports = run_inequality_suite(42, 200)
        emp = reports["mean_plus_gradient_corrected"].empirical_constant
        assert 1.0 / (4 * np.pi**2) < emp <= 1.0 / np.pi**2 * 1.01

    def test_element_counts_must_divide(self):
        # the suite's Neumann grid has 512 cells; element_layout refuses the rest
        assert all(512 % N == 0 for N in SUITE_ELEMENT_COUNTS)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            run_inequality_suite(1, 0)
