"""Integrator, frequency measurement, and orbit comparison checks."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpvolterra import verify
from lpvolterra.engine import GAUGE_SIMPLIFIED_XI, evaluate_solution, run
from lpvolterra.verify import (
    _UNDERFLOW,
    IntegratorConfig,
    OrbitSample,
    _advance,
    compare_orbit,
    first_integral,
    integrate,
    lv_rhs,
    measure_frequency,
)

FIG1_X0 = 1 + 0.1 * math.cos(math.pi / 4)
FIG1_Y0 = 1 + 0.1 * math.sin(math.pi / 4)


# ---------------------------------------------------------------------------
# reference stepper: the unfused RK4 step doubling, one lv_rhs call per
# stage and three full RK4 steps per attempt; the fused one must match it
# bit for bit


def reference_rk4(alpha, x, y, h):
    k1x, k1y = lv_rhs(alpha, x, y)
    k2x, k2y = lv_rhs(alpha, x + 0.5 * h * k1x, y + 0.5 * h * k1y)
    k3x, k3y = lv_rhs(alpha, x + 0.5 * h * k2x, y + 0.5 * h * k2y)
    k4x, k4y = lv_rhs(alpha, x + h * k3x, y + h * k3y)
    return (x + h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6,
            y + h * (k1y + 2 * k2y + 2 * k3y + k4y) / 6)


def reference_advance(alpha, x, y, span, step, tolerance):
    """Integrate the state across ``span`` (signed), returning (x, y)."""
    if span == 0:
        return x, y
    sign = 1.0 if span > 0 else -1.0
    remaining = abs(span)
    h = min(step, remaining)
    fixed = math.isinf(tolerance)
    # sub-roundoff leftovers from float cancellation are already "there"
    while remaining > _UNDERFLOW * max(1.0, abs(span)):
        h = min(h, remaining)
        if fixed:
            x, y = reference_rk4(alpha, x, y, sign * h)
            remaining -= h
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ArithmeticError(
                    "state is not finite during fixed-step "
                    "integration (x or y overflowed); lower the step")
        else:
            while True:
                if h < _UNDERFLOW:
                    raise ArithmeticError(
                        "step underflow: local error cannot reach the "
                        "requested tolerance")
                x1, y1 = reference_rk4(alpha, x, y, sign * h)
                xm, ym = reference_rk4(alpha, x, y, sign * h / 2)
                x2, y2 = reference_rk4(alpha, xm, ym, sign * h / 2)
                scale = max(1.0, abs(x), abs(y))
                # the halved-step comparison cannot certify errors below
                # a few ulps, so floor it there; an uncertifiable
                # tolerance then surfaces as step underflow
                err = max(abs(x1 - x2), abs(y1 - y2), 1e-15 * scale)
                if err <= tolerance * scale:
                    x, y = x2, y2
                    remaining -= h
                    if err < tolerance * scale / 64 and h < step:
                        h = min(2 * h, step)
                    break
                h /= 2
        if x <= 0 or y <= 0:
            raise ArithmeticError(
                "positivity lost during integration (x or y reached 0)")
    return x, y


def reference_integrate(alpha, x0, y0, config, t_eval):
    """The sampling loop of ``integrate`` on the reference stepper."""
    times = np.asarray(t_eval, dtype=float)
    xs = np.empty(len(times))
    ys = np.empty(len(times))
    x, y, t = float(x0), float(y0), 0.0
    v0 = first_integral(alpha, x0, y0)
    drift = 0.0
    for i, target in enumerate(times):
        x, y = reference_advance(alpha, x, y, float(target) - t, config.step,
                                 config.tolerance)
        t = float(target)
        xs[i] = x
        ys[i] = y
        drift = max(drift, abs(first_integral(alpha, x, y) - v0))
    return xs, ys, drift


class TestBasics:
    def test_rhs_stationary_point(self):
        assert lv_rhs(1.0, 1.0, 1.0) == (0.0, 0.0)
        assert lv_rhs(3.0, 1.0, 1.0) == (0.0, 0.0)

    def test_first_integral_value(self):
        assert first_integral(1.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="step"):
            IntegratorConfig(step=0)
        with pytest.raises(ValueError, match="tolerance"):
            IntegratorConfig(tolerance=-1)


class TestIntegrate:
    def test_stationary_orbit(self):
        orbit = integrate(1.0, 1.0, 1.0, IntegratorConfig(max_time=5.0))
        assert np.all(orbit.x_values == 1.0)
        assert np.all(orbit.y_values == 1.0)
        assert orbit.conserved_drift == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            integrate(1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            integrate(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="monotone"):
            integrate(1.0, 1.1, 1.0, t_eval=[0.0, 2.0, 1.0])
        with pytest.raises(ValueError, match="nonzero"):
            integrate(1.0, 1.1, 1.0, IntegratorConfig(max_time=0.0))

    @pytest.mark.parametrize("tolerance", [1e-12, math.inf],
                             ids=["error-control", "fixed-step"])
    @pytest.mark.parametrize("alpha, x0, y0, match", [
        (math.nan, 1.1, 1.0, "alpha"), (math.inf, 1.1, 1.0, "alpha"),
        (1.0, math.nan, 1.0, "populations"), (1.0, 1.1, math.inf, "populations"),
    ], ids=["nan-alpha", "inf-alpha", "nan-x0", "inf-y0"])
    def test_rejects_non_finite_inputs(self, alpha, x0, y0, match, tolerance):
        # a non-finite value must not reach the stepper, which would blame
        # the step ("step underflow" under error control, "lower the step"
        # in fixed-step mode)
        cfg = IntegratorConfig(tolerance=tolerance, max_time=1.0)
        with pytest.raises(ValueError, match=f"{match} must be finite and positive"):
            integrate(alpha, x0, y0, cfg)

    @pytest.mark.parametrize("t_eval,max_time", [
        ([0.0, 1e20], None), ([0.0, -1e20], None), ([0.0, math.inf], None),
        (None, 1e20)])
    def test_span_beyond_float_resolution_rejected(self, t_eval, max_time,
                                                   monkeypatch):
        # stepping 1e20 by 0.01 never ends: remaining - h == remaining
        def forbidden(*args):
            raise AssertionError("stepping started")
        monkeypatch.setattr(verify, "_advance", forbidden)
        cfg = IntegratorConfig(max_time=max_time or 1.0)
        with pytest.raises(ValueError, match=r"2\*\*52 steps"):
            integrate(1.0, 1.1, 1.0, cfg, t_eval=t_eval)

    def test_span_at_float_resolution_accepted(self, monkeypatch):
        monkeypatch.setattr(verify, "_advance", lambda alpha, x, y, times, *rest:
                            ([x] * len(times), [y] * len(times)))
        orbit = integrate(1.0, 1.1, 1.0, t_eval=[0.0, 2.0 ** 52 * 0.01])
        assert orbit.x_values.tolist() == [1.1, 1.1]

    def test_drift_budget_over_ten_periods(self):
        cfg = IntegratorConfig(max_time=20 * math.pi)
        orbit = integrate(1.0, FIG1_X0, FIG1_Y0, cfg)
        assert orbit.conserved_drift <= 1e-9

    def test_fourth_order_convergence(self):
        # pure fixed-step mode: halving the step cuts the drift by ~2^4
        drifts = []
        for h in (0.04, 0.02):
            cfg = IntegratorConfig(step=h, tolerance=math.inf,
                                   max_time=2 * math.pi)
            drifts.append(integrate(1.0, 1.3, 1.0, cfg).conserved_drift)
        ratio = drifts[0] / drifts[1]
        assert 8 < ratio < 32

    def test_time_reversal(self):
        tol = 1e-12
        fwd = IntegratorConfig(tolerance=tol, max_time=2 * math.pi)
        orbit = integrate(1.0, FIG1_X0, FIG1_Y0, fwd)
        back = IntegratorConfig(tolerance=tol, max_time=-2 * math.pi)
        ret = integrate(1.0, float(orbit.x_values[-1]),
                        float(orbit.y_values[-1]), back)
        assert abs(ret.x_values[-1] - FIG1_X0) <= 10 * tol
        assert abs(ret.y_values[-1] - FIG1_Y0) <= 10 * tol

    def test_custom_grid_matches_default(self):
        cfg = IntegratorConfig(max_time=1.0)
        a = integrate(1.0, 1.2, 0.9, cfg)
        b = integrate(1.0, 1.2, 0.9, cfg, t_eval=a.times)
        assert np.allclose(a.x_values, b.x_values, atol=1e-12)

    def test_step_underflow_signalled(self):
        with pytest.raises(ArithmeticError, match="underflow"):
            integrate(1.0, 1.5, 1.0, IntegratorConfig(tolerance=1e-30,
                                                      max_time=1.0))

    def test_fixed_step_overflow_signalled(self):
        # unchecked, the first step overflows x to inf and the next makes
        # it nan; neither is <= 0, and max(drift, nan) drops the nan drift
        cfg = IntegratorConfig(step=0.1, tolerance=math.inf, max_time=0.3)
        with pytest.raises(ArithmeticError, match="not finite"):
            integrate(1.0, 1e-3, 1e100, cfg)

    def test_positivity_loss_signalled(self):
        # absurd fixed step on a violent orbit drives y through zero
        cfg = IntegratorConfig(step=10.0, tolerance=math.inf, max_time=40.0)
        with pytest.raises(ArithmeticError, match="positivity"):
            integrate(1.0, 50.0, 1e-4, cfg)


class TestFusedStepper:
    """The fused ``_advance`` equals the reference stepper with ``==``."""

    # explicit examples run first, in this order, and the first failure
    # ends the test: a mutant that lowers the method's order would make
    # the generated tight-tolerance draws crawl, not fail, and a wrong
    # second half step crawls at 1e-12 but is accepted, and caught, at 1e-3
    @example(alpha=1.5, x=1.3, y=0.8, span=-0.7, step=0.1, tolerance=math.inf)
    @example(alpha=1.5, x=1.3, y=0.8, span=0.7, step=0.1, tolerance=1e-3)
    @example(alpha=1.5, x=1.3, y=0.8, span=2.5, step=1.0, tolerance=1e-12)
    @example(alpha=1.0, x=1e-3, y=1e100, span=0.3, step=0.1, tolerance=math.inf)
    @settings(max_examples=250, deadline=None, report_multiple_bugs=False)
    @given(alpha=st.floats(0.25, 4.0),
           x=st.floats(0.4, 2.0),
           y=st.floats(0.4, 2.0),
           span=st.one_of(st.floats(-3.0, 3.0), st.floats(-0.01, 0.01)),
           step=st.sampled_from([1e-2, 0.1, 0.5, 1.0]),
           tolerance=st.sampled_from([math.inf, 1e-3, 1e-8, 1e-12, 1e-14]))
    def test_advance_matches_reference(self, alpha, x, y, span, step, tolerance):
        # spans of +-0.01 against steps of 0.01 and up cover a span shorter
        # than the step; steps of 0.5 and 1 against tight tolerances force
        # rejections; an infinite tolerance is fixed-step mode
        try:
            expected = reference_advance(alpha, x, y, span, step, tolerance)
        except ArithmeticError as exc:
            with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
                _advance(alpha, x, y, [span], step, tolerance)
        else:
            assert _advance(alpha, x, y, [span], step, tolerance) == \
                ([expected[0]], [expected[1]])

    # the first example walks spans of 0, 0.003, 0, 0.997 and 1.5 with
    # unit steps at 1e-12, so it rejects after a zero span and a short one
    @example(alpha=1.5, x=1.3, y=0.8, sign=1.0, gaps=[0.0, 0.003, 0.0, 0.997, 1.5],
             step=1.0, tolerance=1e-12)
    @example(alpha=1.5, x=1.3, y=0.8, sign=-1.0, gaps=[0.0, 0.05, 0.3, 0.0],
             step=0.1, tolerance=math.inf)
    @settings(max_examples=150, deadline=None, report_multiple_bugs=False)
    @given(alpha=st.floats(0.25, 4.0),
           x=st.floats(0.4, 2.0),
           y=st.floats(0.4, 2.0),
           sign=st.sampled_from([1.0, -1.0]),
           gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.01),
                                   st.floats(0.0, 1.5)), min_size=1, max_size=8),
           step=st.sampled_from([1e-2, 0.1, 0.5, 1.0]),
           tolerance=st.sampled_from([math.inf, 1e-3, 1e-8, 1e-12]))
    def test_walk_matches_reference_span_by_span(self, alpha, x, y, sign, gaps,
                                                 step, tolerance):
        # one call walks the sample times sign * (g1), sign * (g1 + g2), ...:
        # gaps of 0 are zero spans, gaps below 0.01 are shorter than every
        # step, steps of 0.5 and 1 at tight tolerances force rejections, and
        # an infinite tolerance is fixed-step mode
        times, t = [], 0.0
        for gap in gaps:
            t += sign * gap
            times.append(t)
        config = IntegratorConfig(step=step, tolerance=tolerance)
        try:
            xs, ys, _ = reference_integrate(alpha, x, y, config, times)
        except ArithmeticError as exc:
            with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
                _advance(alpha, x, y, times, step, tolerance)
        else:
            assert _advance(alpha, x, y, times, step, tolerance) == \
                (xs.tolist(), ys.tolist())

    @pytest.mark.parametrize("span", [2.5, -2.5])
    def test_rejections_are_exercised(self, span, monkeypatch):
        # a unit step at a 1e-12 tolerance is rejected several times in a
        # row, so the reference's first attempts take full steps of 1,
        # 1/2, 1/4, ... (each attempt makes three RK4 calls); further
        # steps follow the rejections
        sizes = []
        unrecorded = reference_rk4

        def recorded(alpha, x, y, h):
            sizes.append(abs(h))
            return unrecorded(alpha, x, y, h)

        monkeypatch.setattr(sys.modules[__name__], "reference_rk4", recorded)
        expected = reference_advance(1.5, 1.3, 0.8, span, 1.0, 1e-12)
        assert sizes[0:15:3] == [1.0, 0.5, 0.25, 0.125, 0.0625]
        assert _advance(1.5, 1.3, 0.8, [span], 1.0, 1e-12) == \
            ([expected[0]], [expected[1]])

    def test_unreachable_tolerance_underflows_in_both(self):
        with pytest.raises(ArithmeticError, match="underflow"):
            reference_advance(1.0, 1.5, 1.0, 1.0, 1e-2, 1e-30)
        with pytest.raises(ArithmeticError, match="underflow"):
            _advance(1.0, 1.5, 1.0, [1.0], 1e-2, 1e-30)

    @pytest.mark.parametrize("tolerance", [1e-12, 1e-8, math.inf])
    def test_integrate_matches_reference(self, tolerance):
        t_eval = np.linspace(0.0, -3.0, 97) if tolerance == 1e-8 \
            else np.linspace(0.0, 7.0, 201)
        config = IntegratorConfig(tolerance=tolerance)
        orbit = integrate(2.0, 1.25, 0.9, config, t_eval=t_eval)
        xs, ys, drift = reference_integrate(2.0, 1.25, 0.9, config, t_eval)
        assert np.array_equal(orbit.x_values, xs)
        assert np.array_equal(orbit.y_values, ys)
        assert orbit.conserved_drift == drift


class TestMeasureFrequency:
    def test_stationary_orbit_has_no_crossings(self):
        orbit = integrate(1.0, 1.0, 1.0, IntegratorConfig(max_time=10.0))
        with pytest.raises(ArithmeticError, match="crossings"):
            measure_frequency(orbit)

    def test_too_short_span(self):
        orbit = integrate(1.0, FIG1_X0, FIG1_Y0,
                          IntegratorConfig(max_time=2.0))
        with pytest.raises(ArithmeticError, match="crossings"):
            measure_frequency(orbit)

    def test_small_amplitude_limit_alpha_four(self):
        # omega -> sqrt(alpha) = 2 as the orbit shrinks
        orbit = integrate(4.0, 1.001, 1.0, IntegratorConfig(max_time=4 * math.pi))
        assert measure_frequency(orbit) == pytest.approx(2.0, abs=1e-5)

    def test_leading_correction_alpha_one(self):
        # omega = 1 - a^2 (1+alpha)/24 + O(a^4); the O(a^4) term is ~1e-14
        a = 1e-3
        orbit = integrate(1.0, 1.0 + a, 1.0,
                          IntegratorConfig(max_time=8 * math.pi))
        omega = measure_frequency(orbit)
        assert abs(omega - (1 - a * a / 12)) < 1e-10

    def test_matches_series_partial_sum(self):
        series = run(8, 1, GAUGE_SIMPLIFIED_XI)
        a = 0.1
        tau0 = np.array([0.0])
        xi0, eta0, omega_s = evaluate_solution(series, a, tau_grid=tau0)
        orbit = integrate(1.0, 1 + a * float(xi0[0]), 1 + a * float(eta0[0]),
                          IntegratorConfig(max_time=8 * math.pi))
        omega_n = measure_frequency(orbit)
        assert abs(omega_n - omega_s) / omega_n < 1e-9

    @pytest.mark.parametrize("alpha,x0,y0,span", [(1.0, 1.1, 1.0, 20.0),
                                                  (2.5, 1.3, 0.9, 30.0)])
    def test_backward_orbit_gives_the_forward_frequency(self, alpha, x0, y0, span):
        # a negative max_time integrates backward; the Newton refinement
        # must step with the spacing's size, not its sign
        fwd, back = (measure_frequency(integrate(alpha, x0, y0, IntegratorConfig(max_time=t)))
                     for t in (span, -span))
        assert abs(back - fwd) / fwd < 1e-9


class TestCompareOrbit:
    def test_zero_amplitude_zero_distance(self):
        orbit = integrate(1.0, 1.0, 1.0, IntegratorConfig(max_time=1.0))
        n = len(orbit.times)
        cmp = compare_orbit(np.cos(orbit.times), np.sin(orbit.times), orbit, 0.0)
        assert cmp.max_gap == 0.0
        assert cmp.rms_gap == 0.0
        assert cmp.n_points == n

    def test_misaligned_samples_rejected(self):
        orbit = integrate(1.0, 1.0, 1.0, IntegratorConfig(max_time=1.0))
        with pytest.raises(ValueError, match="align"):
            compare_orbit([0.0], [0.0], orbit, 0.1)

    def test_gap_in_scaled_units(self):
        orbit = OrbitSample(times=np.array([0.0]), x_values=np.array([1.2]),
                            y_values=np.array([1.0]), alpha=1.0,
                            conserved_drift=0.0)
        cmp = compare_orbit([0.5], [0.0], orbit, 0.1)
        assert cmp.max_gap == pytest.approx(1.5)

    def test_second_order_beats_zeroth_order(self):
        # the published phase-plane comparison: alpha=1, a=0.1, phi=pi/4
        a, phi = 0.1, math.pi / 4
        tau = np.linspace(0.0, 2 * math.pi, 400)
        gaps = {}
        for order in (0, 2):
            xi, eta, omega = evaluate_solution(run(order, 1, GAUGE_SIMPLIFIED_XI),
                                               a, phi=phi, tau_grid=tau)
            x0, y0 = 1 + a * float(xi[0]), 1 + a * float(eta[0])
            orbit = integrate(1.0, x0, y0, t_eval=tau / omega)
            gaps[order] = compare_orbit(xi, eta, orbit, a)
        assert gaps[2].max_gap < gaps[0].max_gap
        assert gaps[2].rms_gap < gaps[0].rms_gap
        assert gaps[0].max_gap > 1e-3   # the zeroth-order gap is visible
