"""Direct numerical integration of the reduced predator-prey system.

Ground truth for the perturbation series: a classical fixed-step RK4
integrator with step-halving error control, a Poincare-section frequency
measurement, and a pointwise curve comparison in the scaled phase plane.
The first integral V = alpha(x - ln x) + (y - ln y) is conserved along
every orbit and serves as the accuracy monitor.

The stepper is fused for speed without changing a bit of its output.
One stepping call walks every sample time of an orbit, restarting the
step at each sample.  Each controlled attempt compares one RK4 step of
size h with two of size h/2.  The RK4 stages write out ``lv_rhs`` with
the same float operations in the same order, in two blocks: a step from
the current state, whose first stage is shared, and one from the
attempt's midpoint.  The first pass runs the start block at h, the full
step; later passes run it at h/2, then the midpoint block.  A rejection
halves h exactly, so the rejected attempt's first half step is the next
attempt's full step.  The fixed-step mode takes the full step alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

_UNDERFLOW = 1e-13

# the halved-step comparison cannot certify errors below a few ulps, so
# the error estimate is floored at this fraction of the state's scale; a
# tolerance below it surfaces as step underflow
ERROR_FLOOR = 1e-15


def lv_rhs(alpha: float, x: float, y: float):
    """Reduced system: dx/dt = x - xy, dy/dt = alpha(-y + xy)."""
    return x - x * y, alpha * (x * y - y)


def first_integral(alpha: float, x: float, y: float) -> float:
    return alpha * (x - math.log(x)) + (y - math.log(y))


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 with optional step halving.

    ``step`` is the nominal (and output) step; ``tolerance`` bounds the
    estimated local error per step relative to the state magnitude, with
    ``math.inf`` disabling the control entirely (pure fixed-step mode);
    ``max_time`` sets the default integration span, negative for a
    backward run."""
    step: float = 1e-2
    tolerance: float = 1e-12
    max_time: float = 2 * math.pi

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class OrbitSample:
    times: np.ndarray
    x_values: np.ndarray
    y_values: np.ndarray
    alpha: float
    conserved_drift: float


def _advance(alpha, x, y, times, step, tolerance):
    """Integrate the state from t = 0 through each of ``times`` in turn
    (monotone, either sign), returning the lists of x and y there."""
    fixed = math.isinf(tolerance)
    x_at, y_at, t = [], [], 0.0
    for target in times:
        # a zero span takes no step: remaining starts below the floor
        span = target - t
        t = target
        sign = 1.0 if span > 0 else -1.0
        remaining = abs(span)
        h = remaining if remaining < step else step
        # sub-roundoff leftovers from float cancellation are already "there"
        floor = _UNDERFLOW * (remaining if remaining > 1.0 else 1.0)
        while remaining > floor:
            if remaining < h:
                h = remaining
            p = x * y
            k1x = x - p
            k1y = alpha * (p - y)
            # x and y are positive: the callers start from a positive state
            # and every step below is checked
            scale = 1.0
            if x > scale:
                scale = x
            if y > scale:
                scale = y
            bound = tolerance * scale
            least = ERROR_FLOOR * scale
            hs = sign * h
            x1 = None
            while True:
                if h < _UNDERFLOW and not fixed:
                    raise ArithmeticError(
                        "step underflow: local error cannot reach the "
                        "requested tolerance")
                # one RK4 step of size hs from (x, y), sharing the first stage
                a = 0.5 * hs
                xs = x + a * k1x
                ys = y + a * k1y
                p = xs * ys
                k2x = xs - p
                k2y = alpha * (p - ys)
                xs = x + a * k2x
                ys = y + a * k2y
                p = xs * ys
                k3x = xs - p
                k3y = alpha * (p - ys)
                xs = x + hs * k3x
                ys = y + hs * k3y
                p = xs * ys
                xm = x + hs * (k1x + 2.0 * k2x + 2.0 * k3x + (xs - p)) / 6.0
                ym = y + hs * (k1y + 2.0 * k2y + 2.0 * k3y + alpha * (p - ys)) / 6.0
                if x1 is None:
                    # the full step h; the next pass takes the first h/2 step
                    if fixed:
                        x, y = xm, ym
                        remaining -= h
                        # a fixed step can overflow to inf or nan, which the
                        # positivity test below lets through; the controlled
                        # branch rejects such steps by their nan error
                        if not (math.isfinite(x) and math.isfinite(y)):
                            raise ArithmeticError(
                                "state is not finite during fixed-step "
                                "integration (x or y overflowed); lower the step")
                        break
                    x1, y1 = xm, ym
                    hs /= 2
                    continue
                # the second h/2 step, from (xm, ym)
                p = xm * ym
                kx = xm - p
                ky = alpha * (p - ym)
                xs = xm + a * kx
                ys = ym + a * ky
                p = xs * ys
                k2x = xs - p
                k2y = alpha * (p - ys)
                xs = xm + a * k2x
                ys = ym + a * k2y
                p = xs * ys
                k3x = xs - p
                k3y = alpha * (p - ys)
                xs = xm + hs * k3x
                ys = ym + hs * k3y
                p = xs * ys
                x2 = xm + hs * (kx + 2.0 * k2x + 2.0 * k3x + (xs - p)) / 6.0
                y2 = ym + hs * (ky + 2.0 * k2y + 2.0 * k3y + alpha * (p - ys)) / 6.0
                # the same comparisons as max(|dx|, |dy|, least), so a nan
                # error still rejects the step
                err = x1 - x2 if x1 > x2 else x2 - x1
                d = y1 - y2 if y1 > y2 else y2 - y1
                if d > err:
                    err = d
                if least > err:
                    err = least
                if err <= bound:
                    x, y = x2, y2
                    remaining -= h
                    if err < bound / 64 and h < step:
                        h = step if step < 2 * h else 2 * h
                    break
                # h/2 and hs/2 are exact, so the rejected attempt's first
                # half step is the next attempt's full step
                h /= 2
                hs /= 2
                x1, y1 = xm, ym
            if x <= 0 or y <= 0:
                raise ArithmeticError(
                    "positivity lost during integration (x or y reached 0)")
        x_at.append(x)
        y_at.append(y)
    return x_at, y_at


def _check_reach(reach: float, step: float) -> None:
    # past 2**52 steps, remaining -= h in _advance stops changing remaining
    if reach > 2.0 ** 52 * step:
        raise ValueError(f"a span of {reach:.4g} is more than 2**52 steps of {step}")


def integrate(alpha: float, x0: float, y0: float,
              config: Optional[IntegratorConfig] = None,
              t_eval: Optional[Sequence[float]] = None) -> OrbitSample:
    """Orbit through (x0, y0), sampled at ``t_eval`` (default: every
    nominal step from 0 to config.max_time, signed)."""
    if not (x0 > 0 and y0 > 0 and math.isfinite(x0) and math.isfinite(y0)):
        raise ValueError("initial populations must be finite and positive")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError("alpha must be finite and positive")
    cfg = config or IntegratorConfig()
    if t_eval is None:
        span = cfg.max_time
        if span == 0:
            raise ValueError("max_time must be nonzero")
        _check_reach(abs(span), cfg.step)
        n = max(2, int(round(abs(span) / cfg.step)) + 1)
        times = np.linspace(0.0, span, n)
    else:
        times = np.asarray(t_eval, dtype=float)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("t_eval must be a nonempty 1-d sequence")
        if len(times) > 1 and not (np.all(np.diff(times) > 0)
                                   or np.all(np.diff(times) < 0)):
            raise ValueError("t_eval must be strictly monotone")
        _check_reach(float(np.max(np.abs(times))), cfg.step)
    xs, ys = _advance(alpha, float(x0), float(y0), times.tolist(), cfg.step,
                      cfg.tolerance)
    v0 = first_integral(alpha, x0, y0)
    drift = 0.0
    log = math.log
    for x, y in zip(xs, ys):
        # first_integral written out; a nan deviation leaves the drift
        # as it is, as max(drift, d) would
        d = abs(alpha * (x - log(x)) + (y - log(y)) - v0)
        if d > drift:
            drift = d
    return OrbitSample(times=times, x_values=np.array(xs), y_values=np.array(ys),
                       alpha=float(alpha), conserved_drift=drift)


# ---------------------------------------------------------------------------
# frequency measurement: mean return time through the section y = y(0)


def measure_frequency(orbit: OrbitSample) -> float:
    """2*pi over the mean return time through y = y(0) on the rising side.

    Sample intervals bracketing a crossing are refined by Newton steps on
    the exact flow (re-integrated from the bracket's left endpoint at
    tolerance 1e-12), so the result is limited by the integrator, not the
    output grid."""
    y0 = float(orbit.y_values[0])
    alpha = orbit.alpha
    times, xs, ys = orbit.times, orbit.x_values, orbit.y_values
    if len(times) < 3:
        raise ArithmeticError("orbit too short to measure a period")
    crossings = []
    for k in range(len(times) - 1):
        if ys[k] < y0 <= ys[k + 1]:
            t_lo, x_lo, y_lo = float(times[k]), float(xs[k]), float(ys[k])
            h = float(times[k + 1]) - t_lo
            # linear seed, then Newton on the re-integrated flow
            frac = (y0 - y_lo) / (float(ys[k + 1]) - y_lo)
            dt = frac * h
            for _ in range(60):
                (xa,), (ya,) = _advance(alpha, x_lo, y_lo, [dt], abs(h), 1e-12)
                _, yd = lv_rhs(alpha, xa, ya)
                if yd == 0:
                    break
                corr = (ya - y0) / yd
                dt -= corr
                if abs(corr) < 1e-13 * max(1.0, abs(t_lo + dt)):
                    break
            crossings.append(t_lo + dt)
    if len(crossings) < 2:
        raise ArithmeticError(
            f"need at least 2 section crossings, found {len(crossings)}; "
            "integrate over more periods")
    period = abs(crossings[-1] - crossings[0]) / (len(crossings) - 1)
    return 2 * math.pi / period


# ---------------------------------------------------------------------------
# curve comparison in the scaled phase plane


@dataclass(frozen=True)
class OrbitComparison:
    max_gap: float
    rms_gap: float
    n_points: int


def compare_orbit(xi_series, eta_series, orbit: OrbitSample,
                  amplitude: float) -> OrbitComparison:
    """Pointwise gap between the series curve and the numeric orbit.

    The series samples are mapped to the (x, y) plane via x = 1 + a*xi,
    y = 1 + a*eta and paired with the orbit samples index by index, so
    the caller chooses the time/phase alignment.  Gaps are reported in
    scaled (xi, eta) units when a != 0."""
    xi_s = np.asarray(xi_series, dtype=float)
    eta_s = np.asarray(eta_series, dtype=float)
    if not (len(xi_s) == len(eta_s) == len(orbit.times)):
        raise ValueError("series samples and orbit samples must align")
    a = float(amplitude)
    dx = (1.0 + a * xi_s) - orbit.x_values
    dy = (1.0 + a * eta_s) - orbit.y_values
    gaps = np.hypot(dx, dy)
    if a != 0:
        gaps = gaps / abs(a)
    return OrbitComparison(max_gap=float(np.max(gaps)),
                           rms_gap=float(np.sqrt(np.mean(gaps ** 2))),
                           n_points=len(gaps))
