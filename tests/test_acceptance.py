"""Acceptance suite.

Every published target value the package must reproduce, each with its
tolerance pinned next to it.  Nothing in here is loosened to make a run
green: a failure means the implementation misses the stated target, and
one such miss is currently expected (see TestLargeOrderSingularity:
the two approximant families settle about 2.1% apart at order 44, just
outside the 2% agreement bound, which they do meet by order 62).

Layout, one class per criterion:
  1. TestSymbolicGoldens        exact frequency/solution strings, main gauge
  2. TestZeroInitialGoldens     exact first order and omega_3, anchored gauge
  3. TestResidualProperty       series re-substituted into the equations
  4. TestOddVanishing           omega_1 = omega_3 = ... = omega_45 = 0
  5. TestLargeOrderSingularity  order-44 singularity estimates at alpha = 1
  6. TestRadiusMonotonicity     radius decreasing across five alpha values
  7. TestNumericCrossCheck      frequency and orbit against integration
  8. TestApproximantProperties  exact invariants on random rational series
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from lpvolterra.algebra import QQ, format_element
from lpvolterra.analysis import (FAMILY_HERMITE_PADE, FAMILY_PADE,
                                 default_orders, discriminant_roots,
                                 hermite_pade_fit, radius_scan,
                                 series_from_engine, stable_singularity, _to_complex)
from lpvolterra.checks import _denotes, equation_residuals, iter_checks
from lpvolterra.engine import (GAUGE_SIMPLIFIED_XI, GAUGE_ZERO_INITIAL,
                               evaluate_solution, run)
from lpvolterra.trigpoly import to_triples
from lpvolterra.verify import (IntegratorConfig, compare_orbit, integrate,
                               measure_frequency)
from lpvolterra.analysis import PowerSeries

pytestmark = pytest.mark.acceptance

STRETCH = os.environ.get("LPV_STRETCH") == "1"


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


# ---------------------------------------------------------------------------
# shared expensive runs

@pytest.fixture(scope="module")
def sym8():
    return timed(run, 8, "symbolic", GAUGE_SIMPLIFIED_XI)


@pytest.fixture(scope="module")
def zi3():
    return timed(run, 3, "symbolic", GAUGE_ZERO_INITIAL)


@pytest.fixture(scope="module")
def sym45():
    return timed(run, 45, "symbolic", GAUGE_SIMPLIFIED_XI)


@pytest.fixture(scope="module")
def eng44():
    return run(44, QQ(1), GAUGE_SIMPLIFIED_XI)


@pytest.fixture(scope="module")
def ps44(eng44):
    return series_from_engine(eng44)


# ---------------------------------------------------------------------------
# 1. exact golden strings, simplified-xi gauge, symbolic alpha


class TestSymbolicGoldens:
    def test_frequency_corrections(self, sym8):
        series, _ = sym8
        ring = series.coeff_ring
        got = {n: format_element(ring, series.orders[n].omega, n)
               for n in (4, 6, 8)}
        assert got[4] == "-(A^4*sqrt(alpha)*(5*alpha^2+34*alpha+29))/6912"
        assert got[6] == ("(A^6*sqrt(alpha)*(97*alpha^3-645*alpha^2"
                          "-2925*alpha-2183))/3317760")
        assert got[8] == ("(A^8*sqrt(alpha)*(102293*alpha^4+188228*alpha^3"
                          "-763890*alpha^2-2581852*alpha-1732027))"
                          "/14332723200")

    def test_first_order_coefficients(self, sym8):
        series, _ = sym8
        assert to_triples(series.orders[1].xi, 2) == [
            [2, "sin", "(A^2*sqrt(alpha))/6"], [2, "cos", "A^2/3"]]
        assert to_triples(series.orders[1].eta, 2) == [
            [2, "sin", "(A^2*sqrt(alpha))/6"], [2, "cos", "-(A^2*alpha)/3"]]

    def test_gauge_constants(self, sym8):
        series, _ = sym8
        # the constants carry the phase even when the solutions do not
        ring = series.phase_ring
        got = [format_element(ring, c, n + 1)
               for n in (1, 2) for c in series.orders[n].gauge_constants]
        assert got == [
            "A^2*((sqrt(alpha)*sin(2*phi))/6+cos(2*phi)/3)",
            "A^2*((sqrt(alpha)*sin(2*phi))/6-(alpha*cos(2*phi))/3)",
            "A^3*((sqrt(alpha)*sin(3*phi))/8-((alpha-3)*cos(3*phi))/32)",
            "A^3*(-(sqrt(alpha)*(alpha-1)*sin(phi))/24+(alpha*cos(phi))/12"
            "-(sqrt(alpha)*(3*alpha-1)*sin(3*phi))/32-(alpha*cos(3*phi))/8)",
        ]

    def test_second_order_solution(self, sym8):
        series, _ = sym8
        assert to_triples(series.orders[2].xi, 3) == [
            [3, "sin", "(A^3*sqrt(alpha))/8"],
            [3, "cos", "-(A^3*(alpha-3))/32"]]
        assert to_triples(series.orders[2].eta, 3) == [
            [1, "sin", "-(A^3*sqrt(alpha)*(alpha-1))/24"],
            [1, "cos", "(A^3*alpha)/12"],
            [3, "sin", "-(A^3*sqrt(alpha)*(3*alpha-1))/32"],
            [3, "cos", "-(A^3*alpha)/8"]]

    def test_eight_third_order_coefficients(self, sym8):
        series, _ = sym8
        assert to_triples(series.orders[3].xi, 4) == [
            [2, "sin", "(A^4*sqrt(alpha)*(alpha-11))/864"],
            [2, "cos", "(A^4*(alpha+7))/432"],
            [4, "sin", "-(A^4*sqrt(alpha)*(13*alpha-125))/2160"],
            [4, "cos", "-(A^4*(20*alpha-13))/540"]]
        assert to_triples(series.orders[3].eta, 4) == [
            [2, "sin", "(A^4*sqrt(alpha)*(25*alpha+13))/864"],
            [2, "cos", "(A^4*alpha*(5*alpha-1))/432"],
            [4, "sin", "-(A^4*sqrt(alpha)*(125*alpha-13))/2160"],
            [4, "cos", "(A^4*alpha*(13*alpha-20))/540"]]

    def test_runtime_budget(self, sym8):
        _, elapsed = sym8
        assert elapsed < 60


# ---------------------------------------------------------------------------
# 2. exact golden strings, zero-initial gauge


class TestZeroInitialGoldens:
    def test_first_order_term_by_term(self, zi3):
        series, _ = zi3
        ring = series.coeff_ring
        xi1, eta1 = series.orders[1].xi, series.orders[1].eta
        # published expressions, compared coefficient by coefficient by
        # exact evaluation: the printed term order differs from the canonical one
        published = {
            ("xi", "sin", 1): "A^2*(sin(phi)/4-(sqrt(alpha)*cos(3*phi))/12"
                              "-sin(3*phi)/12-(sqrt(alpha)*cos(phi))/4)",
            ("xi", "cos", 1): "A^2*((sqrt(alpha)*sin(3*phi))/12-cos(phi)/4"
                              "-cos(3*phi)/12-(sqrt(alpha)*sin(phi))/4)",
            ("xi", "sin", 2): "(A^2*sqrt(alpha))/6",
            ("xi", "cos", 2): "A^2/3",
            ("eta", "sin", 1): "A^2*((alpha*sin(3*phi))/12"
                               "-(sqrt(alpha)*cos(3*phi))/12"
                               "-(sqrt(alpha)*cos(phi))/4-(alpha*sin(phi))/4)",
            ("eta", "cos", 1): "A^2*((alpha*cos(3*phi))/12"
                               "+(sqrt(alpha)*sin(3*phi))/12"
                               "+(alpha*cos(phi))/4-(sqrt(alpha)*sin(phi))/4)",
            ("eta", "sin", 2): "(A^2*sqrt(alpha))/6",
            ("eta", "cos", 2): "-(A^2*alpha)/3",
        }
        for (comp, kind, j), text in published.items():
            poly = xi1 if comp == "xi" else eta1
            got = poly.sin.get(j) if kind == "sin" else poly.cos.get(j)
            assert got is not None and _denotes(ring, got, text, 2), (comp, kind, j)
        # and nothing beyond those eight coefficients
        for poly in (xi1, eta1):
            assert set(poly.sin) <= {1, 2} and set(poly.cos) <= {1, 2}

    def test_third_frequency_correction(self, zi3):
        series, _ = zi3
        ring = series.coeff_ring
        assert format_element(ring, series.orders[3].omega, 3) == (
            "A^3*((alpha*(alpha+1)*sin(phi))/48"
            "+(sqrt(alpha)*(alpha+1)*cos(phi))/48"
            "-(alpha*(alpha+1)*sin(3*phi))/144"
            "+(sqrt(alpha)*(alpha+1)*cos(3*phi))/144)")

    def test_omega1_vanishes_in_both_gauges(self, zi3, sym8):
        zi_series, _ = zi3
        xi_series, _ = sym8
        assert zi_series.coeff_ring.is_zero(zi_series.orders[1].omega)
        assert xi_series.coeff_ring.is_zero(xi_series.orders[1].omega)

    def test_runtime_budget(self, zi3):
        _, elapsed = zi3
        assert elapsed < 60


# ---------------------------------------------------------------------------
# 3. residual property through order 10, both gauges, symbolic alpha


class TestResidualProperty:
    def test_simplified_xi_gauge(self):
        (series, elapsed) = timed(run, 10, "symbolic", GAUGE_SIMPLIFIED_XI)
        assert equation_residuals(series) == []
        assert elapsed < 600

    def test_zero_initial_gauge(self):
        (series, elapsed) = timed(run, 10, "symbolic", GAUGE_ZERO_INITIAL)
        assert equation_residuals(series) == []
        assert elapsed < 600


# ---------------------------------------------------------------------------
# 4. odd frequency corrections vanish through order 45


class TestOddVanishing:
    def test_all_odd_orders_vanish(self, sym45):
        series, _ = sym45
        ring = series.coeff_ring
        for n in range(1, 46, 2):
            assert ring.is_zero(series.orders[n].omega), f"omega_{n} != 0"

    def test_even_orders_do_not(self, sym45):
        series, _ = sym45
        ring = series.coeff_ring
        for n in range(2, 46, 2):
            assert not ring.is_zero(series.orders[n].omega), f"omega_{n} == 0"

    def test_runtime_budget(self, sym45):
        _, elapsed = sym45
        assert elapsed < 1800


# ---------------------------------------------------------------------------
# 5. order-44 singularity estimates at alpha = 1


class TestLargeOrderSingularity:
    def test_pade_estimate_in_window(self, ps44):
        est = stable_singularity(ps44, FAMILY_PADE,
                                 default_orders(FAMILY_PADE, len(ps44)),
                                 threshold=5e-2)
        assert 3.3 <= est.radius <= 3.6

    def test_hermite_pade_estimate_in_window(self, ps44):
        est = stable_singularity(ps44, FAMILY_HERMITE_PADE,
                                 default_orders(FAMILY_HERMITE_PADE, len(ps44)),
                                 threshold=5e-2)
        assert 3.3 <= est.radius <= 3.6

    def test_families_agree_within_two_percent(self, ps44):
        # Known failure, kept at the stated bound rather than widened:
        # the pole and branch-point chains settle about 2.1% apart at
        # this order.  They do meet the bound by order 62, which the
        # full-level check suite exercises.
        est_p = stable_singularity(ps44, FAMILY_PADE,
                                   default_orders(FAMILY_PADE, len(ps44)),
                                   threshold=5e-2)
        est_h = stable_singularity(ps44, FAMILY_HERMITE_PADE,
                                   default_orders(FAMILY_HERMITE_PADE,
                                                  len(ps44)),
                                   threshold=5e-2)
        gap = (abs(est_p.radius - est_h.radius)
               / min(est_p.radius, est_h.radius))
        assert gap <= 0.02, (f"families disagree by {gap:.3%}: "
                             f"{est_p.radius:.9f} vs {est_h.radius:.9f}")

    @pytest.mark.stretch
    @pytest.mark.skipif(not STRETCH, reason="set LPV_STRETCH=1 to run")
    def test_stretch_order62_branch_points(self):
        start = time.perf_counter()
        series = run(62, QQ(1), GAUGE_SIMPLIFIED_XI)
        ps = series_from_engine(series)
        low = stable_singularity(ps, FAMILY_HERMITE_PADE, (5, 6, 7),
                                 threshold=5e-2)
        high = stable_singularity(ps, FAMILY_HERMITE_PADE, (9, 10),
                                  threshold=1e-2)
        assert low.radius == pytest.approx(3.462532, abs=1e-2)
        assert high.radius == pytest.approx(3.457033, abs=1e-2)
        pole = stable_singularity(ps, FAMILY_PADE, (13, 14, 15),
                                  threshold=1e-2)
        assert pole.radius == pytest.approx(3.5, abs=5e-2)
        assert time.perf_counter() - start < 7200


# ---------------------------------------------------------------------------
# 6. radius estimates strictly decreasing in alpha


class TestRadiusMonotonicity:
    def test_strictly_decreasing_over_five_alphas(self):
        grid = [QQ(1, 4), QQ(1, 2), QQ(1), QQ(2), QQ(4)]
        rows = radius_scan(grid, 44)
        assert [row.alpha for row in rows] == grid
        assert all(FAMILY_HERMITE_PADE in row.estimates for row in rows)
        branch = [row.estimates[FAMILY_HERMITE_PADE].radius for row in rows]
        assert all(a > b for a, b in zip(branch, branch[1:])), branch
        poles = [row.estimates[FAMILY_PADE].radius for row in rows
                 if FAMILY_PADE in row.estimates]
        assert len(poles) >= 4
        assert all(a > b for a, b in zip(poles, poles[1:])), poles


# ---------------------------------------------------------------------------
# 7. cross-checks against direct integration


class TestNumericCrossCheck:
    def test_frequency_agrees_to_1e6(self, eng44):
        a = 0.05
        xi0, eta0, omega = evaluate_solution(eng44, a, tau_grid=[0.0])
        x0 = 1 + a * float(xi0[0])
        y0 = 1 + a * float(eta0[0])
        period = 2 * math.pi / omega
        orbit = integrate(1.0, x0, y0, IntegratorConfig(max_time=8 * period))
        measured = measure_frequency(orbit)
        assert abs(measured - omega) / omega <= 1e-6

    def test_second_order_orbit_beats_zeroth(self):
        a, phi = 0.1, math.pi / 4
        tau = np.linspace(0.0, 2 * math.pi, 513)
        gaps = {}
        for order in (0, 2):
            xi, eta, omega = evaluate_solution(run(order, QQ(1), GAUGE_SIMPLIFIED_XI),
                                               a, phi=phi, tau_grid=tau)
            x0 = 1 + a * float(xi[0])
            y0 = 1 + a * float(eta[0])
            t_eval = tau / omega
            orbit = integrate(1.0, x0, y0,
                              IntegratorConfig(max_time=float(t_eval[-1])),
                              t_eval=t_eval)
            gaps[order] = compare_orbit(xi, eta, orbit, a).max_gap
        assert gaps[2] < gaps[0]


# ---------------------------------------------------------------------------
# 8. approximant invariants


class TestApproximantProperties:
    def test_exact_invariants_on_100_random_series(self):
        results = list(iter_checks("full", names=["pade-reproduction",
                                                  "hermite-pade-residual"]))
        for result in results:
            assert result.passed, f"{result.name}: {result.detail}"
            assert "100" in result.detail

    def test_square_root_branch_point_recovered(self):
        coeffs = [QQ(1)]
        for j in range(1, 7):
            coeffs.append(coeffs[-1] * QQ(-4) * (QQ(1, 2) - (j - 1)) / j)
        fit = hermite_pade_fit(PowerSeries(tuple(coeffs)), 0, 0, 1)
        roots = [_to_complex(r) for r in discriminant_roots(fit)]
        best = min(roots, key=lambda r: abs(r - 0.25))
        assert abs(best - 0.25) <= 1e-8
