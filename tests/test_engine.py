"""The order-by-order recursion: forcings, secular removal, gauges, goldens.

The expected strings below were frozen from hand derivations of orders 1
and 2 (both gauges) and cross-checked against the published third- and
higher-order coefficients; the recursion must reproduce them exactly.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lpvolterra.algebra import (QQ, evaluate_numeric, format_element,
                                numeric_ring, parse_element)
from lpvolterra.engine import (GAUGE_SIMPLIFIED_ETA, GAUGE_SIMPLIFIED_XI,
                               GAUGE_ZERO_INITIAL, SecularInconsistencyError,
                               build_forcing, evaluate_solution,
                               remove_secular, run)
from lpvolterra.trigpoly import (VectorTrigPoly, evaluate_at_zero, harmonic,
                                 to_triples, tp_add, tp_diff, tp_mul,
                                 tp_mul_el, tp_term, tp_zero)

W2 = "-(A^2*sqrt(alpha)*(alpha+1))/24"
W4 = "-(A^4*sqrt(alpha)*(5*alpha^2+34*alpha+29))/6912"
W6 = "(A^6*sqrt(alpha)*(97*alpha^3-645*alpha^2-2925*alpha-2183))/3317760"
W8 = ("(A^8*sqrt(alpha)*(102293*alpha^4+188228*alpha^3-763890*alpha^2"
      "-2581852*alpha-1732027))/14332723200")
XI1 = [[2, "sin", "(A^2*sqrt(alpha))/6"], [2, "cos", "A^2/3"]]
ETA1 = [[2, "sin", "(A^2*sqrt(alpha))/6"], [2, "cos", "-(A^2*alpha)/3"]]
XI2 = [[3, "sin", "(A^3*sqrt(alpha))/8"], [3, "cos", "-(A^3*(alpha-3))/32"]]
ETA2 = [[1, "sin", "-(A^3*sqrt(alpha)*(alpha-1))/24"],
        [1, "cos", "(A^3*alpha)/12"],
        [3, "sin", "-(A^3*sqrt(alpha)*(3*alpha-1))/32"],
        [3, "cos", "-(A^3*alpha)/8"]]
XI3 = [[2, "sin", "(A^4*sqrt(alpha)*(alpha-11))/864"],
       [2, "cos", "(A^4*(alpha+7))/432"],
       [4, "sin", "-(A^4*sqrt(alpha)*(13*alpha-125))/2160"],
       [4, "cos", "-(A^4*(20*alpha-13))/540"]]
ETA3 = [[2, "sin", "(A^4*sqrt(alpha)*(25*alpha+13))/864"],
        [2, "cos", "(A^4*alpha*(5*alpha-1))/432"],
        [4, "sin", "-(A^4*sqrt(alpha)*(125*alpha-13))/2160"],
        [4, "cos", "(A^4*alpha*(13*alpha-20))/540"]]
# a_1 below is the value forced by the gauge definition a_1 = xi_1(0)
# together with xi_1 itself; one published table shows a copy of b_1 in
# its place, which is inconsistent with the printed xi_1.
A1 = "A^2*((sqrt(alpha)*sin(2*phi))/6+cos(2*phi)/3)"
B1 = "A^2*((sqrt(alpha)*sin(2*phi))/6-(alpha*cos(2*phi))/3)"
A2 = "A^3*((sqrt(alpha)*sin(3*phi))/8-((alpha-3)*cos(3*phi))/32)"
B2 = ("A^3*(-(sqrt(alpha)*(alpha-1)*sin(phi))/24+(alpha*cos(phi))/12"
      "-(sqrt(alpha)*(3*alpha-1)*sin(3*phi))/32-(alpha*cos(3*phi))/8)")
W3_ZERO_INITIAL = ("A^3*((alpha*(alpha+1)*sin(phi))/48"
                   "+(sqrt(alpha)*(alpha+1)*cos(phi))/48"
                   "-(alpha*(alpha+1)*sin(3*phi))/144"
                   "+(sqrt(alpha)*(alpha+1)*cos(3*phi))/144)")


@pytest.fixture(scope="module")
def sym8():
    return run(8, "symbolic", GAUGE_SIMPLIFIED_XI)


@pytest.fixture(scope="module")
def zi3():
    return run(3, "symbolic", GAUGE_ZERO_INITIAL)


class TestZerothOrder:
    def test_unit_amplitude(self):
        sol = run(0).orders[0]
        ring = sol.xi.ring
        assert to_triples(sol.xi, 1) == [[1, "cos", "A"]]
        assert to_triples(sol.eta, 1) == [[1, "sin", "A*sqrt(alpha)"]]
        assert ring.eq(sol.omega, ring.s(1))


class TestForcing:
    def test_first_order_parts(self, sym8):
        F, G = build_forcing(1, sym8)
        # F = -(1/2) sin 2th, G = (alpha/2) sin 2th; no frequency terms yet
        assert to_triples(F) == [[2, "sin", "-1/2"]]
        assert to_triples(G) == [[2, "sin", "alpha/2"]]
        # the unknown omega_n enters as omega_n * ((1/s) sin th, -cos th)
        ring = sym8.coeff_ring
        F, G = build_forcing(2, sym8)
        omega2, resolved = remove_secular(2, VectorTrigPoly(F, G))
        unit_xi = tp_term(ring, "sin", 1, ring.mul(ring.s(-1), omega2))
        unit_eta = tp_term(ring, "cos", 1, ring.neg(omega2))
        assert resolved == (tp_add(F, unit_xi), tp_add(G, unit_eta))

    def test_rejects_incomplete_prior(self, sym8):
        with pytest.raises(ValueError, match="incomplete"):
            build_forcing(12, sym8)

    def test_omega1_zero(self, sym8):
        omega1, _ = remove_secular(1, build_forcing(1, sym8))
        assert sym8.coeff_ring.is_zero(omega1)

    def test_inconsistent_projections_raise(self):
        # f_c = 1, g_s = 0: f_c + g_s/s != 0, so no omega_n fits both
        ring = numeric_ring(1)
        forcing = VectorTrigPoly(tp_term(ring, "cos", 1, ring.one()),
                                 tp_zero(ring))
        with pytest.raises(SecularInconsistencyError, match="order 1"):
            remove_secular(1, forcing)


def reference_order_step(n, prior):
    """The order step as it ran before the frequency sums moved into
    tp_dot: a per-j tp_diff / tp_mul_el / tp_add loop for the frequency
    terms, and omega_n from projecting a unit forcing for the unknown."""
    ring = prior.coeff_ring
    inv_s = ring.s(-1)
    s = ring.s(1)
    conv = tp_zero(ring)
    for j in range(n):
        conv = tp_add(conv, tp_mul(prior.orders[j].xi, prior.orders[n - 1 - j].eta))
    F = tp_mul_el(conv, ring.neg(inv_s))
    G = tp_mul_el(conv, s)
    for j in range(1, n):
        wj = prior.orders[j].omega
        if ring.is_zero(wj):
            continue
        coef = ring.neg(ring.mul(inv_s, wj))
        F = tp_add(F, tp_mul_el(tp_diff(prior.orders[n - j].xi), coef))
        G = tp_add(G, tp_mul_el(tp_diff(prior.orders[n - j].eta), coef))
    unit = VectorTrigPoly(tp_term(ring, "sin", 1, inv_s),
                          tp_term(ring, "cos", 1, ring.neg(ring.one())))

    def first_harmonic_of_s(vec):
        S = tp_add(tp_diff(vec.xi), tp_mul_el(vec.eta, ring.neg(inv_s)))
        return harmonic(S, 1)

    c_sin, c_cos = first_harmonic_of_s(VectorTrigPoly(F, G))
    u_sin, u_cos = first_harmonic_of_s(unit)
    assert ring.is_zero(u_sin) and not ring.is_zero(u_cos)
    assert ring.is_zero(c_sin)
    omega_n = ring.neg(ring.div(c_cos, u_cos))
    return omega_n, VectorTrigPoly(tp_add(F, tp_mul_el(unit.xi, omega_n)),
                                   tp_add(G, tp_mul_el(unit.eta, omega_n)))


class TestOrderStepMatchesReference:
    @pytest.mark.parametrize("gauge,N", [
        (GAUGE_SIMPLIFIED_XI, 14), (GAUGE_SIMPLIFIED_ETA, 14),
        (GAUGE_ZERO_INITIAL, 5)])
    @pytest.mark.parametrize("alpha", ["symbolic", 1, 2, QQ(9, 4)])
    def test_every_order_equals_reference(self, alpha, gauge, N):
        series = run(N, alpha, gauge)
        for n in range(1, N + 1):
            got = remove_secular(n, build_forcing(n, series))
            assert got == reference_order_step(n, series), n
            assert got[0] == series.orders[n].omega


class TestSimplifiedXiGoldens:
    def test_odd_frequencies_vanish(self, sym8):
        ring = sym8.coeff_ring
        for n in (1, 3, 5, 7):
            assert ring.is_zero(sym8.orders[n].omega)

    def test_even_frequency_strings(self, sym8):
        ring = sym8.coeff_ring
        got = {n: format_element(ring, sym8.orders[n].omega, n)
               for n in (2, 4, 6, 8)}
        assert got == {2: W2, 4: W4, 6: W6, 8: W8}

    def test_low_order_solutions(self, sym8):
        assert to_triples(sym8.orders[1].xi, 2) == XI1
        assert to_triples(sym8.orders[1].eta, 2) == ETA1
        assert to_triples(sym8.orders[2].xi, 3) == XI2
        assert to_triples(sym8.orders[2].eta, 3) == ETA2
        assert to_triples(sym8.orders[3].xi, 4) == XI3
        assert to_triples(sym8.orders[3].eta, 4) == ETA3

    def test_gauge_constants(self, sym8):
        P = sym8.phase_ring
        got = [format_element(P, c, n + 1)
               for n in (1, 2) for c in sym8.orders[n].gauge_constants]
        assert got == [A1, B1, A2, B2]

    def test_xi_first_harmonic_clean(self, sym8):
        ring = sym8.coeff_ring
        for n in range(1, 9):
            a, b = harmonic(sym8.orders[n].xi, 1)
            assert ring.is_zero(a) and ring.is_zero(b)

    def test_parity_and_degree(self, sym8):
        for n in range(1, 9):
            sol = sym8.orders[n]
            for tp in (sol.xi, sol.eta):
                for j in list(tp.sin) + list(tp.cos):
                    assert j <= n + 1
                    assert j % 2 == (n + 1) % 2


class TestSimplifiedEta:
    def test_eta_first_harmonic_clean(self):
        ser = run(4, "symbolic", GAUGE_SIMPLIFIED_ETA)
        ring = ser.coeff_ring
        for n in range(1, 5):
            a, b = harmonic(ser.orders[n].eta, 1)
            assert ring.is_zero(a) and ring.is_zero(b)
        # omega_2 is gauge independent; omega_4 mirrors the xi-gauge
        # polynomial under the predator-prey symmetry
        assert format_element(ring, ser.orders[2].omega, 2) == W2
        assert (format_element(ring, ser.orders[4].omega, 4)
                == "-(A^4*sqrt(alpha)*(29*alpha^2+34*alpha+5))/6912")


class TestZeroInitialGauge:
    def test_anchoring(self, zi3):
        P = zi3.coeff_ring
        for n in (1, 2, 3):
            sol = zi3.orders[n]
            assert P.is_zero(evaluate_at_zero(sol.xi, P))
            assert P.is_zero(evaluate_at_zero(sol.eta, P))
            assert P.is_zero(sol.gauge_constants[0])
            assert P.is_zero(sol.gauge_constants[1])

    def test_omega3_golden(self, zi3):
        P = zi3.coeff_ring
        el, amp = parse_element(P, W3_ZERO_INITIAL)
        assert amp == 3
        assert P.eq(zi3.orders[3].omega, el)
        assert P.is_zero(zi3.orders[1].omega)

    def test_published_first_order_term_by_term(self, zi3):
        P = zi3.coeff_ring
        xi1, eta1 = zi3.orders[1].xi, zi3.orders[1].eta
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
            el, amp = parse_element(P, text)
            assert got is not None and amp == 2 and P.eq(got, el), (comp, kind, j)

    def test_order_cap(self):
        with pytest.raises(ValueError, match="capped"):
            run(9, "symbolic", GAUGE_ZERO_INITIAL)
        run(3, "symbolic", GAUGE_ZERO_INITIAL, zero_initial_order_cap=3)


class TestNumericAlpha:
    def test_rational_alpha_runs(self):
        ser = run(6, QQ(1, 2), GAUGE_SIMPLIFIED_XI)
        ring = ser.coeff_ring
        # against the symbolic run specialized at alpha = 1/2
        sym = run(6, "symbolic", GAUGE_SIMPLIFIED_XI)
        for n in (2, 4, 6):
            want = evaluate_numeric(sym.coeff_ring, sym.orders[n].omega,
                                    alpha=QQ(1, 2), dps=50)
            got = evaluate_numeric(ring, ser.orders[n].omega, dps=50)
            assert abs(want - got) < 1e-40

    def test_alpha_one_frequencies(self):
        ser = run(8, 1, GAUGE_SIMPLIFIED_XI)
        ring = ser.coeff_ring
        d = {n: ring.div(ser.orders[n].omega, ring.s(1)) for n in (2, 4, 6, 8)}
        assert d[2] == Fraction(-1, 12)
        assert d[4] == Fraction(-17, 1728)
        assert d[6] == Fraction(-707, 414720)
        assert d[8] == Fraction(-299203, 895795200)


class TestEvaluate:
    def test_zero_parameter_gives_circle(self, sym8):
        tau = np.linspace(0, 2 * math.pi, 33)
        xi, eta, omega = evaluate_solution(sym8, a=0.0, A=1.0,
                                           phi=0.3, tau_grid=tau, alpha=1)
        assert np.allclose(xi, np.cos(tau + 0.3), atol=1e-14)
        assert np.allclose(eta, np.sin(tau + 0.3), atol=1e-14)
        assert omega == pytest.approx(1.0)

    def test_partial_sum_frequency(self, sym8):
        a = Fraction(1, 10)
        want = 1 + sum(f * a ** n for n, f in
                       [(2, Fraction(-1, 12)), (4, Fraction(-17, 1728)),
                        (6, Fraction(-707, 414720)),
                        (8, Fraction(-299203, 895795200))])
        _, _, omega = evaluate_solution(sym8, a=0.1, alpha=1,
                                        tau_grid=np.array([0.0]))
        assert omega == pytest.approx(float(want), rel=1e-14)

    def test_amplitude_identity(self, sym8):
        tau = np.linspace(0, 5, 57)
        xi1, eta1, om1 = evaluate_solution(sym8, a=0.1, A=1.0, phi=0.2,
                                           tau_grid=tau, alpha=2)
        xi2, eta2, om2 = evaluate_solution(sym8, a=0.1, A=2.0, phi=0.2,
                                           tau_grid=tau, alpha=2)
        assert np.allclose(xi2, 2 * xi1, atol=1e-14)
        assert np.allclose(eta2, 2 * eta1, atol=1e-14)
        assert om1 == om2

    def test_symbolic_series_needs_alpha(self, sym8):
        with pytest.raises(ValueError, match="alpha"):
            evaluate_solution(sym8, a=0.1)

    def test_truncation_order(self, sym8):
        tau = np.array([0.7])
        xi4, _, _ = evaluate_solution(sym8, a=0.2, alpha=1, tau_grid=tau,
                                      order=4)
        xi8, _, _ = evaluate_solution(sym8, a=0.2, alpha=1, tau_grid=tau,
                                      order=8)
        assert xi4 != pytest.approx(xi8, abs=1e-12)
