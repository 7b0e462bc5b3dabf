"""The order-by-order recursion: forcings, secular removal, gauges, goldens.

The expected strings below were frozen from hand derivations of orders 1
and 2 (both gauges) and cross-checked against the published third- and
higher-order coefficients; the recursion must reproduce them exactly.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lpvolterra import engine
from lpvolterra.algebra import (QQ, evaluate_numeric, format_element,
                                numeric_ring, rational_sqrt)
from lpvolterra.engine import (GAUGE_SIMPLIFIED_ETA, GAUGE_SIMPLIFIED_XI,
                               GAUGE_ZERO_INITIAL, OrderSolution,
                               PerturbationSeries, SecularInconsistencyError,
                               _check_order, build_forcing, check_harmonics,
                               evaluate_solution, remove_secular, run)
from lpvolterra.reference import residual, tp_diff, tp_mul_el
from lpvolterra.trigpoly import (TrigPoly, VectorTrigPoly, combine,
                                 evaluate_at_zero, harmonic, int_form,
                                 to_triples, tp_add, tp_mul, tp_term,
                                 tp_zero, vanishes)

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
    assert ring.is_zero(u_sin) and ring.eq(u_cos, ring.scale(inv_s, QQ(2)))
    assert ring.is_zero(c_sin)
    omega_n = ring.neg(ring.scale(ring.mul(c_cos, s), QQ(1, 2)))
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


class TestIntegerSelfCheck:
    """The order step and its self-check run on integer numerators; the
    dict residual W' - K W - R is the oracle they are held to."""

    @pytest.mark.parametrize("gauge,N", [
        (GAUGE_SIMPLIFIED_XI, 14), (GAUGE_SIMPLIFIED_ETA, 14),
        (GAUGE_ZERO_INITIAL, 5)])
    @pytest.mark.parametrize("alpha", ["symbolic", 1, 2, QQ(9, 4)])
    def test_every_stored_order_solves_its_forcing(self, alpha, gauge, N):
        series = run(N, alpha, gauge)
        for n in range(1, N + 1):
            _, forcing = remove_secular(n, build_forcing(n, series))
            sol = series.orders[n]
            res = residual(forcing, VectorTrigPoly(sol.xi, sol.eta))
            assert not (res.xi.sin or res.xi.cos or res.eta.sin or res.eta.cos), n

    @pytest.mark.parametrize("alpha,gauge,n", [
        (2, GAUGE_SIMPLIFIED_XI, 6), ("symbolic", GAUGE_SIMPLIFIED_ETA, 5),
        (QQ(9, 4), GAUGE_ZERO_INITIAL, 3)])
    def test_check_order_rejects_a_changed_coefficient(self, alpha, gauge, n):
        series = run(n, alpha, gauge)
        ring = series.coeff_ring
        _, forcing = remove_secular(n, build_forcing(n, series))
        sol = series.orders[n]
        w = VectorTrigPoly(sol.xi, sol.eta)
        _check_order(gauge, forcing, sol)
        changed = 0
        # every coefficient of xi_n and eta_n, one at a time, moved by s
        for comp, p in enumerate(w):
            for kind, other in (("sin", "cos"), ("cos", "sin")):
                for j in getattr(p, kind):
                    store = dict(getattr(p, kind))
                    store[j] = ring.add(store[j], ring.s(1))
                    bad = list(w)
                    bad[comp] = TrigPoly(ring, **{kind: store,
                                                  other: getattr(p, other)})
                    with pytest.raises(AssertionError, match="nonzero residual"):
                        _check_order(gauge, forcing,
                                     OrderSolution(n, sol.omega, *bad))
                    changed += 1
        assert changed >= 4


class TestLazyRationals:
    """The solve returns xi_n and eta_n as reduced integer forms, which
    _check_order holds to the forcing; the rationals built from a form on
    first read are held to that form here, as are the forcing's, whose
    forms are not folded."""

    @pytest.mark.parametrize("N,alpha,gauge", [
        (24, 2, GAUGE_SIMPLIFIED_XI), (24, QQ(9, 4), GAUGE_SIMPLIFIED_XI),
        (12, "symbolic", GAUGE_SIMPLIFIED_XI),
        (16, QQ(1, 3), GAUGE_SIMPLIFIED_ETA),
        (6, 2, GAUGE_ZERO_INITIAL), (6, "symbolic", GAUGE_ZERO_INITIAL)])
    def test_built_rationals_denote_the_stored_form(self, N, alpha, gauge):
        series = run(N, alpha, gauge)
        ring = series.coeff_ring
        for n in range(1, N + 1):
            sol = series.orders[n]
            _, forcing = remove_secular(n, build_forcing(n, series))
            for tp in (sol.xi, sol.eta, *forcing):
                again = int_form(TrigPoly(ring, tp.sin, tp.cos))
                assert vanishes(ring, combine([(again, 1, 0), (int_form(tp), -1, 0)])), n
            for tp in (sol.xi, sol.eta):
                # a stored order is reduced: no zero numerator, content 1,
                # and phase-free it is the form of its reduced rationals
                form = int_form(tp)
                nums = [v for pair in form.terms.values() for store in pair
                        for v in store.values()]
                assert all(nums) and math.gcd(form.den, *nums) == 1, n
                if not ring.has_phase:
                    assert int_form(TrigPoly(ring, tp.sin, tp.cos)) == form, n


class TestSqrtAlphaParity:
    """With s = sqrt(alpha), sin(j theta) coefficients and omega_n are odd
    in s and cos(j theta) coefficients even, each phi sine flipping the
    parity over the phase ring: one coefficient times s breaks it."""

    @pytest.mark.parametrize("alpha,gauge", [
        ("symbolic", GAUGE_SIMPLIFIED_XI), (2, GAUGE_SIMPLIFIED_XI),
        (QQ(5, 3), GAUGE_SIMPLIFIED_ETA), ("symbolic", GAUGE_ZERO_INITIAL),
        (2, GAUGE_ZERO_INITIAL)])
    @pytest.mark.parametrize("kind", ["sin", "cos"])
    def test_one_coefficient_times_s_raises(self, alpha, gauge, kind):
        n = 3
        sol = run(n, alpha, gauge).orders[n]
        ring = sol.xi.ring
        check_harmonics(gauge, sol)
        store = dict(getattr(sol.eta, kind))
        j = min(store)
        store[j] = ring.mul(store[j], ring.s(1))
        eta = TrigPoly(ring, **{"sin": sol.eta.sin, "cos": sol.eta.cos, kind: store})
        with pytest.raises(AssertionError, match="eta has a .* breaking the sqrt"):
            check_harmonics(gauge, OrderSolution(n, sol.omega, sol.xi, eta))

    @pytest.mark.parametrize("alpha,gauge", [
        ("symbolic", GAUGE_SIMPLIFIED_XI), (2, GAUGE_ZERO_INITIAL)])
    def test_omega_times_s_raises(self, alpha, gauge):
        n = 2
        sol = run(n, alpha, gauge).orders[n]
        ring = sol.xi.ring
        omega = ring.mul(sol.omega, ring.s(1))
        with pytest.raises(AssertionError, match="omega has a .* breaking the sqrt"):
            check_harmonics(gauge, OrderSolution(n, omega, sol.xi, sol.eta))

    def test_square_alpha_is_not_checked(self):
        # s = 3/2 is rational: sin coefficients fold to exponent 0, even
        sol = run(3, QQ(9, 4)).orders[3]
        assert any(0 in c for c in sol.xi.sin.values())
        check_harmonics(GAUGE_SIMPLIFIED_XI, sol)


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

    def test_gauge_constants(self):
        ser = run(2, "symbolic", GAUGE_SIMPLIFIED_ETA)
        got = [format_element(ser.phase_ring, c, n + 1)
               for n in (1, 2) for c in ser.orders[n].gauge_constants]
        assert got == [
            A1, B1,
            "A^3*((sqrt(alpha)*sin(phi))/12+((alpha-1)*cos(phi))/24"
            "+(sqrt(alpha)*sin(3*phi))/8-((alpha-3)*cos(3*phi))/32)",
            "A^3*(-(sqrt(alpha)*(3*alpha-1)*sin(3*phi))/32-(alpha*cos(3*phi))/8)"]


class TestZeroInitialGauge:
    def test_anchoring(self, zi3):
        P = zi3.coeff_ring
        for n in (1, 2, 3):
            sol = zi3.orders[n]
            assert P.is_zero(evaluate_at_zero(sol.xi))
            assert P.is_zero(evaluate_at_zero(sol.eta))
            assert P.is_zero(sol.gauge_constants[0])
            assert P.is_zero(sol.gauge_constants[1])

    def test_zeroth_gauge_constants(self, zi3):
        got = [format_element(zi3.phase_ring, c, 1)
               for c in zi3.orders[0].gauge_constants]
        assert got == ["A*cos(phi)", "A*sqrt(alpha)*sin(phi)"]

    def test_omega3_golden(self, zi3):
        P = zi3.coeff_ring
        assert format_element(P, zi3.orders[3].omega, 3) == W3_ZERO_INITIAL
        assert P.is_zero(zi3.orders[1].omega)


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
        d = {n: ring.mul(ser.orders[n].omega, ring.s(-1)) for n in (2, 4, 6, 8)}
        assert d[2] == {0: Fraction(-1, 12)}
        assert d[4] == {0: Fraction(-17, 1728)}
        assert d[6] == {0: Fraction(-707, 414720)}
        assert d[8] == {0: Fraction(-299203, 895795200)}


def specialise(el, alpha):
    """A symbolic element sum c s^k at s = sqrt(alpha), folded by hand into
    {0: u, 1: v} for u + v sqrt(alpha), or into {0: u} when the root is
    rational; zero parts are dropped."""
    root = rational_sqrt(alpha)
    u = v = QQ(0)
    for k, c in el.items():
        half, odd = divmod(k, 2)          # s^k = alpha^half s^odd, k < 0 too
        c = c * alpha ** half
        if not odd:
            u += c
        elif root is None:
            v += c
        else:
            u += c * root
    return {e: q for e, q in ((0, u), (1, v)) if q}


def specialise_tp(p, alpha):
    """p with every coefficient specialised (phase-ring coefficients
    recursively) and the harmonics that vanish at alpha dropped."""
    def store(d):
        out = {}
        for j, v in d.items():
            if isinstance(v, TrigPoly):
                w = specialise_tp(v, alpha)
                keep = w.sin or w.cos
            else:
                w = specialise(v, alpha)
                keep = w
            if keep:
                out[j] = w
        return out
    return TrigPoly(None, store(p.sin), store(p.cos))


@pytest.fixture(scope="module")
def symbolic_runs():
    return {GAUGE_SIMPLIFIED_XI: run(14, "symbolic", GAUGE_SIMPLIFIED_XI),
            GAUGE_SIMPLIFIED_ETA: run(14, "symbolic", GAUGE_SIMPLIFIED_ETA),
            GAUGE_ZERO_INITIAL: run(4, "symbolic", GAUGE_ZERO_INITIAL)}


class TestExactSpecialisation:
    """A numeric-alpha run equals the symbolic run with s -> sqrt(alpha)
    substituted, exactly, at every order."""

    @pytest.mark.parametrize("gauge", [GAUGE_SIMPLIFIED_XI, GAUGE_SIMPLIFIED_ETA,
                                       GAUGE_ZERO_INITIAL])
    @pytest.mark.parametrize("alpha", [QQ(1, 4), QQ(1), QQ(9, 4), QQ(2),
                                       QQ(5, 3), QQ(2, 9)])
    def test_every_order_equals_the_substituted_symbolic_run(self, symbolic_runs,
                                                             gauge, alpha):
        sym = symbolic_runs[gauge]
        ser = run(sym.order, alpha, gauge)
        for want, got in zip(sym.orders, ser.orders):
            if isinstance(want.omega, TrigPoly):
                assert got.omega == specialise_tp(want.omega, alpha), want.n
            else:
                assert got.omega == specialise(want.omega, alpha), want.n
            assert got.xi == specialise_tp(want.xi, alpha), want.n
            assert got.eta == specialise_tp(want.eta, alpha), want.n


def reference_evaluate_solution(series, a, phi, tau, alpha):
    """``evaluate_solution`` as one evaluate_numeric call per coefficient
    and one np.sin or np.cos per term; the batched one must match it bit
    for bit."""
    ring = series.coeff_ring

    def coeff_value(el):
        return float(evaluate_numeric(ring, el, alpha=alpha, phi=phi, dps=50))

    acc = {"sin": {}, "cos": {}}
    omega = 0.0
    ap = 1.0
    for sol in series.orders:
        omega += coeff_value(sol.omega) * ap
        for comp in ("xi", "eta"):
            for kind, sums in acc.items():
                for j, v in getattr(getattr(sol, comp), kind).items():
                    sums[comp, j] = sums.get((comp, j), 0.0) + coeff_value(v) * ap
        ap *= a
    theta = tau + phi
    out = {"xi": np.zeros_like(tau), "eta": np.zeros_like(tau)}
    for kind, sums in acc.items():
        for (comp, j), c in sums.items():
            out[comp] += c * getattr(np, kind)(j * theta)
    return out["xi"], out["eta"], omega


class TestEvaluate:
    def test_zero_parameter_gives_circle(self, sym8):
        tau = np.linspace(0, 2 * math.pi, 33)
        xi, eta, omega = evaluate_solution(sym8, a=0.0, phi=0.3,
                                           tau_grid=tau, alpha=1)
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

    def test_symbolic_series_needs_alpha(self, sym8):
        with pytest.raises(ValueError, match="alpha"):
            evaluate_solution(sym8, a=0.1)

    def test_numeric_series_rejects_another_alpha(self):
        with pytest.raises(ValueError, match="disagrees"):
            evaluate_solution(run(2, QQ(2)), a=0.1, alpha=3)

    def test_truncation_order(self, sym8):
        tau = np.array([0.7])
        sym4 = PerturbationSeries(sym8.gauge, sym8.orders[:5], sym8.coeff_ring)
        xi4, _, _ = evaluate_solution(sym4, a=0.2, alpha=1, tau_grid=tau)
        xi8, _, _ = evaluate_solution(sym8, a=0.2, alpha=1, tau_grid=tau)
        assert xi4 != pytest.approx(xi8, abs=1e-12)

    @pytest.mark.parametrize("case", ["symbolic", "square", "non-square",
                                      "simplified-eta", "phase"])
    def test_matches_per_coefficient_reference(self, case, sym8, zi3,
                                               monkeypatch):
        # the series' cos harmonics reach xi and eta in different orders,
        # so a shared wave must still be added in each array's own order
        series, alpha, a, phi = {
            "symbolic": (sym8, QQ(7, 3), 0.27, 0.4),
            "square": (run(7, QQ(9, 4)), None, -0.2, 1.1),
            "non-square": (run(7, QQ(2)), None, 0.15, 0.0),
            "simplified-eta": (run(6, QQ(1, 3), GAUGE_SIMPLIFIED_ETA), None,
                               0.3, 2.5),
            "phase": (zi3, QQ(3, 2), 0.2, 0.9)}[case]
        tau = np.linspace(0.0, 13.0, 301)
        want = reference_evaluate_solution(series, a, phi, tau, alpha)
        calls = []
        counted = engine.evaluate_numeric

        def counting(*args, **kwargs):
            calls.append(args[1])
            return counted(*args, **kwargs)

        # the benchmark tracer wraps engine.evaluate_numeric by name
        monkeypatch.setattr(engine, "evaluate_numeric", counting)
        xi, eta, omega = evaluate_solution(series, a, phi=phi, tau_grid=tau,
                                           alpha=alpha)
        assert np.array_equal(xi, want[0])
        assert np.array_equal(eta, want[1])
        assert omega == want[2]
        assert len(calls) == 1 and isinstance(calls[0], list)
