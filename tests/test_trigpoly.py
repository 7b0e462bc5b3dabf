"""Trigonometric polynomials and the per-harmonic solver of W' = K W + R."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvolterra.algebra import (QQ, SYMBOLIC, ExactDivisionError,
                                QuadraticRing, RationalRing, evaluate_numeric,
                                numeric_ring, parse_element)
from lpvolterra.engine import solve_linear_anchored
from lpvolterra.trigpoly import (PhaseRing, ResonantForcingError, TrigPoly,
                                 VectorTrigPoly, evaluate_at_zero,
                                 exp_tk_vector, first_harmonic_absorbable,
                                 harmonic, k_apply, max_harmonic,
                                 particular_solution, residual, to_triples,
                                 tp_add, tp_diff, tp_dot, tp_mul, tp_mul_el,
                                 tp_neg, tp_scale, tp_term, tp_zero)

R = SYMBOLIC


def tp(kind, j, num, den=1, spow=0):
    return tp_term(R, kind, j, R.scale(R.s(spow), QQ(num, den)))


class TestAlgebraOfTrigPolys:
    def test_product_to_sum(self):
        # sin(2th) * cos(3th) = [sin(5th) - sin(th)]/2
        p = tp_mul(tp("sin", 2, 1), tp("cos", 3, 1))
        want = tp_add(tp("sin", 5, 1, 2), tp("sin", 1, -1, 2))
        assert p == want

    def test_square_of_cos(self):
        # cos^2(th) = 1/2 + cos(2th)/2
        p = tp_mul(tp("cos", 1, 1), tp("cos", 1, 1))
        want = tp_add(tp("cos", 0, 1, 2), tp("cos", 2, 1, 2))
        assert p == want

    def test_diff(self):
        p = tp_add(tp("sin", 3, 1, 2), tp("cos", 2, 5))
        d = tp_diff(p)
        want = tp_add(tp("cos", 3, 3, 2), tp("sin", 2, -10))
        assert d == want
        assert tp_diff(tp("cos", 0, 7)) == tp_zero(R)

    def test_harmonic_extraction(self):
        p = tp_add(tp("sin", 2, 1, 3), tp("cos", 2, -4))
        a, b = harmonic(p, 2)
        assert R.eq(a, R.from_fraction(QQ(1, 3)))
        assert R.eq(b, R.from_fraction(QQ(-4)))
        assert max_harmonic(p) == 2

    def test_numeric_sampling_agrees_with_symbolic_product(self):
        # independent oracle: sample both factors on a grid and compare
        p = tp_add(tp("sin", 1, 2, 3), tp("cos", 2, -1, 4))
        q = tp_add(tp("cos", 1, 5, 7), tp("sin", 3, 1, 2))
        prod = tp_mul(p, q)
        alpha = QQ(1)

        def sample(poly, th):
            total = np.zeros_like(th)
            for j, v in poly.sin.items():
                total += float(evaluate_numeric(R, v, alpha=alpha)) * np.sin(j * th)
            for j, v in poly.cos.items():
                total += float(evaluate_numeric(R, v, alpha=alpha)) * np.cos(j * th)
            return total

        th = np.linspace(0, 2 * math.pi, 97)
        assert np.allclose(sample(prod, th), sample(p, th) * sample(q, th),
                           atol=1e-12)


class TestSolver:
    def test_first_order_forcing_block(self):
        # F = -(1/2) sin 2th, G = (alpha/2) sin 2th
        F = tp("sin", 2, -1, 2)
        G = tp("sin", 2, 1, 2, spow=2)
        w = particular_solution(VectorTrigPoly(F, G))
        assert to_triples(w.xi, 2) == [[2, "sin", "(A^2*sqrt(alpha))/6"],
                                       [2, "cos", "A^2/3"]]
        assert to_triples(w.eta, 2) == [[2, "sin", "(A^2*sqrt(alpha))/6"],
                                        [2, "cos", "-(A^2*alpha)/3"]]
        r = residual(VectorTrigPoly(F, G), w)
        assert r.xi == tp_zero(R) and r.eta == tp_zero(R)

    def test_constant_forcing(self):
        # K W = -R with R = (f0, g0): W = (-g0/s, s f0)
        F = tp("cos", 0, 3)
        G = tp("cos", 0, 5, spow=1)
        w = particular_solution(VectorTrigPoly(F, G))
        assert R.eq(w.xi.cos[0], R.from_fraction(QQ(-5)))
        assert R.eq(w.eta.cos[0], R.scale(R.s(1), QQ(3)))
        r = residual(VectorTrigPoly(F, G), w)
        assert r.xi == tp_zero(R) and r.eta == tp_zero(R)

    def test_worked_example_anchored(self):
        # forcing (sin 2th, 0) at alpha=1 anchored to W(0) = 0
        ring = numeric_ring(1)
        P = PhaseRing(ring)
        forcing = VectorTrigPoly(tp_term(P, "sin", 2, P.one()), tp_zero(P))
        w = solve_linear_anchored(particular_solution(forcing), P)
        assert P.is_zero(evaluate_at_zero(w.xi, P))
        assert P.is_zero(evaluate_at_zero(w.eta, P))
        r = residual(forcing, w)
        assert r.xi == tp_zero(P) and r.eta == tp_zero(P)
        # at phi = 0: xi = -2/3 cos 2th + 2/3 cos th, eta = -1/3 sin 2th + 2/3 sin th
        vals = {}
        for poly, name in ((w.xi, "xi"), (w.eta, "eta")):
            for j in (1, 2):
                sv = poly.sin.get(j)
                cv = poly.cos.get(j)
                vals[(name, j)] = (
                    float(evaluate_numeric(P, sv, phi=0)) if sv else 0.0,
                    float(evaluate_numeric(P, cv, phi=0)) if cv else 0.0)
        assert vals[("xi", 2)] == pytest.approx((0.0, -2 / 3), abs=1e-12)
        assert vals[("xi", 1)] == pytest.approx((0.0, 2 / 3), abs=1e-12)
        assert vals[("eta", 2)] == pytest.approx((-1 / 3, 0.0), abs=1e-12)
        assert vals[("eta", 1)] == pytest.approx((2 / 3, 0.0), abs=1e-12)

    def test_absorbable_first_harmonic_representatives(self):
        s = R.s(1)
        f_s, f_c = R.one(), R.from_fraction(QQ(2))
        forcing = VectorTrigPoly(
            tp_add(tp_term(R, "sin", 1, f_s), tp_term(R, "cos", 1, f_c)),
            tp_add(tp_term(R, "sin", 1, R.neg(R.scale(s, QQ(2)))),
                   tp_term(R, "cos", 1, s)))
        assert first_harmonic_absorbable(forcing)
        for mode in ("xi", "eta"):
            w = particular_solution(forcing, absorb=mode)
            r = residual(forcing, w)
            assert r.xi == tp_zero(R) and r.eta == tp_zero(R)
            clean = w.xi if mode == "xi" else w.eta
            a, b = harmonic(clean, 1)
            assert R.is_zero(a) and R.is_zero(b)

    def test_non_absorbable_raises(self):
        forcing = VectorTrigPoly(tp("sin", 1, 1), tp_zero(R))
        assert not first_harmonic_absorbable(forcing)
        with pytest.raises(ResonantForcingError, match="secular removal"):
            particular_solution(forcing)

    def test_kernel_and_anchoring(self):
        P = PhaseRing(R)
        v1 = P.mul(P.lift(R.s(1)), P.sin_phi(2))
        v2 = P.cos_phi(1)
        h = exp_tk_vector(P, v1, v2)
        assert P.eq(evaluate_at_zero(h.xi, P), v1)
        assert P.eq(evaluate_at_zero(h.eta, P), v2)
        r = residual(VectorTrigPoly(tp_zero(P), tp_zero(P)), h)
        assert r.xi == tp_zero(P) and r.eta == tp_zero(P)

    def test_quadrature_oracle(self):
        # the solved components must satisfy the ODE pointwise at alpha=4
        ring = numeric_ring(4)
        F = tp_term(ring, "sin", 3, ring.from_fraction(QQ(2, 5)))
        G = tp_term(ring, "cos", 2, ring.s(1))
        w = particular_solution(VectorTrigPoly(F, G))

        def sample(poly, th):
            total = np.zeros_like(th)
            for j, v in poly.sin.items():
                total += float(evaluate_numeric(ring, v)) * np.sin(j * th)
            for j, v in poly.cos.items():
                total += float(evaluate_numeric(ring, v)) * np.cos(j * th)
            return total

        def sample_diff(poly, th):
            total = np.zeros_like(th)
            for j, v in poly.sin.items():
                total += j * float(evaluate_numeric(ring, v)) * np.cos(j * th)
            for j, v in poly.cos.items():
                total -= j * float(evaluate_numeric(ring, v)) * np.sin(j * th)
            return total

        th = np.linspace(0, 2 * math.pi, 513)
        s = 2.0  # sqrt(4)
        lhs_xi = sample_diff(w.xi, th)
        rhs_xi = -sample(w.eta, th) / s + sample(F, th)
        lhs_eta = sample_diff(w.eta, th)
        rhs_eta = s * sample(w.xi, th) + sample(G, th)
        assert np.allclose(lhs_xi, rhs_xi, atol=1e-12)
        assert np.allclose(lhs_eta, rhs_eta, atol=1e-12)


class TestSerialization:
    def test_round_trip(self):
        p = tp_add(tp("sin", 2, 1, 6, spow=1), tp("cos", 2, -1, 3, spow=2))
        back = tp_zero(R)
        for j, kind, text in to_triples(p, 2):
            el, amp = parse_element(R, text)
            assert amp == 2
            back = tp_add(back, tp_term(R, kind, j, el))
        assert back == p

    def test_triples_sorted_and_tagged(self):
        p = tp_add(tp("cos", 3, 1), tp("sin", 1, 1))
        t = to_triples(p)
        assert [(j, kind) for j, kind, _ in t] == [(1, "sin"), (3, "cos")]


# ---------------------------------------------------------------------------
# property tests

coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(
    lambda q: q != 0)


def trig_polys(min_harmonic=0):
    def build(sin_d, cos_d):
        p = tp_zero(R)
        for j, v in sin_d.items():
            p = tp_add(p, tp_term(R, "sin", j, R.from_fraction(QQ(v))))
        for j, v in cos_d.items():
            p = tp_add(p, tp_term(R, "cos", j, R.from_fraction(QQ(v))))
        return p

    return st.builds(
        build,
        st.dictionaries(st.integers(min_value=max(1, min_harmonic), max_value=5),
                        coeffs, max_size=3),
        st.dictionaries(st.integers(min_value=min_harmonic, max_value=5),
                        coeffs, max_size=3))


@given(trig_polys(), trig_polys())
@settings(max_examples=50, deadline=None)
def test_diff_is_a_derivation(p, q):
    lhs = tp_diff(tp_mul(p, q))
    rhs = tp_add(tp_mul(tp_diff(p), q), tp_mul(p, tp_diff(q)))
    assert lhs == rhs


@given(trig_polys(min_harmonic=2))
@settings(max_examples=50, deadline=None)
def test_particular_solution_solves_system(forcing_xi):
    # any forcing without first harmonic is solvable with zero residual
    forcing = VectorTrigPoly(forcing_xi, tp_zero(R))
    w = particular_solution(forcing)
    r = residual(forcing, w)
    assert r.xi == tp_zero(R) and r.eta == tp_zero(R)
    assert max_harmonic(w.xi) <= max(max_harmonic(forcing_xi), 0)


# the phase-free rings tp_dot serves: rational roots (alpha = 1, 9/4),
# quadratic fields (alpha = 2, 5/3, 2/9) and the symbolic Laurent ring
DOT_RINGS = [numeric_ring(a) for a in (1, QQ(9, 4), 2, QQ(5, 3), QQ(2, 9))] + [R]


# drawn without filters, which make generation the slow part of the test
nonzero_rationals = st.builds(
    QQ,
    st.integers(min_value=1, max_value=20) | st.integers(min_value=-20, max_value=-1),
    st.integers(min_value=1, max_value=12))


# phase rings over a symbolic, a rational-root and a quadratic base
PHASE_DOT_RINGS = [PhaseRing(ring) for ring in (R, numeric_ring(QQ(9, 4)),
                                                numeric_ring(2))]


def ring_elements(ring):
    """Nonzero elements; symbolic ones carry negative s-exponents too."""
    if isinstance(ring, PhaseRing):
        return ring_trig_polys(ring.base, max_size=2).filter(
            lambda e: e.sin or e.cos)
    if isinstance(ring, RationalRing):
        return nonzero_rationals
    if isinstance(ring, QuadraticRing):
        part = nonzero_rationals | st.just(QQ(0))
        return (st.tuples(part, nonzero_rationals)
                | st.tuples(nonzero_rationals, part))
    return st.dictionaries(st.integers(min_value=-3, max_value=3),
                           nonzero_rationals, min_size=1, max_size=3)


def ring_trig_polys(ring, max_size=3):
    # cos[0] is the constant term; empty dicts give the zero polynomial
    el = ring_elements(ring)
    return st.builds(lambda sin, cos: TrigPoly(ring, sin, cos),
                     st.dictionaries(st.integers(min_value=1, max_value=6), el,
                                     max_size=max_size),
                     st.dictionaries(st.integers(min_value=0, max_value=6), el,
                                     max_size=max_size))


def dot_operands(min_size=0):
    rings = DOT_RINGS + PHASE_DOT_RINGS
    return st.sampled_from(rings).flatmap(lambda ring: st.tuples(
        st.just(ring),
        st.lists(st.tuples(ring_trig_polys(ring), ring_trig_polys(ring)),
                 min_size=min_size, max_size=4)))


def reference_dot(ring, ps, qs):
    total = tp_zero(ring)
    for p, q in zip(ps, qs):
        total = tp_add(total, tp_mul(p, q))
    return total


def test_dot_rings_cover_every_phase_free_kind():
    kinds = [type(ring) for ring in DOT_RINGS]
    assert kinds.count(RationalRing) == 2 and kinds.count(QuadraticRing) == 3
    assert R in DOT_RINGS


@given(dot_operands())
@settings(max_examples=100, deadline=None)
def test_dot_equals_sum_of_products(operands):
    ring, pairs = operands
    ps = [p for p, _ in pairs]
    qs = [q for _, q in pairs]
    assert tp_dot(ps, qs) == reference_dot(ring, ps, qs)


@given(dot_operands(min_size=1))
@settings(max_examples=30, deadline=None)
def test_dot_cancels_to_the_empty_polynomial(operands):
    _ring, pairs = operands
    ps = [p for p, _ in pairs for _ in (0, 1)]
    qs = [r for _, q in pairs for r in (q, tp_neg(q))]
    got = tp_dot(ps, qs)
    assert got.sin == {} and got.cos == {}


def test_dot_edge_cases():
    assert tp_dot([], []) == tp_zero(R)
    ring = numeric_ring(2)
    p = tp_term(ring, "cos", 0, ring.from_fraction(QQ(3)))
    q = tp_term(ring, "sin", 4, ring.s(1))
    assert tp_dot([p, tp_zero(ring)], [q, q]) == tp_mul(p, q)
    with pytest.raises(ValueError, match="equal length"):
        tp_dot([p], [])
    # over the phase ring it sums tp_mul products and keeps the ring
    P = PhaseRing(ring)
    x = tp_add(tp_term(P, "cos", 1, P.sin_phi(1)), tp_term(P, "sin", 2, P.s(1)))
    assert tp_dot([x, x], [x, tp_zero(P)]) == tp_mul(x, x)
    assert tp_dot([x], [tp_zero(P)]).ring is P
    assert tp_dot([tp_zero(P)], [x]) == tp_zero(P)


# ---------------------------------------------------------------------------
# the phase ring: trig polynomials in phi over a phase-free base ring

def reference_at_zero(p, P):
    """evaluate_at_zero by its definition: sum_j v_j sin(j phi) plus the
    cos terms, built with the ring operations."""
    lift = (lambda v: v) if p.ring is P else P.lift
    total = P.zero()
    for j, v in p.sin.items():
        total = P.add(total, P.mul(lift(v), P.sin_phi(j)))
    for j, v in p.cos.items():
        total = P.add(total, P.mul(lift(v), P.cos_phi(j)))
    return total


def at_zero_cases(ring):
    """(p, P) with p over ``ring`` itself or over its phase ring P."""
    P = PhaseRing(ring)
    phase_el = ring_trig_polys(ring).filter(lambda e: e.sin or e.cos)
    phased = st.builds(
        lambda sin, cos: TrigPoly(P, sin, cos),
        st.dictionaries(st.integers(min_value=1, max_value=4), phase_el, max_size=3),
        st.dictionaries(st.integers(min_value=0, max_value=4), phase_el, max_size=3))
    return st.tuples(ring_trig_polys(ring) | phased, st.just(P))


# symbolic, rational-root (alpha = 9/4) and quadratic (alpha = 2) bases
@given(st.sampled_from([R, numeric_ring(QQ(9, 4)), numeric_ring(2)])
       .flatmap(at_zero_cases))
@settings(max_examples=100, deadline=None)
def test_evaluate_at_zero_matches_definition(case):
    p, P = case
    assert evaluate_at_zero(p, P) == reference_at_zero(p, P)


def test_evaluate_at_zero_rejects_a_foreign_ring():
    p = tp_term(R, "cos", 1, R.one())
    with pytest.raises(ValueError, match="phase ring"):
        evaluate_at_zero(p, PhaseRing(numeric_ring(2)))


def test_phase_division():
    P = PhaseRing(R)
    x = P.add(P.one(), P.sin_phi(2))
    root = P.s(1)
    assert P.div(P.mul(x, root), root) == x
    assert P.div(P.sin_phi(1), P.from_fraction(QQ(1, 2))).sin == {1: {0: QQ(2)}}
    for divisor in (P.cos_phi(1), P.add(P.one(), P.sin_phi(3))):
        with pytest.raises(ExactDivisionError, match="phase-free"):
            P.div(x, divisor)
    for dividend in (x, P.zero()):
        with pytest.raises(ZeroDivisionError):
            P.div(dividend, P.zero())


def test_phase_element_constant_term():
    P = PhaseRing(numeric_ring(2))
    assert P.one().const == (QQ(1), QQ(0))
    assert P.sin_phi(1).const == P.base.zero()
    assert P.add(P.s(1), P.cos_phi(2)).const == (QQ(0), QQ(1))
