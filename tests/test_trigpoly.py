"""Trigonometric polynomials and the per-harmonic solver of W' = K W + R."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpvolterra.trigpoly as trigpoly
from lpvolterra.algebra import (QQ, SYMBOLIC, evaluate_numeric, format_element,
                                numeric_ring, rational_sqrt)
from lpvolterra.checks import _denotes
from lpvolterra.engine import run
from lpvolterra.reference import at_zero, residual, tp_diff
from lpvolterra.trigpoly import (PhaseRing, ResonantForcingError, TrigPoly,
                                 VectorTrigPoly, combine, evaluate_at_zero,
                                 harmonic, int_form, max_harmonic,
                                 particular_solution,
                                 solve_linear_anchored, to_triples, tp_add,
                                 tp_dot, tp_mul, tp_neg, tp_scale, tp_term,
                                 tp_zero)

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
        w = solve_linear_anchored(forcing)
        assert P.is_zero(evaluate_at_zero(w.xi))
        assert P.is_zero(evaluate_at_zero(w.eta))
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
        for mode in ("xi", "eta"):
            w = particular_solution(forcing, absorb=mode)
            r = residual(forcing, w)
            assert r.xi == tp_zero(R) and r.eta == tp_zero(R)
            clean = w.xi if mode == "xi" else w.eta
            a, b = harmonic(clean, 1)
            assert R.is_zero(a) and R.is_zero(b)

    def test_non_absorbable_raises(self):
        forcing = VectorTrigPoly(tp("sin", 1, 1), tp_zero(R))
        with pytest.raises(ResonantForcingError, match="secular removal"):
            particular_solution(forcing)

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
    """Nonzero elements; symbolic ones carry negative s-exponents too, and
    numeric ones only exponent 0 (rational root) or exponents 0 and 1."""
    if isinstance(ring, PhaseRing):
        return ring_trig_polys(ring.base, max_size=2).filter(
            lambda e: e.sin or e.cos)
    if ring is R:
        exponents = st.integers(min_value=-3, max_value=3)
    elif rational_sqrt(ring.alpha) is None:
        exponents = st.integers(min_value=0, max_value=1)
    else:
        exponents = st.just(0)
    return st.dictionaries(exponents, nonzero_rationals, min_size=1, max_size=3)


def ring_trig_polys(ring, max_size=3):
    # cos[0] is the constant term; empty dicts give the zero polynomial
    el = ring_elements(ring)
    return st.builds(lambda sin, cos: TrigPoly(ring, sin, cos),
                     st.dictionaries(st.integers(min_value=1, max_value=6), el,
                                     max_size=max_size),
                     st.dictionaries(st.integers(min_value=0, max_value=6), el,
                                     max_size=max_size))


@given(st.sampled_from(DOT_RINGS + PHASE_DOT_RINGS).flatmap(ring_trig_polys),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_triples_denote_their_coefficients(p, amp):
    # one triple per coefficient, its string the coefficient times A^amp
    triples = to_triples(p, amp)
    assert len(triples) == len(p.sin) + len(p.cos)
    for j, kind, text in triples:
        assert _denotes(p.ring, (p.sin if kind == "sin" else p.cos)[j], text, amp)


def unreduced_twin(p, k=6):
    """p built from its integer form with every numerator and the
    denominator k times as large, as a form the printing must reduce."""
    f = int_form(p)
    return TrigPoly(p.ring, enc=f._replace(den=k * f.den, terms={
        e: tuple({key: k * n for key, n in store.items()} for store in pair)
        for e, pair in f.terms.items()}))


# symbolic, quadratic (alpha = 2), rational-root (alpha = 9/4) and phase rings
@given(st.sampled_from([R, numeric_ring(2), numeric_ring(QQ(9, 4))] + PHASE_DOT_RINGS)
       .flatmap(ring_trig_polys),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_forms_print_as_their_dicts(p, amp):
    # printing reads the integer form: a dict-built TrigPoly and its
    # form-built twins give the same strings as its dicts do
    want = to_triples(p, amp)
    for twin in (TrigPoly(p.ring, enc=int_form(p)), unreduced_twin(p)):
        assert to_triples(twin, amp) == want
    if not p.ring.has_phase:         # each coefficient through over_lcm
        assert [text for _, _, text in want] == [
            format_element(p.ring, (p.sin if kind == "sin" else p.cos)[j], amp)
            for j, kind, _ in want]
    # the phase-ring branch of format_element: a phase-free p read at
    # theta = phi (a gauge constant), or each coefficient of a phase-ring p
    P = p.ring if p.ring.has_phase else PhaseRing(p.ring)
    for x in [*p.sin.values(), *p.cos.values()] if p.ring.has_phase else [p]:
        got = {format_element(P, y, amp)
               for y in (x, TrigPoly(x.ring, enc=int_form(x)), unreduced_twin(x))}
        assert len(got) == 1


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
    roots = [rational_sqrt(ring.alpha) for ring in DOT_RINGS if ring is not R]
    assert len(roots) - roots.count(None) == 2 and roots.count(None) == 3
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
    # 2 cos 2th + s cos 2th * (-s) = 0 once s^2 = 2 folds into exponent 0
    twice = tp_term(ring, "cos", 2, ring.from_fraction(QQ(2)))
    root = tp_term(ring, "cos", 2, ring.s(1))
    one = tp_term(ring, "cos", 0, ring.one())
    minus_root = tp_term(ring, "cos", 0, ring.neg(ring.s(1)))
    assert tp_dot([twice, root], [one, minus_root]) == tp_zero(ring)
    # over the phase ring it equals the sum of tp_mul products and keeps the ring
    P = PhaseRing(ring)
    x = tp_add(tp_term(P, "cos", 1, P.sin_phi(1)), tp_term(P, "sin", 2, P.s(1)))
    assert tp_dot([x, x], [x, tp_zero(P)]) == tp_mul(x, x)
    assert tp_dot([x], [tp_zero(P)]).ring is P
    assert tp_dot([tp_zero(P)], [x]) == tp_zero(P)


def phase_dot_cases():
    """(P, ps, qs, cancel): operands over a phase ring, with sin and cos
    in theta and in phi, picked from a small pool so that one object can
    stand in several places of a call."""
    def pick(P, pool, picks, cancel):
        ps = [pool[i % len(pool)] for i, _ in picks]
        qs = [pool[j % len(pool)] for _, j in picks]
        return P, ps, qs, cancel

    index = st.integers(min_value=0, max_value=3)
    return st.sampled_from(PHASE_DOT_RINGS).flatmap(lambda P: st.builds(
        pick, st.just(P),
        st.lists(ring_trig_polys(P), min_size=1, max_size=4),
        st.lists(st.tuples(index, index), min_size=1, max_size=5),
        st.booleans()))


def phase_dot_examples():
    """Fixed cases for the kernel's folds: theta harmonic 0 with sin(c phi),
    phi harmonic 0, and angle sums (a, c) and (a, -c) that cancel, in one
    operand (cos th cos phi + sin th sin phi = cos(th - phi)) and in a
    product (the sin th sin phi of cos th cos phi)."""
    P = PHASE_DOT_RINGS[1]
    one = TrigPoly(P, cos={0: P.one()})
    at_zero = TrigPoly(P, cos={0: tp_add(P.sin_phi(2), P.cos_phi(1))})
    mixed = TrigPoly(P, sin={1: P.sin_phi(1)},
                     cos={0: P.sin_phi(3), 2: P.cos_phi(2)})
    flat = TrigPoly(P, sin={2: P.one()},
                    cos={0: P.s(1), 1: P.from_fraction(QQ(1, 3))})
    cos_cos = TrigPoly(P, cos={1: P.cos_phi(1)})
    sin_sin = TrigPoly(P, sin={2: P.sin_phi(1)})
    difference = TrigPoly(P, sin={1: P.sin_phi(1)}, cos={1: P.cos_phi(1)})
    return ((P, [at_zero, mixed], [mixed, at_zero], False),
            (P, [flat, flat], [mixed, flat], False),
            (P, [cos_cos, sin_sin, difference], [one, one, mixed], False))


AT_ZERO_CASE, FLAT_CASE, CANCELLING_CASE = phase_dot_examples()


@given(phase_dot_cases())
@example(AT_ZERO_CASE)
@example(FLAT_CASE)
@example(CANCELLING_CASE)
@settings(max_examples=60, deadline=None)
def test_phase_dot_equals_sum_of_products(case):
    P, ps, qs, cancel = case
    if cancel:
        # every product again, negated: the sum cancels to zero
        ps, qs = ps + ps, qs + [tp_neg(q) for q in qs]
    want = reference_dot(P, ps, qs)
    got = tp_dot(ps, qs)
    assert got == want and got.ring is P
    if cancel:
        assert got.sin == {} and got.cos == {}
    # every kept form is canonical: nonzero numerators, theta harmonic
    # a > 0, or a = 0 and phi harmonic c >= 0
    for p in ps + qs:
        _, _, enc = p._enc
        assert all(n and (a > 0 or (a == 0 and c >= 0)) for kinds in enc.values()
                   for terms in kinds for (a, c), n in terms.items())
    # the same objects again, now read from their kept integer forms
    assert tp_dot(qs, ps) == want


@given(st.sampled_from(DOT_RINGS + PHASE_DOT_RINGS).flatmap(ring_trig_polys))
@settings(max_examples=100, deadline=None)
def test_integer_form_round_trips(p):
    # the encoder against the decoder, which shares no code with dot_form:
    # a fresh copy's form builds p again, and every key is canonical
    form = int_form(TrigPoly(p.ring, p.sin, p.cos))
    assert TrigPoly(p.ring, enc=form) == p
    phase = p.ring.has_phase
    for sin, cos in form.terms.values():
        for kind, terms in ((0, sin), (1, cos)):
            for (a, c), n in terms.items():
                assert n and (a > 0 or (a == 0 and c >= 0))
                assert kind or (a, c) != (0, 0)
                assert phase or c == 0


@given(st.lists(st.tuples(trig_polys(), st.integers(-3, 3), st.integers(-2, 2)),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_combine_is_over_the_lcm_of_its_parts(parts):
    forms = [(int_form(p), k, shift) for p, k, shift in parts]
    out = combine(forms)
    assert out.den == math.lcm(*[x.den for x, _, _ in forms])
    want = tp_zero(R)
    for p, k, shift in parts:
        want = tp_add(want, tp_scale(tp_mul(p, tp_term(R, "cos", 0, R.s(shift))), QQ(k)))
    assert TrigPoly(R, enc=out) == want


def test_no_operand_is_encoded_twice(monkeypatch):
    encoded = []          # holds every encoded object, so ids stay unique

    def counting(p, encode=trigpoly._form):
        encoded.append(p)
        return encode(p)
    monkeypatch.setattr(trigpoly, "_form", counting)
    for args in ((20, 2), (8, "symbolic", "zero-initial")):
        encoded.clear()
        run(*args)
        assert encoded
        assert len({id(p) for p in encoded}) == len(encoded), args
    assert any(p.ring.has_phase for p in encoded)


# ---------------------------------------------------------------------------
# the phase ring: trig polynomials in phi over a phase-free base ring

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
    assert evaluate_at_zero(p) == at_zero(p)


def absorbable(P, f, g):
    """(f, g) with g's first harmonic replaced by the one the identities
    g_s = -s f_c, g_c = s f_s ask for, so no secular removal is needed."""
    f_s, f_c = harmonic(f, 1)
    s = P.s(1)
    g = TrigPoly(P, {j: v for j, v in g.sin.items() if j != 1},
                 {j: v for j, v in g.cos.items() if j != 1})
    first = tp_add(tp_term(P, "sin", 1, P.neg(P.mul(s, f_c))),
                   tp_term(P, "cos", 1, P.mul(s, f_s)))
    return P, VectorTrigPoly(f, tp_add(g, first))


def anchor_examples():
    """Fixed cases for the anchor's folds: a forcing whose solution has
    angle sums with a + c < 0, and a pure first-harmonic forcing, whose
    solution has no theta harmonic a != 1 (L is the empty lcm)."""
    P, Q = PHASE_DOT_RINGS[0], PHASE_DOT_RINGS[1]
    folds = absorbable(P, TrigPoly(P, sin={2: P.cos_phi(4)},
                                   cos={0: P.sin_phi(3), 1: P.sin_phi(3)}),
                       TrigPoly(P, sin={3: P.s(-1)}))
    first = absorbable(Q, TrigPoly(Q, sin={1: Q.cos_phi(2)}, cos={1: Q.s(1)}),
                       tp_zero(Q))
    return folds, first


NEGATIVE_SUM_CASE, FIRST_HARMONIC_CASE = anchor_examples()


@given(st.sampled_from(PHASE_DOT_RINGS).flatmap(lambda P: st.builds(
    absorbable, st.just(P), ring_trig_polys(P), ring_trig_polys(P))))
@example(NEGATIVE_SUM_CASE)
@example(FIRST_HARMONIC_CASE)
@settings(max_examples=60, deadline=None)
def test_anchored_solution_solves_and_starts_at_zero(case):
    # W' = K W + R with W(0) = 0 has one solution, so these pin it down
    P, forcing = case
    w = solve_linear_anchored(forcing)
    r = residual(forcing, w)
    assert r.xi == tp_zero(P) and r.eta == tp_zero(P)
    assert P.is_zero(evaluate_at_zero(w.xi))
    assert P.is_zero(evaluate_at_zero(w.eta))
    assert w.xi.ring is P and w.eta.ring is P


def test_anchor_examples_reach_the_folds():
    def solved_angle_sums(forcing):
        return [key for x in trigpoly._solve(forcing, "xi")
                for pair in x.terms.values() for store in pair for key in store]

    keys = solved_angle_sums(NEGATIVE_SUM_CASE[1])
    assert any(a + c < 0 for a, c in keys) and any(a == 0 for a, _ in keys)
    keys = solved_angle_sums(FIRST_HARMONIC_CASE[1])
    assert keys and all(a == 1 for a, _ in keys)
    # the solution still moves: eta_1 = s F_1 does not vanish at tau = 0
    w = solve_linear_anchored(FIRST_HARMONIC_CASE[1])
    assert w != particular_solution(FIRST_HARMONIC_CASE[1])


def test_phase_division():
    # the phase ring divides by its units only: a root s^k as the product
    # with s^-k, a nonzero constant as the product with its inverse
    P = PhaseRing(R)
    x = P.add(P.one(), P.sin_phi(2))
    assert P.mul(P.mul(x, P.s(1)), P.s(-1)) == x
    assert P.mul(P.sin_phi(1), P.from_fraction(QQ(2))).sin == {1: {0: QQ(2)}}


def test_phase_element_constant_term():
    P = PhaseRing(numeric_ring(2))
    assert P.one().const == {0: QQ(1)}
    assert P.sin_phi(1).const == P.base.zero()
    assert P.add(P.s(1), P.cos_phi(2)).const == {1: QQ(1)}
