"""Exact-arithmetic layer: rings, canonical strings, numeric evaluation."""

import functools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpvolterra.algebra import (QQ, SYMBOLIC, alpha_polynomial, evaluate_numeric,
                                format_element, numeric_ring, over_lcm,
                                rational_sqrt, ring_alpha)
from lpvolterra.checks import _denotes
from lpvolterra.engine import GAUGE_SIMPLIFIED_XI, GAUGE_ZERO_INITIAL, run
from lpvolterra.trigpoly import PhaseRing

R = SYMBOLIC


class TestScalars:
    def test_rational_arithmetic(self):
        assert QQ(1, 2) + QQ(1, 3) == QQ(5, 6)
        assert QQ(7, -14) == QQ(-1, 2)

    def test_rational_sqrt(self):
        assert rational_sqrt(QQ(9, 4)) == QQ(3, 2)
        assert rational_sqrt(QQ(0)) == QQ(0)
        assert rational_sqrt(QQ(2)) is None
        assert rational_sqrt(QQ(49, 36)) == QQ(7, 6)


class TestSymbolicRing:
    def test_add_cancel(self):
        s = R.s(1)
        assert R.is_zero(R.add(s, R.neg(s)))

    def test_s_squares_to_alpha(self):
        assert R.eq(R.mul(R.s(1), R.s(1)), R.s(2))
        assert R.eq(R.mul(R.s(1), R.s(-1)), R.one())

    def test_division_by_monomial(self):
        # a monomial s^k is a unit: dividing by it is the product with s^-k
        x = R.scale(R.s(3), QQ(5, 7))
        assert R.eq(R.mul(x, R.s(-1)), R.scale(R.s(2), QQ(5, 7)))

    def test_alpha_polynomial_even_only(self):
        x = R.add(R.s(4), R.scale(R.s(2), QQ(3)))
        assert alpha_polynomial(x) == {2: QQ(1), 1: QQ(3)}
        assert alpha_polynomial(R.s(1)) is None
        assert alpha_polynomial(R.s(-2)) is None


class TestNumericRings:
    def test_square_alpha_uses_rationals(self):
        ring = numeric_ring(1)
        assert ring.s(1) == {0: QQ(1)}
        ring4 = numeric_ring(4)
        assert ring4.s(1) == {0: QQ(2)}
        assert ring4.s(-1) == {0: QQ(1, 2)}

    def test_non_square_alpha_uses_quadratic_pairs(self):
        ring = numeric_ring(2)
        s = ring.s(1)
        assert s == {1: QQ(1)}
        assert ring.s(3) == {1: QQ(2)} and ring.s(-1) == {1: QQ(1, 2)}
        assert ring.eq(ring.mul(s, s), ring.from_fraction(QQ(2)))
        # 1/sqrt(2) * sqrt(2) = 1
        assert ring.eq(ring.mul(ring.s(-1), s), ring.one())

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            numeric_ring(0)
        with pytest.raises(ValueError):
            numeric_ring(-3)


class TestPhaseRing:
    def test_product_to_sum(self):
        P = PhaseRing(R)
        x = P.scale(P.sin_phi(1), QQ(1, 4))
        y = P.scale(P.cos_phi(3), QQ(1, 3))
        prod = P.mul(x, y)
        # sin(phi)cos(3phi)/12 = sin(4phi)/24 - sin(2phi)/24
        want = P.sub(P.scale(P.sin_phi(4), QQ(1, 24)),
                     P.scale(P.sin_phi(2), QQ(1, 24)))
        assert P.eq(prod, want)

    def test_sin_cos_identity(self):
        P = PhaseRing(R)
        one = P.add(P.mul(P.sin_phi(1), P.sin_phi(1)),
                    P.mul(P.cos_phi(1), P.cos_phi(1)))
        assert P.eq(one, P.one())

    def test_doubling(self):
        P = PhaseRing(R)
        lhs = P.scale(P.mul(P.sin_phi(1), P.cos_phi(1)), QQ(2))
        assert P.eq(lhs, P.sin_phi(2))


GOLDEN_OMEGA4 = "-(A^4*sqrt(alpha)*(5*alpha^2+34*alpha+29))/6912"
# the element it prints: -sqrt(alpha) (5 alpha^2 + 34 alpha + 29) / 6912
OMEGA4 = {5: QQ(-5, 6912), 3: QQ(-34, 6912), 1: QQ(-29, 6912)}


class TestCanonicalStrings:
    def test_golden_frequency_string(self):
        assert format_element(R, OMEGA4, 4) == GOLDEN_OMEGA4

    def test_content_factoring(self):
        el = {4: QQ(1, 3), 0: QQ(-1, 3)}
        assert format_element(R, el) == "(alpha^2-1)/3"
        el2 = R.scale(el, QQ(-2))
        assert format_element(R, el2) == "-(2*(alpha^2-1))/3"

    def test_negative_powers_go_to_denominator(self):
        el = R.scale(R.s(-1), QQ(1, 2))
        assert format_element(R, el) == "1/(2*sqrt(alpha))"

    def test_zero(self):
        assert format_element(R, R.zero()) == "0"

    def test_phase_string(self):
        P = PhaseRing(R)
        el = P.sub(P.scale(P.mul(P.s(1), P.sin_phi(2)), QQ(1, 6)),
                   P.scale(P.mul(P.s(2), P.cos_phi(2)), QQ(1, 3)))
        assert format_element(P, el, 2) == (
            "A^2*((sqrt(alpha)*sin(2*phi))/6-(alpha*cos(2*phi))/3)")

    def test_numeric_ring_strings(self):
        ring = numeric_ring(2)
        s_inv = ring.s(-1)
        # 1/sqrt(2) = sqrt(2)/2, printed in terms of sqrt(alpha)
        assert format_element(ring, s_inv) == "sqrt(alpha)/2"

    def test_phase_string_matches_build(self):
        P = PhaseRing(R)
        apo = R.scale(R.add(R.s(2), R.one()), QQ(1, 48))
        el = P.add(P.mul(P.lift(R.mul(apo, R.s(2))), P.sin_phi(1)),
                   P.mul(P.lift(R.mul(apo, R.s(1))), P.cos_phi(1)))
        assert format_element(P, el, 3) == (
            "A^3*((alpha*(alpha+1)*sin(phi))/48+(sqrt(alpha)*(alpha+1)*cos(phi))/48)")


class TestNumericEvaluation:
    def test_polynomial_at_alpha_one(self):
        el = {2: QQ(1), 0: QQ(7)}
        v = evaluate_numeric(R, el, alpha=1)
        assert v == 8

    def test_golden_omega4_at_alpha_one(self):
        with mpmath.workdps(60):
            want = -mpmath.mpf(68) / 6912
            got = evaluate_numeric(R, OMEGA4, alpha=1, dps=60)
            assert abs(got - want) < mpmath.mpf(10) ** -50

    def test_phase_evaluation(self):
        P = PhaseRing(R)
        el = P.sin_phi(3)
        with mpmath.workdps(60):
            v = evaluate_numeric(P, el, alpha=QQ(7, 3), phi=mpmath.pi / 6, dps=60)
            assert abs(v - 1) < mpmath.mpf(10) ** -55

    def test_ring_alpha_rule(self):
        fixed = numeric_ring(QQ(9, 4))
        assert ring_alpha(fixed) == QQ(9, 4)
        assert ring_alpha(PhaseRing(fixed), "9/4") == QQ(9, 4)
        assert ring_alpha(R, 0.5) == QQ(1, 2)
        assert ring_alpha(PhaseRing(R), 3) == 3
        with pytest.raises(ValueError, match="alpha required"):
            ring_alpha(PhaseRing(R))
        with pytest.raises(ValueError, match="disagrees"):
            ring_alpha(PhaseRing(fixed), 2)
        for bad in (0, -1, QQ(-1, 4)):
            with pytest.raises(ValueError, match="positive"):
                ring_alpha(R, bad)

    def test_fixed_ring_alpha_consistency(self):
        ring = numeric_ring(2)
        with mpmath.workdps(50):
            v = evaluate_numeric(ring, ring.s(1))
            assert abs(v - mpmath.sqrt(2)) < mpmath.mpf(10) ** -40
        with pytest.raises(ValueError):
            evaluate_numeric(ring, ring.s(1), alpha=3)


# series coefficients per ring: symbolic, a square and a non-square
# numeric alpha, and the phase ring of the zero-initial gauge
LIST_CASES = {"symbolic": ("symbolic", GAUGE_SIMPLIFIED_XI),
              "square": (QQ(9, 4), GAUGE_SIMPLIFIED_XI),
              "non-square": (QQ(2), GAUGE_SIMPLIFIED_XI),
              "phase": (QQ(3, 2), GAUGE_ZERO_INITIAL)}


@functools.cache
def series_coefficients(case):
    """The ring and every omega_n and harmonic coefficient of an order-4
    series."""
    series = run(4, *LIST_CASES[case])
    elements = [sol.omega for sol in series.orders]
    for sol in series.orders:
        for tp in (sol.xi, sol.eta):
            elements += [*tp.sin.values(), *tp.cos.values()]
    return series.coeff_ring, elements


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(LIST_CASES)),
       alpha=st.fractions(min_value=Fraction(1, 10), max_value=10,
                          max_denominator=12),
       phi=st.floats(0.1, 6.0),
       picks=st.lists(st.integers(min_value=0), max_size=12),
       dps=st.sampled_from([15, 30, 50]))
def test_list_evaluation_matches_per_element(case, alpha, phi, picks, dps):
    # a list is evaluated in one precision context with one sqrt(alpha),
    # so each value equals its own call exactly
    ring, elements = series_coefficients(case)
    chosen = [elements[i % len(elements)] for i in picks]
    alpha = QQ(alpha) if case == "symbolic" else None
    got = evaluate_numeric(ring, chosen, alpha=alpha, phi=phi, dps=dps)
    assert got == [evaluate_numeric(ring, el, alpha=alpha, phi=phi, dps=dps)
                   for el in chosen]


# ---------------------------------------------------------------------------
# property tests

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def sym_elements():
    return st.dictionaries(st.integers(min_value=-4, max_value=6),
                           rationals.filter(lambda q: q != 0),
                           max_size=4).map(
        lambda d: {k: QQ(v) for k, v in d.items()})


wide_rationals = st.builds(Fraction, st.integers(-10**30, 10**30),
                          st.integers(1, 10**30))


@given(st.lists(st.just(Fraction(0)) | rationals | wide_rationals, max_size=8))
@settings(max_examples=200, deadline=None)
@example([])
@example([Fraction(0), Fraction(0)])
@example([Fraction(-3, 4), Fraction(5, 6), Fraction(7, 10**30 + 1)])
def test_over_lcm_clears_denominators(values):
    ints, den = over_lcm(values)
    assert all(isinstance(n, int) for n in ints)
    assert [Fraction(n, den) for n in ints] == values
    assert den == math.lcm(*[q.denominator for q in values])
    # the identity the canonical strings rely on: scaling reduced fractions
    # to their lcm keeps the gcd of the numerators
    assert math.gcd(*ints) == math.gcd(*[q.numerator for q in values])


@given(sym_elements(), sym_elements(), sym_elements())
@settings(max_examples=60, deadline=None)
def test_symbolic_ring_laws(x, y, z):
    assert R.eq(R.add(x, y), R.add(y, x))
    assert R.eq(R.mul(x, y), R.mul(y, x))
    assert R.eq(R.mul(x, R.add(y, z)),
                R.add(R.mul(x, y), R.mul(x, z)))
    assert R.eq(R.mul(R.mul(x, y), z), R.mul(x, R.mul(y, z)))


@given(sym_elements(), sym_elements())
@settings(max_examples=40, deadline=None)
def test_evaluation_is_ring_homomorphism(x, y):
    alpha = QQ(7, 5)
    with mpmath.workdps(50):
        vx = evaluate_numeric(R, x, alpha=alpha)
        vy = evaluate_numeric(R, y, alpha=alpha)
        vxy = evaluate_numeric(R, R.mul(x, y), alpha=alpha)
        vsum = evaluate_numeric(R, R.add(x, y), alpha=alpha)
        scale = max(1, abs(vx), abs(vy), abs(vx * vy))
        assert abs(vxy - vx * vy) <= mpmath.mpf(10) ** -30 * scale
        assert abs(vsum - (vx + vy)) <= mpmath.mpf(10) ** -30 * scale


@given(sym_elements(), st.integers(min_value=0, max_value=4))
@settings(max_examples=60, deadline=None)
def test_formatted_string_denotes_element(x, amp):
    assert _denotes(R, x, format_element(R, x, amp_power=amp), amp)


@given(sym_elements(), st.integers(min_value=-4, max_value=4))
@settings(max_examples=40, deadline=None)
def test_division_inverts_multiplication(x, k):
    # division by the monomial s^k, the product with s^-k, undoes s^k
    assert R.eq(R.mul(R.mul(x, R.s(k)), R.s(-k)), x)


@given(st.dictionaries(st.integers(min_value=1, max_value=5),
                       rationals.filter(lambda q: q != 0), max_size=3),
       st.dictionaries(st.integers(min_value=0, max_value=5),
                       rationals.filter(lambda q: q != 0), max_size=3))
@settings(max_examples=40, deadline=None)
def test_phase_eval_homomorphism(sin_d, cos_d):
    P = PhaseRing(R)
    x = P.zero()
    for k, v in sin_d.items():
        x = P.add(x, P.scale(P.sin_phi(k), QQ(v)))
    for k, v in cos_d.items():
        x = P.add(x, P.scale(P.cos_phi(k), QQ(v)))
    y = P.add(P.scale(P.sin_phi(1), QQ(1, 3)), P.lift(R.s(1)))
    alpha = QQ(3, 2)
    with mpmath.workdps(50):
        phi = mpmath.mpf(1) / 7
        vx = evaluate_numeric(P, x, alpha=alpha, phi=phi)
        vy = evaluate_numeric(P, y, alpha=alpha, phi=phi)
        vxy = evaluate_numeric(P, P.mul(x, y), alpha=alpha, phi=phi)
        scale = max(1, abs(vx * vy))
        assert abs(vxy - vx * vy) <= mpmath.mpf(10) ** -30 * scale


# numeric rings: rational roots (alpha = 1/4, 1, 9/4) and quadratic fields
# (alpha = 2, 5/3, 2/9), in the reduced s-exponent form
NUMERIC_ALPHAS = (QQ(1, 4), QQ(1), QQ(9, 4), QQ(2), QQ(5, 3), QQ(2, 9))


def numeric_elements(ring):
    """u + v*sqrt(alpha) built with the ring operations."""
    return st.builds(lambda u, v: ring.add(ring.from_fraction(u),
                                           ring.mul(ring.s(1), ring.from_fraction(v))),
                     rationals, rationals)


def numeric_cases():
    return st.sampled_from(NUMERIC_ALPHAS).map(numeric_ring).flatmap(
        lambda ring: st.tuples(st.just(ring), numeric_elements(ring),
                               numeric_elements(ring), numeric_elements(ring)))


def is_reduced(ring, x):
    keys = {0} if rational_sqrt(ring.alpha) is not None else {0, 1}
    return x.keys() <= keys and all(x.values())


@given(numeric_cases())
@settings(max_examples=80, deadline=None)
def test_numeric_ring_laws(case):
    ring, x, y, z = case
    for el in (x, y, ring.add(x, y), ring.mul(x, y), ring.s(-3), ring.s(5)):
        assert is_reduced(ring, el)
    assert ring.eq(ring.mul(x, y), ring.mul(y, x))
    assert ring.eq(ring.mul(x, ring.add(y, z)),
                   ring.add(ring.mul(x, y), ring.mul(x, z)))
    assert ring.eq(ring.mul(ring.mul(x, y), z), ring.mul(x, ring.mul(y, z)))
    with mpmath.workdps(50):
        vx = evaluate_numeric(ring, x)
        vy = evaluate_numeric(ring, y)
        vxy = evaluate_numeric(ring, ring.mul(x, y))
        vsum = evaluate_numeric(ring, ring.add(x, y))
        scale = max(1, abs(vx), abs(vy), abs(vx * vy))
        assert abs(vxy - vx * vy) <= mpmath.mpf(10) ** -30 * scale
        assert abs(vsum - (vx + vy)) <= mpmath.mpf(10) ** -30 * scale


FOLD_RINGS = (R,) + tuple(numeric_ring(a) for a in NUMERIC_ALPHAS)


@given(st.sampled_from(FOLD_RINGS),
       st.dictionaries(st.integers(min_value=-4, max_value=5),
                       st.integers(min_value=-50, max_value=50), max_size=5),
       st.integers(min_value=1, max_value=60) | st.integers(min_value=-60, max_value=-1))
@example(numeric_ring(1), {0: 1, 2: -1}, 3)
@example(numeric_ring(2), {-1: 3, 0: 1, 2: -1, 1: -6}, 7)
@example(numeric_ring(QQ(9, 4)), {2: 4, 0: -9, -1: 0}, 2)
@example(numeric_ring(QQ(2, 9)), {-2: 4, 0: -18, 3: 5}, -5)
@settings(max_examples=150, deadline=None)
def test_folding_matches_ring_operations(ring, nums, den):
    # oracle: each n s^e / den built by the ring operations and summed
    want = ring.zero()
    for e, n in nums.items():
        want = ring.add(want, ring.scale(ring.s(e), QQ(n, den)))
    lo, hi = min(nums, default=0), max(nums, default=0)
    rule, f, g = ring.folding(lo, hi)
    assert sorted(rule) == list(range(lo, hi + 1))
    folded = {}
    for e, n in nums.items():
        r, w = rule[e]
        folded[r] = folded.get(r, 0) + n * w
    got = {r: QQ(n * f, den * g) for r, n in folded.items() if n}
    assert got == want
    if ring is not R:
        assert is_reduced(ring, got)
    assert any(folded.values()) == bool(want)
