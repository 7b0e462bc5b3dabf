"""Approximant fits, root extraction, and the stable-singularity tracker.

Large-data regressions pin the alpha=1, order-44 frequency series values
that the radius machinery is expected to reproduce; small closed-form
cases (geometric, exponential, sqrt) cover each code path exactly.

A radius scan of two or more alphas runs them in worker processes when
this process may use two or more CPUs.  The workers are forked, so a
monkeypatch made before the scan reaches them too.
"""

import cmath
import math
import multiprocessing
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpvolterra import analysis, engine
from lpvolterra.algebra import QQ, over_lcm
from lpvolterra.analysis import (
    FAMILY_HERMITE_PADE,
    FAMILY_PADE,
    DegenerateApproximantError,
    NoConvergenceError,
    NoStableRootError,
    PadeApprox,
    PowerSeries,
    QuadHermitePade,
    ScanRow,
    SingularityEstimate,
    default_orders,
    discriminant,
    discriminant_roots,
    hermite_pade_fit,
    pade_fit,
    pade_poles,
    poly_mul,
    poly_trim,
    radius_scan,
    rational_function_series,
    series_from_engine,
    stable_singularity,
    rational_rref,
    _candidate_roots,
    _durand_kerner,
    _float_seed,
    _leading_null_vector,
    _poly_roots,
    _poly_sum,
    _root_key,
    _to_complex,
)
from lpvolterra.checks import _to_mpc
from lpvolterra.constants import FAMILIES, SCAN_THRESHOLD
from lpvolterra.engine import GAUGE_SIMPLIFIED_XI, GAUGE_ZERO_INITIAL, run
from lpvolterra.trigpoly import TrigPoly


def series(*vals):
    return PowerSeries(tuple(QQ(v) for v in vals))


def geometric(n):
    return series(*([1] * n))


# sqrt(1-4z) binomial expansion: 1 - 2z - 2z^2 - 4z^3 - 10z^4 - 28z^5 - 84z^6
SQRT_COEFFS = (1, -2, -2, -4, -10, -28, -84)

# alpha=1, order-44 stable-singularity radii (complex-pair modulus), frozen
# from the exact pipeline at 60 digits and cross-checked against an
# independent companion-matrix root solve.
RC_PADE_44 = 3.5372542339336586
RC_HP_44 = 3.4640026616661515


@pytest.fixture(scope="module")
def run44():
    return run(44, QQ(1), GAUGE_SIMPLIFIED_XI)


@pytest.fixture(scope="module")
def ps44(run44):
    return series_from_engine(run44)


# ---------------------------------------------------------------------------


class TestPolyKit:
    def test_mul(self):
        assert poly_mul([QQ(1), QQ(1)], [QQ(1), QQ(-1)]) == [QQ(1), QQ(0), QQ(-1)]

    def test_sum_trims(self):
        p = [QQ(1), QQ(2)]
        assert _poly_sum([(1, p, [QQ(1)]), (-1, p, [QQ(1)])]) == []

    @given(st.lists(st.fractions(max_denominator=30), max_size=6),
           st.lists(st.fractions(max_denominator=30), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_mul_matches_schoolbook_fractions(self, p, q):
        want = [Fraction(0)] * max(0, len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                want[i + j] += a * b
        while want and want[-1] == 0:
            want.pop()
        assert poly_mul(p, q) == want


def reference_rref(rows):
    """Gauss-Jordan on Fraction entries, in place: the oracle for
    rational_rref, which leaves a fraction-free echelon form of integer
    rows instead."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / Fraction(rows[r][c])
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)),
)

_SHAPES = {"tall": ((3, 7), (1, 4)), "wide": ((1, 4), (3, 8)),
           "square": ((1, 6), None)}


@st.composite
def rational_matrices(draw):
    """Tall, wide and square matrices with zero rows, zero columns, rows
    that combine earlier rows (rank deficiency), negative entries and
    large denominators."""
    shape = draw(st.sampled_from(sorted(_SHAPES)))
    row_range, col_range = _SHAPES[shape]
    n_rows = draw(st.integers(*row_range))
    n_cols = n_rows if col_range is None else draw(st.integers(*col_range))
    if shape == "tall":
        n_cols = min(n_cols, n_rows - 1)
    elif shape == "wide":
        n_cols = max(n_cols, n_rows + 1)
    rows = []
    for i in range(n_rows):
        kind = draw(st.sampled_from(("free", "free", "zero", "combination")))
        if kind == "zero":
            rows.append([Fraction(0)] * n_cols)
        elif kind == "combination" and i > 0:
            j = draw(st.integers(0, i - 1))
            k = draw(st.integers(0, i - 1))
            a, b = draw(_ENTRIES), draw(_ENTRIES)
            rows.append([a * x + b * y for x, y in zip(rows[j], rows[k])])
        else:
            rows.append([draw(_ENTRIES) for _ in range(n_cols)])
    for c in draw(st.sets(st.integers(0, n_cols - 1), max_size=2)):
        for row in rows:
            row[c] = Fraction(0)
    return [[QQ(v) for v in row] for row in rows]


def _q_rows(rows):
    return [[QQ(v) for v in row] for row in rows]


# column 1 is skipped before the last pivot, and every pivot of the
# fraction-free elimination is negative (-2, -14, -70)
SKIPPED_PIVOT_COLUMN = _q_rows([[-2, 4, 1, 3], [4, -8, 5, 1],
                                [Fraction(1, 3), Fraction(-2, 3), 1, Fraction(7, 3)]])
# rank 2 in five rows: the three rows below the rank must come back zero
TALL_RANK_DEFICIENT = _q_rows([[1, 2, 3], [2, -1, Fraction(1, 2)], [3, 1, Fraction(7, 2)],
                               [-4, 7, Fraction(9, 2)], [0, 0, 0]])
# four free columns: 0, 3, 4 and 5
WIDE_MANY_FREE = _q_rows([[0, 3, -1, 2, 0, 5], [0, 6, 1, Fraction(1, 7), 4, -2]])


def assert_fraction_free_echelon(rows, got, pivots):
    """``got``, what rational_rref left of ``rows`` with ``pivots``, is an
    integer echelon form with the pivots and reduced form of ``rows``."""
    want = [list(row) for row in rows]
    assert pivots == reference_rref(want)
    for r, row in enumerate(got):
        assert all(type(v) is int for v in row)
        lead = pivots[r] if r < len(pivots) else len(row)
        assert not any(row[:lead])
        assert lead == len(row) or row[lead]
    reduced = [[Fraction(v) for v in row] for row in got]
    assert reference_rref(reduced) == pivots
    assert reduced == want


@given(rational_matrices())
@example(SKIPPED_PIVOT_COLUMN)
@example(TALL_RANK_DEFICIENT)
@example(WIDE_MANY_FREE)
@settings(max_examples=200, deadline=None)
def test_rref_matches_fraction_gauss_jordan(rows):
    got = [list(row) for row in rows]
    assert_fraction_free_echelon(rows, got, rational_rref(got))


@given(rational_matrices())
@example(SKIPPED_PIVOT_COLUMN)
@example(WIDE_MANY_FREE)
@settings(max_examples=200, deadline=None)
def test_leading_null_vector_is_the_first_null_vector(rows):
    # the per-order fits read their null vector this way: the smallest
    # free column is the first whose pivot is off the diagonal
    ncols = len(rows[0])
    basis = reference_null_space(rows, ncols)
    work = [list(row) for row in rows]
    pivots = rational_rref(work)
    free = next((i for i, c in enumerate(pivots) if c != i), len(pivots))
    assert (free < ncols) == bool(basis)
    if basis:
        vec = _leading_null_vector(work, free) + [0] * (ncols - free - 1)
        assert basis[0][free] == 1
        assert [Fraction(v, vec[free]) for v in vec] == basis[0]


def test_each_fit_eliminates_once_through_rational_rref(monkeypatch):
    # the benchmark tracer times the fits' eliminations by wrapping
    # analysis.rational_rref by name: an elimination inlined into the fits
    # or renamed fails here instead of reading zero there
    calls = []

    def counting(rows, real=analysis.rational_rref):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(analysis, "rational_rref", counting)
    exp = series(*(Fraction(1, math.factorial(j)) for j in range(8)))
    pade_fit(exp, 3, 3)
    assert len(calls) == 1
    hermite_pade_fit(exp, 2, 2, 2)
    assert len(calls) == 2


def test_rref_edge_cases():
    assert rational_rref([]) == []
    zeros = [[QQ(0), QQ(0)], [QQ(0), QQ(0)]]
    got = [list(row) for row in zeros]
    assert rational_rref(got) == []
    assert_fraction_free_echelon(zeros, got, [])
    rows = [[QQ(0), QQ(-3, 10 ** 30), QQ(6)], [QQ(0), QQ(1), QQ(0)]]
    got = [list(row) for row in rows]
    assert rational_rref(got) == [1, 2]
    assert got == [[0, -3, 6 * 10 ** 30], [0, 0, -6 * 10 ** 30]]
    assert_fraction_free_echelon(rows, got, [1, 2])
    # without row exchanges the pass stops at column 1, whose pivot is
    # not on the diagonal
    assert rational_rref([list(row) for row in SKIPPED_PIVOT_COLUMN], exchange=False) == [0]


# ---------------------------------------------------------------------------
# oracle fits: the full homogeneous matching systems, with every unknown
# of P, Q and R as a column, eliminated by the Fraction Gauss-Jordan above


def reference_null_space(rows, ncols):
    work = [[Fraction(v) for v in row] for row in rows]
    pivots = reference_rref(work)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _divmod(p, d):
    """Quotient and remainder of Fraction polynomials, ascending powers."""
    p, d = _trim(p), _trim(d)
    quot = [Fraction(0)] * max(0, len(p) - len(d) + 1)
    for k in reversed(range(len(quot))):
        quot[k] = p[k + len(d) - 1] / d[-1]
        for i, b in enumerate(d):
            p[k + i] -= quot[k] * b
    return _trim(quot), _trim(p)


def _gcd(a, b):
    """Monic gcd of Fraction polynomials by Euclid's algorithm."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _divmod(a, b)[1]
    return [c / a[-1] for c in a]


def reference_pade(coeffs, K, L):
    """The [K/L] fit from the (K+L+1) x (K+L+2) system P - f Q = O(z^(K+L+1)).

    A unique solution is scaled to Q(0) = 1 and keeps all L+1 entries of
    Q; a blocked entry is reduced by the gcd of P and Q."""
    ncols = K + L + 2
    rows = []
    for j in range(K + L + 1):
        row = [Fraction(0)] * ncols
        if j <= K:
            row[j] = Fraction(-1)
        for i in range(min(j, L) + 1):
            row[K + 1 + i] = coeffs[j - i]
        rows.append(row)
    basis = reference_null_space(rows, ncols)
    vec = next((v for v in basis if v[K + 1] != 0), None)
    if vec is None:
        raise DegenerateApproximantError(
            f"[{K}/{L}] entry is blocked with Q(0) = 0; perturb the degrees")
    vec = [v / vec[K + 1] for v in vec]
    p, q = _trim(vec[:K + 1]), vec[K + 1:]
    if len(basis) > 1:
        g = _gcd(p, q)
        p, q = _divmod(p, g)[0], _divmod(q, g)[0]
        p, q = [c / q[0] for c in p], [c / q[0] for c in q]
    return PadeApprox(tuple(p), tuple(q))


def reference_hermite_pade(coeffs, K, L, M):
    """The (K, L, M) fit from the (K+L+M+2) x (K+L+M+3) system
    P f^2 + Q f + R = O(z^(K+L+M+2)), first nonzero coefficient 1."""
    n_eq = K + L + M + 2
    f = list(coeffs[:n_eq])
    sq = [sum((f[i] * f[j - i] for i in range(j + 1)), Fraction(0))
          for j in range(n_eq)]
    ncols = K + L + M + 3
    rows = []
    for j in range(n_eq):
        row = [Fraction(0)] * ncols
        for i in range(min(j, K) + 1):
            row[i] = sq[j - i]
        for i in range(min(j, L) + 1):
            row[K + 1 + i] = f[j - i]
        if j <= M:
            row[K + L + 2 + j] = Fraction(1)
        rows.append(row)
    basis = reference_null_space(rows, ncols)
    if len(basis) != 1:
        raise DegenerateApproximantError(
            f"f[{K},{L},{M}] matching system has a {len(basis)}-dimensional "
            "null space")
    lead = next(v for v in basis[0] if v != 0)
    vec = [v / lead for v in basis[0]]
    return QuadHermitePade(tuple(poly_trim(vec[:K + 1])),
                           tuple(poly_trim(vec[K + 1:K + L + 2])),
                           tuple(poly_trim(vec[K + L + 2:])))


def _outcome(fit, *args):
    """The fit, or the message of a degenerate entry."""
    try:
        return fit(*args)
    except DegenerateApproximantError as exc:
        return str(exc)


def assert_fits_match_oracle(coeffs, pade_degrees, hp_degrees):
    ps = PowerSeries(tuple(coeffs))
    for K, L in pade_degrees:
        assert _outcome(pade_fit, ps, K, L) == \
            _outcome(reference_pade, coeffs, K, L), (K, L)
    for K, L, M in hp_degrees:
        assert _outcome(hermite_pade_fit, ps, K, L, M) == \
            _outcome(reference_hermite_pade, coeffs, K, L, M), (K, L, M)


@pytest.mark.parametrize("alpha", [1, 2])
def test_diagonal_fits_match_oracle_at_order44(alpha, ps44):
    ps = ps44 if alpha == 1 else series_from_engine(
        run(44, QQ(alpha), GAUGE_SIMPLIFIED_XI))
    pade_top = default_orders(FAMILY_PADE, len(ps))[-1]
    hp_top = default_orders(FAMILY_HERMITE_PADE, len(ps))[-1]
    assert (pade_top, hp_top) == (11, 7)
    assert_fits_match_oracle(ps.coeffs,
                             [(m, m) for m in range(1, pade_top + 1)],
                             [(m, m, m) for m in range(1, hp_top + 1)])


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(p=st.lists(_SMALL, min_size=1, max_size=3),
       q=st.lists(_SMALL, min_size=0, max_size=2),
       extra=st.tuples(st.integers(1, 2), st.integers(1, 2)),
       bump=st.one_of(st.none(), st.tuples(st.integers(0, 9), _SMALL)),
       hp=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
# blocked entries with a 3-dimensional null space: seven 1s at [3/3]
# reduce to 1/(1 - z), and 1, 2, ..., 8 at [3/4] to 1/(1 - z)^2
@example(p=[1], q=[-1], extra=(3, 2), bump=None, hp=(1, 1, 1))
@example(p=[1], q=[-2, 1], extra=(3, 2), bump=None, hp=(1, 1, 1))
@settings(max_examples=80, deadline=None)
def test_low_degree_fits_match_oracle(p, q, extra, bump, hp):
    """Low-degree rational functions fitted with spare degrees: every
    Pade entry is blocked, and a bumped coefficient can force Q(0) = 0
    or make the entry regular again."""
    p_true = [QQ(v) for v in p]
    q_true = [QQ(1)] + [QQ(v) for v in q]
    K, L = len(p_true) - 1 + extra[0], len(q_true) - 1 + extra[1]
    n = max(K + L + 1, sum(hp) + 2)
    coeffs = rational_function_series(p_true, q_true, n)
    if bump is not None and bump[0] < n:
        coeffs[bump[0]] += bump[1]
    assert_fits_match_oracle(coeffs, [(K, L)], [hp])


def test_oracle_covers_blocked_and_degenerate_entries():
    assert_fits_match_oracle([QQ(1)] * 5, [(2, 2)], [(1, 1, 1)])
    assert_fits_match_oracle([QQ(1), QQ(0), QQ(1)], [(1, 1)], [(0, 0, 0)])
    with pytest.raises(DegenerateApproximantError, match="blocked"):
        reference_pade([QQ(1), QQ(0), QQ(1)], 1, 1)
    assert reference_pade([QQ(1)] * 5, 2, 2) == PadeApprox((QQ(1),), (QQ(1), QQ(-1)))
    # a regular entry keeps all L+1 entries of Q, trailing zeros included
    assert_fits_match_oracle([QQ(1), QQ(1), QQ(0)], [(1, 1)], [])
    assert reference_pade([QQ(1), QQ(1), QQ(0)], 1, 1) == \
        PadeApprox((QQ(1), QQ(1)), (QQ(1), QQ(0)))
    with pytest.raises(DegenerateApproximantError, match="2-dimensional"):
        reference_hermite_pade([QQ(1)] * 5, 1, 1, 1)


# ---------------------------------------------------------------------------
# one elimination per chain: every order the top order's elimination
# solves is the fit pade_fit / hermite_pade_fit returns alone


def _per_order(ps, family, m):
    """The order-m diagonal fit, or the type and text of what it raised."""
    try:
        if family == FAMILY_PADE:
            return pade_fit(ps, m, m)
        return hermite_pade_fit(ps, m, m, m)
    except (DegenerateApproximantError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _normalized(fit, ps, m):
    """An integer-scaled chain fit as pade_fit / hermite_pade_fit scale
    theirs: Pade with Q(0) = 1 and P = f Q through z^m (the chain leaves
    P out), Hermite-Pade with its first nonzero entry 1 and P and Q
    trimmed."""
    if isinstance(fit, PadeApprox):
        q = [QQ(v, fit.Q[0]) for v in fit.Q]
        return PadeApprox(tuple(_poly_sum([(1, ps.coeffs[:m + 1], q)], m + 1)), tuple(q))
    lead = next(v for v in fit.P + fit.Q if v)
    return QuadHermitePade(*(tuple(poly_trim([QQ(v, lead) for v in part]))
                             for part in (fit.P, fit.Q, fit.R)))


def assert_chain_matches_fits(ps, family, orders):
    """The chain's fits by order; each is a multiple of the per-order fit,
    equal to it once scaled alike, so an order whose fit raises (blocked,
    degenerate, too long for the series, negative) must be left to that
    fit.  Returns the orders it solved."""
    chain = analysis._chain_fits(ps, family, orders)
    assert set(chain) <= set(orders)
    for m, fit in chain.items():
        assert all(type(v) is int for part in vars(fit).values() if part for v in part)
        assert _normalized(fit, ps, m) == _per_order(ps, family, m), (family, m)
    return set(chain)


_CHAIN_COEFFS = st.one_of(st.just(Fraction(0)),
                          st.fractions(min_value=-5, max_value=5, max_denominator=6))


@given(st.lists(_CHAIN_COEFFS, min_size=1, max_size=14),
       st.lists(st.integers(-1, 6), min_size=1, max_size=5, unique=True))
@settings(max_examples=120, deadline=None)
def test_chain_fits_equal_per_order_fits(coeffs, orders):
    ps = PowerSeries(tuple(QQ(c) for c in coeffs))
    for family in (FAMILY_PADE, FAMILY_HERMITE_PADE):
        assert_chain_matches_fits(ps, family, sorted(orders))


@pytest.mark.parametrize("family, top", [(FAMILY_PADE, 11), (FAMILY_HERMITE_PADE, 7)])
def test_chain_fits_equal_per_order_fits_at_order44(family, top, ps44):
    # one order past the top is left to the per-order fit, which raises
    orders = list(range(top + 2))
    assert assert_chain_matches_fits(ps44, family, orders) == set(range(top + 1))


def test_geometric_series_falls_back_after_the_first_order():
    # the Hankel rows of 1/(1 - z) have rank one: the second pivot is zero
    assert assert_chain_matches_fits(geometric(11), FAMILY_PADE, [1, 2, 3, 4, 5]) == {1}
    assert assert_chain_matches_fits(geometric(12), FAMILY_HERMITE_PADE, [1, 2, 3]) == set()


def test_zero_diagonal_pivot_falls_back_to_a_regular_fit():
    # exp(z^2) has d_1 = 0, the first diagonal pivot of both systems; the
    # per-order fits exchange rows and find the regular [2/2] entry
    exp_sq = series(*(Fraction(1, math.factorial(j // 2)) if j % 2 == 0 else 0
                      for j in range(11)))
    assert assert_chain_matches_fits(exp_sq, FAMILY_PADE, [0, 1, 2, 3]) == {0}
    assert pade_fit(exp_sq, 2, 2) == PadeApprox((QQ(1), QQ(0), QQ(1, 2)),
                                                (QQ(1), QQ(0), QQ(-1, 2)))
    assert assert_chain_matches_fits(exp_sq, FAMILY_HERMITE_PADE, [1, 2]) == set()


def _counting(monkeypatch, *names):
    """Count the calls of the named analysis functions."""
    calls = {name: 0 for name in names}
    for name in names:
        def counted(*args, real=getattr(analysis, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(analysis, name, counted)
    return calls


@pytest.mark.parametrize("family", [FAMILY_PADE, FAMILY_HERMITE_PADE])
def test_each_chain_eliminates_once(monkeypatch, family, ps44):
    calls = _counting(monkeypatch, "rational_rref", "pade_fit", "hermite_pade_fit")
    est = stable_singularity(ps44, family, threshold=5e-2)
    assert len(est.orders) == len(default_orders(family, len(ps44)))
    assert calls == {"rational_rref": 1, "pade_fit": 0, "hermite_pade_fit": 0}


def test_fallback_orders_go_through_the_per_order_fit(monkeypatch):
    calls = _counting(monkeypatch, "rational_rref", "pade_fit")
    est = stable_singularity(geometric(9), FAMILY_PADE, (1, 2, 3))
    assert est.orders == (1, 2, 3)
    # one chain pass, then orders 2 and 3 each eliminate alone
    assert calls == {"rational_rref": 3, "pade_fit": 2}


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def numeric12():
    return run(12, QQ(1), GAUGE_SIMPLIFIED_XI)


class TestSeriesExtraction:
    def test_normalized_coefficients_at_alpha_one(self, numeric12):
        ps = series_from_engine(numeric12)
        assert ps.coeffs[0] == 1
        assert ps.coeffs[1] == QQ(-1, 12)
        assert ps.coeffs[2] == QQ(-17, 1728)
        assert ps.coeffs[3] == QQ(-707, 414720)
        assert len(ps) == 7

    def test_symbolic_specialization_matches_numeric(self):
        sym = run(8, "symbolic", GAUGE_SIMPLIFIED_XI)
        a = QQ(1, 2)
        assert series_from_engine(sym, alpha=a).coeffs == \
            series_from_engine(run(8, a, GAUGE_SIMPLIFIED_XI)).coeffs

    def test_irrational_root_alpha(self):
        # alpha = 2 exercises the quadratic-ring extraction path
        ps = series_from_engine(run(6, QQ(2), GAUGE_SIMPLIFIED_XI))
        assert ps.coeffs[1] == QQ(-1, 8)

    def test_rejects_zero_initial_gauge(self):
        zi = run(2, QQ(1), GAUGE_ZERO_INITIAL)
        with pytest.raises(ValueError, match="phase-free"):
            series_from_engine(zi)

    def test_symbolic_requires_alpha(self):
        sym = run(2, "symbolic", GAUGE_SIMPLIFIED_XI)
        with pytest.raises(ValueError, match="alpha required"):
            series_from_engine(sym)

    def test_alpha_mismatch_rejected(self):
        with pytest.raises(ValueError, match="disagrees"):
            series_from_engine(run(2, QQ(1), GAUGE_SIMPLIFIED_XI), alpha=QQ(2))


# ---------------------------------------------------------------------------


class TestPadeFit:
    def test_geometric_zero_one(self):
        fit = pade_fit(geometric(2), 0, 1)
        assert fit.P == (QQ(1),)
        assert fit.Q == (QQ(1), QQ(-1))

    def test_exponential_one_one(self):
        # classical [1/1] of exp: (1 + z/2) / (1 - z/2)
        fit = pade_fit(series(1, 1, "1/2", "1/6"), 1, 1)
        assert fit.P == (QQ(1), QQ(1, 2))
        assert fit.Q == (QQ(1), QQ(-1, 2))

    def test_degree_zero_denominator_truncates(self):
        fit = pade_fit(series(2, 3, 5), 2, 0)
        assert fit.P == (QQ(2), QQ(3), QQ(5))
        assert fit.Q == (QQ(1),)

    def test_insufficient_coefficients(self):
        with pytest.raises(ValueError, match="insufficient"):
            pade_fit(geometric(3), 2, 2)

    def test_blocked_entry_recovers_reduced_fraction(self):
        # the geometric [2/2] q-system has a two-dimensional null space;
        # gcd reduction must land on 1/(1-z)
        fit = pade_fit(geometric(5), 2, 2)
        assert fit.P == (QQ(1),)
        assert fit.Q == (QQ(1), QQ(-1))

    def test_blocked_entry_without_solution_raises(self):
        with pytest.raises(DegenerateApproximantError, match="blocked"):
            pade_fit(series(1, 0, 1), 1, 1)

    def test_reproduction_on_frequency_series(self, ps44):
        fit = pade_fit(ps44, 11, 11)
        assert fit.Q[0] == QQ(1)
        assert len(fit.P) <= 12 and len(fit.Q) <= 12
        rep = rational_function_series(list(fit.P), list(fit.Q), 23)
        assert tuple(rep) == ps44.coeffs

    @given(
        p=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                   min_size=1, max_size=3),
        q=st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                   min_size=0, max_size=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_rational_function_recovered(self, p, q):
        # fitting a true (2,2)-rational function returns the same function:
        # cross-multiplied identity P_fit Q - P Q_fit = 0
        p_true = [QQ(v) for v in p]
        q_true = [QQ(1)] + [QQ(v) for v in q]
        c = rational_function_series(p_true, q_true, 7)
        fit = pade_fit(PowerSeries(tuple(c)), 2, 2)
        assert _poly_sum([(1, fit.P, q_true), (-1, p_true, fit.Q)]) == []


# ---------------------------------------------------------------------------


def hp_residual(h, coeffs, upto):
    """Coefficients of P f^2 + Q f + R through z^upto, exactly."""
    n = upto + 1
    f = list(coeffs[:n])
    sq = [QQ(0)] * n
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j in range(n - i):
            sq[i + j] += a * f[j]
    out = []
    for j in range(n):
        acc = QQ(0)
        for i, pv in enumerate(h.P):
            if i <= j:
                acc += pv * sq[j - i]
        for i, qv in enumerate(h.Q):
            if i <= j:
                acc += qv * f[j - i]
        if j < len(h.R):
            acc += h.R[j]
        out.append(acc)
    return out


class TestHermitePade:
    def test_sqrt_branch_point_fit(self):
        h = hermite_pade_fit(series(*SQRT_COEFFS[:3]), 0, 0, 1)
        assert h.P == (QQ(1),)
        assert h.Q == ()
        assert h.R == (QQ(-1), QQ(4))
        assert discriminant(h) == [QQ(4), QQ(-16)]
        roots = mp_roots(discriminant_roots(h))
        assert len(roots) == 1
        assert abs(roots[0] - mpmath.mpf(1) / 4) < mpmath.mpf(10) ** -30

    def test_geometric_symmetric_degrees_degenerate(self):
        # a rational function satisfies two independent quadratic
        # relations at matched degrees, so f[1,1,1] has no unique fit
        with pytest.raises(DegenerateApproximantError, match="null space"):
            hermite_pade_fit(geometric(5), 1, 1, 1)

    def test_geometric_pole_as_double_branch_point(self):
        h = hermite_pade_fit(geometric(3), 0, 1, 0)
        assert discriminant(h) == [QQ(1), QQ(-2), QQ(1)]
        roots = mp_roots(discriminant_roots(h))
        assert len(roots) == 2
        assert all(abs(r - 1) < mpmath.mpf(10) ** -25 for r in roots)

    def test_insufficient_coefficients(self):
        with pytest.raises(ValueError, match="insufficient"):
            hermite_pade_fit(geometric(4), 1, 1, 1)

    def test_residual_exact_on_frequency_series(self, ps44):
        h = hermite_pade_fit(ps44, 7, 7, 7)
        assert all(v == 0 for v in hp_residual(h, ps44.coeffs, 22))

    def test_normalization_first_nonzero_is_one(self, ps44):
        h = hermite_pade_fit(ps44, 7, 7, 7)
        flat = list(h.P) + list(h.Q) + list(h.R)
        lead = next(v for v in flat if v != 0)
        assert lead == QQ(1)

    @given(
        tail=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                      min_size=7, max_size=7),
    )
    @settings(max_examples=25, deadline=None)
    def test_residual_property(self, tail):
        ps = series(1, *tail)
        try:
            h = hermite_pade_fit(ps, 2, 2, 2)
        except DegenerateApproximantError:
            return   # structured series can be legitimately degenerate
        assert all(v == 0 for v in hp_residual(h, ps.coeffs, 7))


# ---------------------------------------------------------------------------


@st.composite
def rational_roots(draw):
    """Distinct rational roots, some in pairs down to 10^-20 apart."""
    roots = draw(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                          min_size=1, max_size=10, unique=True))
    for i, k in draw(st.lists(st.tuples(st.integers(0, 9), st.integers(1, 20)), max_size=4)):
        twin = roots[i % len(roots)] + QQ(1, 10 ** k)
        if twin not in roots:
            roots.append(twin)
    if len(roots) < 2:
        roots.append(QQ(21))
    return roots


def monic(roots):
    """The exact monic polynomial with these roots, ascending powers."""
    coeffs = [QQ(1)]
    for r in roots:
        coeffs = poly_mul(coeffs, [-r, QQ(1)])
    return coeffs


def ints(coeffs):
    """The kernel's integer coefficients of exact ascending ones."""
    return over_lcm(coeffs)[0]


def float_seed(coeffs):
    """_float_seed of exact ascending coefficients."""
    return _float_seed(ints(coeffs)[::-1])


def mp_roots(roots):
    """Root triples as mpc values, exact at 60 digits."""
    with mpmath.workdps(60):
        return [_to_mpc(r) for r in roots]


def poly_roots(coeffs):
    """_poly_roots of exact ascending coefficients, as mpc values."""
    return mp_roots(_poly_roots(ints(coeffs)))


def exact_mpf(coeffs):
    """Exact ascending coefficients as mpf values, highest power first, at
    200 digits: beyond the 443 bits the kernel and mpmath.polyroots work
    at, so that both solve the same polynomial."""
    with mpmath.workdps(200):
        return [mpmath.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]


def mpc_key(z):
    """_root_key's order, for mpc values."""
    return (abs(z), -z.real, abs(z.imag), z.imag)


def assert_close(got, want):
    """Equal lengths, and each root within 1e-40 of its partner, relative."""
    assert len(got) == len(want)
    with mpmath.workdps(60):
        assert all(abs(g - w) <= abs(w) * mpmath.mpf("1e-40") for g, w in zip(got, want)), \
            (got, want)


def own_seeds(roots, seeds, tol, floor=1):
    """Whether every root r has a seed of its own within tol max(floor,
    |r|): a bipartite matching, grown by augmenting paths."""
    owner = {}

    def place(i, seen):
        for j, z in enumerate(seeds):
            if j not in seen and abs(z - roots[i]) <= tol * max(floor, abs(roots[i])):
                seen.add(j)
                if j not in owner or place(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(place(i, set()) for i in range(len(roots)))


# fixed-point ints of varied size and trailing zeros, some lying more than
# 100 bits apart, where mpmath's addition would take a shortcut
_GRAINED = st.builds(lambda m, e: m << e, st.integers(-2 ** 130, 2 ** 130),
                     st.integers(0, 260))


def _raw(v, shift):
    return mpmath.libmp.from_man_exp(v, -shift)


class TestMpmathRounding:
    """The chain's fixed-point arithmetic: its modulus rounds as mpmath's
    abs does, and a difference or a mean is exact, then rounded once."""

    @given(_GRAINED, _GRAINED, st.integers(0, 400))
    @settings(max_examples=300, deadline=None)
    @example(0, -5, 3)
    @example(1 << 300, 7, 300)
    def test_modulus(self, re, im, shift):
        want = mpmath.libmp.mpc_abs((_raw(re, shift), _raw(im, shift)), 53,
                                    mpmath.libmp.round_nearest)
        assert analysis._modulus(re, im, shift) == mpmath.libmp.to_float(want)

    @given(_GRAINED, _GRAINED, _GRAINED, _GRAINED, st.integers(0, 400), st.integers(0, 400))
    @settings(max_examples=300, deadline=None)
    # ar lies 2^200 above a 53-bit midpoint and br pulls the exact
    # difference below it, where mpmath's addition, which only nudges ar,
    # rounds up
    @example((((1 << 52) | 12345) << 68 | (1 << 67) | 1) << 200, 0, (1 << 210) - 1, 0, 0, 0)
    def test_distance(self, ar, ai, br, bi, s, t):
        lib = mpmath.libmp
        nearest = lib.round_nearest
        diff = [lib.mpf_pos(lib.mpf_sub(_raw(a, s), _raw(b, t)), 53, nearest)
                for a, b in ((ar, br), (ai, bi))]
        want = lib.to_float(lib.mpc_abs(tuple(diff), 53, nearest))
        assert analysis._distance((ar, ai, s), (br, bi, t)) == want

    @given(st.lists(st.tuples(_GRAINED, _GRAINED, st.integers(200, 400)), min_size=1,
                    max_size=6),
           st.tuples(_GRAINED, st.sampled_from([0, 1 << 250]), st.integers(200, 400)))
    @settings(max_examples=200, deadline=None)
    def test_nearest_is_the_least_distance(self, roots, prev):
        # conjugates lie at one distance from a real prev: the first wins
        roots = [r for re, im, s in roots for r in ((re, -im, s), (re, im, s))]
        near = [_to_complex(r) for r in roots]
        want = min(roots, key=lambda r: analysis._distance(prev, r))
        assert analysis._nearest(roots, near, prev) is want

    @given(st.lists(st.tuples(_GRAINED, _GRAINED), min_size=3, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_mean(self, parts):
        # the exact mean, rounded to nearest (ties to even) on the grain
        want = tuple(round(Fraction(sum(part), len(parts))) for part in zip(*parts))
        assert analysis._mean([(re, im, 300) for re, im in parts]) == (*want, 300)


class TestRootExtraction:
    def test_quadratic_roots_sorted_by_modulus(self):
        roots = poly_roots([QQ(-6), QQ(1), QQ(1)])   # (z-2)(z+3)
        assert abs(roots[0] - 2) < mpmath.mpf(10) ** -35 or \
            abs(roots[1] - 2) < mpmath.mpf(10) ** -35
        vals = sorted(float(r.real) for r in roots)
        assert vals == pytest.approx([-3.0, 2.0])

    @staticmethod
    def _unseeded(coeffs, dps):
        """mpmath's own Durand-Kerner start, at the kernel's precision, on
        the coefficients as exactly as the kernel takes them."""
        hi_to_lo = exact_mpf(coeffs)
        with mpmath.workdps(dps):
            roots = mpmath.polyroots(hi_to_lo, maxsteps=200, extraprec=4 * dps)
        return sorted(roots, key=mpc_key)

    def _spy(self, monkeypatch):
        starts = []
        kernel = analysis._durand_kerner

        def spy(hi_to_lo, seeds):
            starts.append(seeds)
            return kernel(hi_to_lo, seeds)

        monkeypatch.setattr(analysis, "_durand_kerner", spy)
        return starts

    def test_seeded_cluster_matches_unseeded(self, monkeypatch):
        eps = QQ(1, 10 ** 14)          # (z-2)(z-2-10^-14)(z+3)
        coeffs = poly_mul(poly_mul([QQ(-2), QQ(1)], [-(2 + eps), QQ(1)]),
                          [QQ(3), QQ(1)])
        want = self._unseeded(coeffs, 60)
        seeds = self._spy(monkeypatch)
        got = poly_roots(coeffs)
        assert len(seeds) == 1 and len(seeds[0]) == 3
        assert_close(got, want)
        # exact coefficients resolve the pair to ~60-14 digits at least
        with mpmath.workdps(60):
            assert abs(got[1] - got[0] - mpmath.mpf(eps.numerator) / eps.denominator) \
                < mpmath.mpf(10) ** -40

    def test_missing_float_seed_falls_back(self, monkeypatch):
        big = QQ(10 ** 400)            # 10^400 (z-1/3)(z+5/7)(z-4)
        coeffs = poly_mul(poly_mul(poly_mul([QQ(-1, 3), QQ(1)], [QQ(5, 7), QQ(1)]),
                                   [QQ(-4), QQ(1)]), [big])
        # the seeds scale the coefficients by a power of two, so a common
        # factor beyond the doubles no longer costs them
        assert own_seeds([1 / 3, -5 / 7, 4], float_seed(coeffs), 1e-13)
        monkeypatch.setattr(analysis, "_float_seed", lambda hi_to_lo: None)
        want = self._unseeded(coeffs, 60)
        seeds = self._spy(monkeypatch)
        assert_close(poly_roots(coeffs), want)
        # mpmath.polyroots' own start points
        assert seeds == [[(0.4 + 0.9j) ** n for n in range(3)]]

    @staticmethod
    def _both(coeffs, starts=None):
        """(kernel, mpmath.polyroots) roots from the same starts, at the
        kernel's precision; the float seeds when starts is None."""
        hi_to_lo = exact_mpf(coeffs)
        with mpmath.workdps(60):
            if starts is None:
                starts = float_seed(coeffs)
            want = mpmath.polyroots(hi_to_lo, maxsteps=200, extraprec=240,
                                    roots_init=starts)
            got = _durand_kerner(ints(coeffs)[::-1], starts)
            return mp_roots(sorted(got, key=_root_key)), sorted(want, key=mpc_key)

    @given(rational_roots())
    @settings(max_examples=40, deadline=None)
    def test_kernel_matches_polyroots_on_rational_roots(self, roots):
        got, want = self._both(monic(roots))
        assert_close(got, want)

    @given(rational_roots())
    @settings(max_examples=40, deadline=None)
    def test_float_seeds_near_rational_roots(self, roots):
        """n finite seeds.  Each root that doubles pin down, whose
        first-order error 2^-52 sum |a_k r^k| / |p'(r)| as a root of the
        rounded coefficients is at most 1e-9 max(1, |r|), has a seed of its
        own within 1e-6 max(1, |r|).  A root of a tight pair or triple is
        not pinned down in doubles (nor by numpy.roots: in about a third of
        these draws a twin's seed lies further than 1e-6 from it), so each
        root only needs some seed within 1e-2 max(1, |r|)."""
        coeffs = monic(roots)
        seeds = float_seed(coeffs)
        assert len(seeds) == len(roots) and all(map(cmath.isfinite, seeds))

        def error(r):
            slope = sum(k * c * r ** (k - 1) for k, c in enumerate(coeffs) if k)
            return 2 ** -52 * sum(abs(c * r ** k) for k, c in enumerate(coeffs)) / abs(slope)

        simple = [float(r) for r in roots if error(r) <= 1e-9 * max(1, abs(r))]
        assert own_seeds(simple, seeds, 1e-6)
        assert all(min(abs(z - float(r)) for z in seeds) <= 1e-2 * max(1, abs(r))
                   for r in roots)

    @pytest.mark.parametrize("coeffs, roots", [
        ([QQ(-3), QQ(2)], [1.5]),
        ([QQ(0), QQ(0), QQ(1)], [0, 0]),
        ([QQ(0), QQ(-1), QQ(0), QQ(1)], [-1, 0, 1]),
        ([QQ(1)] + [QQ(0)] * 7 + [QQ(1)], [cmath.exp(1j * math.pi * (2 * m + 1) / 8)
                                           for m in range(8)]),
        ([QQ(1, 10 ** 200), QQ(1)], [-1e-200]),
    ], ids=["degree-1", "z^2", "z^3-z", "z^8+1", "z+10^-200"])
    def test_float_seed_edge_cases(self, coeffs, roots):
        # zero roots come back exactly 0, with no division by zero, and a
        # root far below 1 keeps its relative precision
        seeds = float_seed(coeffs)
        assert len(seeds) == len(roots)
        assert own_seeds(roots, seeds, 1e-13, floor=0)
        got = [_to_complex(z) for z in _poly_roots(ints(coeffs))]
        assert own_seeds(roots, got, 1e-15, floor=0)

    def test_duplicated_starts_match_polyroots(self):
        # (z-1)(z-2)(z+3)(z^2+1) from three equal starts: each zero
        # factor is skipped, and the iteration still separates them.  The
        # 128-bit rung separates them before the full-precision sweeps, so
        # the confirming sweep is guarded by the triple cluster below
        coeffs = poly_mul(poly_mul(poly_mul([QQ(-1), QQ(1)], [QQ(-2), QQ(1)]),
                                   [QQ(3), QQ(1)]), [QQ(1), QQ(0), QQ(1)])
        starts = [0.5j, 0.5j, 0.5j, 1.5, -2.5]
        got, want = self._both(coeffs, starts)
        assert_close(got, want)
        assert len({(z.real, z.imag) for z in got}) == 5

    @pytest.mark.parametrize("seeded", [True, False], ids=["float-seeds", "polyroots-starts"])
    def test_near_double_pair_among_simple_roots_matches_polyroots(self, seeded):
        # ((z+4)^2 + 10^-24) times ten simple rational roots: the pair keeps
        # moving for sweeps after the simple roots have settled, which the
        # kernel then skips until one full sweep confirms them all
        coeffs = [QQ(16) + QQ(1, 10 ** 24), QQ(8), QQ(1)]
        for k in (-15, -11, -5, -2, 1, 3, 5, 7, 9, 12):
            coeffs = poly_mul(coeffs, [QQ(-k, 2), QQ(1)])
        starts = None if seeded else [(0.4 + 0.9j) ** n for n in range(12)]
        got, want = self._both(coeffs, starts)
        assert_close(got, want)
        assert len(got) == 12 and sum(abs(z + 4) < 1e-6 for z in got) == 2

    def test_real_seeds_resolve_a_near_double_pair(self):
        # ((z+4)^2 + 10^-24)(z-3)(z+7)(z^2+1), started from two distinct
        # reals near -4 for the pair, as double-precision seeds may be
        coeffs = poly_mul(poly_mul(poly_mul([QQ(16) + QQ(1, 10 ** 24), QQ(8), QQ(1)],
                                            [QQ(-3), QQ(1)]), [QQ(7), QQ(1)]),
                          [QQ(1), QQ(0), QQ(1)])
        starts = [-7, 3 - 2 ** -48, -4 - 2 ** -26, -4 + 2 ** -26,
                  -2 ** -53 + (1 - 2 ** -52) * 1j, -2 ** -53 - (1 - 2 ** -52) * 1j]
        roots, want = self._both(coeffs, starts)
        assert_close(roots, want)
        with mpmath.workdps(60):
            pair = [z for z in roots if abs(z + 4) < 1e-3]
            assert len(pair) == 2
            for z, sign in zip(pair, (-1, 1)):
                assert abs(z - mpmath.mpc(-4, sign * mpmath.mpf(10) ** -12)) \
                    < mpmath.mpf(10) ** -45

    def test_cluster_settling_on_different_sweeps_matches_polyroots(self):
        # (z-1)(z-1-d)(z-1-2d), d = 10^-26, from polyroots' own starts: the
        # cluster's roots settle on different full-precision sweeps, and a
        # kernel that stops once every root's last step was small, without
        # the sweep that confirms the skipped ones, returns one 7e-39 off
        d = QQ(1, 10 ** 26)
        coeffs = poly_mul(poly_mul([QQ(-1), QQ(1)], [-1 - d, QQ(1)]), [-1 - 2 * d, QQ(1)])
        got = _durand_kerner(ints(coeffs)[::-1], [(0.4 + 0.9j) ** n for n in range(3)])
        with mpmath.workdps(200):
            want = mpmath.polyroots(exact_mpf(coeffs), maxsteps=2000, extraprec=2000)
        assert_close(mp_roots(sorted(got, key=_root_key)), sorted(want, key=mpc_key))

    def test_tiny_roots_keep_relative_precision(self):
        # (z^2 + 10^-100)(z - 3): on a fixed grain of 2^-443 the roots
        # +-10^-50 i kept ~35 digits; mpmath.polyroots, whose step bound is
        # absolute, is itself off by 2.9e-35, so the exact roots are the
        # oracle, compared in rationals to 60 digits
        coeffs = ints(poly_mul([QQ(1, 10 ** 100), QQ(0), QQ(1)], [QQ(-3), QQ(1)]))
        got = pade_poles(PadeApprox(None, tuple(coeffs)))
        assert got == _poly_roots(coeffs)
        tiny = Fraction(1, 10 ** 50)
        want = [(0, -tiny), (0, tiny), (3, 0)]
        assert len(got) == len(want)
        for (re, im, shift), (wr, wi) in zip(got, want):
            err = (Fraction(re, 2 ** shift) - wr) ** 2 + (Fraction(im, 2 ** shift) - wi) ** 2
            assert err <= Fraction(1, 10 ** 120) * (wr * wr + wi * wi)

    def test_fixture_polynomials_match_polyroots(self, ps44):
        """Every Pade denominator and discriminant at the default orders
        of the order-44 series."""
        polys = [list(pade_fit(ps44, m, m).Q)
                 for m in default_orders(FAMILY_PADE, len(ps44))]
        for m in default_orders(FAMILY_HERMITE_PADE, len(ps44)):
            polys.append(discriminant(hermite_pade_fit(ps44, m, m, m)))
        for q in polys:
            got, want = self._both(poly_trim(q))
            assert_close(got, want)
            assert poly_roots(q) == got

    def test_float_seed_needs_representable_coefficients(self):
        big = 10 ** 400
        # scaled below 1, the other coefficients underflow beside the leading one
        assert _float_seed([big, -3, 2]) is None
        # and the leading one underflows beside the others, which would
        # leave too few seeds
        assert _float_seed([1, -3 * big, 2 * big]) is None
        seed = _float_seed([1, -3, 2])
        assert sorted(z.real for z in seed) == pytest.approx([1, 2])
        # nor does a power of two, however large
        assert _float_seed([2 ** 2000, -3 * 2 ** 2000, 2 ** 2001]) == seed

    def test_constant_discriminant_empty(self):
        h = hermite_pade_fit(series(*SQRT_COEFFS[:3]), 0, 0, 1)
        bare = type(h)(P=(), Q=(QQ(1),), R=())
        assert discriminant_roots(bare) == []

    def test_conjugate_pair_ordering(self):
        roots = poly_roots([QQ(1), QQ(0), QQ(1)])    # z^2 + 1
        roots = sorted(roots, key=mpc_key)
        assert abs(roots[0] + mpmath.mpc(0, 1)) < mpmath.mpf(10) ** -35
        assert abs(roots[1] - mpmath.mpc(0, 1)) < mpmath.mpf(10) ** -35

    def test_sqrt_two_to_fifty_digits(self):
        with mpmath.workdps(60):
            roots = poly_roots([QQ(-2), QQ(0), QQ(1)])
            target = mpmath.sqrt(2)
            assert min(abs(r - target) for r in roots) < mpmath.mpf(10) ** -50

    def test_residual_bound_on_large_denominator(self, ps44):
        fit = pade_fit(ps44, 11, 11)
        q = list(fit.Q)
        norm = max(abs(mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator))
                   for v in q)
        with mpmath.workdps(60):
            for z in mp_roots(pade_poles(fit)):
                bound = mpmath.mpf(10) ** -25 * norm * max(1, abs(z)) ** (len(q) - 1)
                assert abs(mpmath.polyval([mpmath.mpf(v.numerator) / v.denominator
                                           for v in reversed(q)], z)) <= bound

    def test_geometric_pole_exact(self):
        fit = pade_fit(geometric(5), 2, 2)
        poles = mp_roots(pade_poles(fit))
        assert len(poles) == 1
        assert abs(poles[0] - 1) < mpmath.mpf(10) ** -50


class TestDiscriminantClusters:
    """Hermite-Pade candidates are the odd clusters of discriminant zeros."""

    @staticmethod
    def candidates(d):
        # P = -1/4 and Q = 0 make the discriminant d itself
        fit = QuadHermitePade((QQ(-1, 4),), (), tuple(d))
        return mp_roots(_candidate_roots(None, FAMILY_HERMITE_PADE, 0, fit))

    def test_near_double_zero_is_dropped(self):
        d = poly_mul(poly_mul([QQ(-2), QQ(1)], [QQ(-2) - QQ(1, 50000), QQ(1)]),
                     [QQ(-3), QQ(1)])
        got = self.candidates(d)
        assert len(got) == 1
        assert abs(got[0] - 3) < mpmath.mpf(10) ** -40

    def test_near_triple_zero_is_one_candidate(self):
        # the zeros of (z - 2)^3 - 8e-15 lie 2e-5 from 2 and their mean is 2
        got = self.candidates([QQ(-8) - QQ(8, 10 ** 15), QQ(12), QQ(-6), QQ(1)])
        assert len(got) == 1
        assert abs(got[0] - 2) < mpmath.mpf(10) ** -40


# ---------------------------------------------------------------------------


# radius_scan rows at the scan threshold, every field pinned exactly on
# the code whose chains ran in mpc at mpmath's precision: order 32 at a
# quadratic alpha and at a rational-root one where both chains fail, and
# order 44 at alpha 4, whose Hermite-Pade chain relies on the odd-cluster
# rule
PINNED_ROWS = {
    (32, QQ(2)): ("pade: no root chain stayed within spread 0.05", {
        FAMILY_HERMITE_PADE: SingularityEstimate(
            location=(2.338994658910117-1.2294127090037195j),
            radius=2.642413976550593, stability_spread=0.03924763289603403,
            orders=(3, 4, 5),
            trail=((2.401261121364115-1.3123484631829085j),
                   (2.355860259016249-1.2470276941731555j),
                   (2.338994658910117-1.2294127090037195j)))}),
    (32, QQ(4, 9)): ("pade: no root chain stayed within spread 0.05; "
                     "hermite-pade: no root chain stayed within spread 0.05", {}),
    (44, QQ(4)): (None, {
        FAMILY_PADE: SingularityEstimate(
            location=(1.2966268564222465-0.9863813282857319j),
            radius=1.6291682938193224, stability_spread=0.048004439139693905,
            orders=(7, 8, 9, 10, 11),
            trail=((1.3722481746412323-1.0063262424481128j),
                   (1.3443604385277832-0.9912106026016659j),
                   (1.3121928812063068-0.9920647479945733j),
                   (1.3116559593081871-0.9908924950326857j),
                   (1.2966268564222465-0.9863813282857319j))),
        FAMILY_HERMITE_PADE: SingularityEstimate(
            location=(1.244786874255804-0.9740097503755103j),
            radius=1.5805661505125619, stability_spread=0.0006518993752205927,
            orders=(5, 6, 7),
            trail=((1.2444117596178383-0.9730500881836238j),
                   (1.2447627630503055-0.973830727841843j),
                   (1.244786874255804-0.9740097503755103j)))}),
}


@pytest.mark.parametrize("order, alpha", list(PINNED_ROWS), ids=["32-2", "32-4/9", "44-4"])
def test_scan_rows_are_pinned(order, alpha):
    row = analysis._scan_row(alpha, order, FAMILIES, SCAN_THRESHOLD)
    error, estimates = PINNED_ROWS[order, alpha]
    assert row.error == error
    assert repr(row.estimates) == repr(estimates)


def test_scan_row_builds_no_rational_of_any_correction(monkeypatch):
    # the radius path reads only the frequencies: every xi_n and eta_n
    # stays an integer form, its dict slots unset (read through the slot
    # descriptors, since reading .sin would build them)
    runs = []

    def recording(*args, real=engine.run):
        runs.append(real(*args))
        return runs[-1]
    monkeypatch.setattr(engine, "run", recording)
    row = analysis._scan_row(2, 16, FAMILIES, SCAN_THRESHOLD)
    assert row.alpha == 2 and len(runs) == 1
    orders = runs[0].orders[1:]
    assert len(orders) == 16
    for sol in orders:
        for tp in (sol.xi, sol.eta):
            for slot in (TrigPoly.sin, TrigPoly.cos):
                with pytest.raises(AttributeError):
                    slot.__get__(tp, TrigPoly)


@pytest.mark.parametrize("family", FAMILIES)
def test_estimate_ignores_the_callers_mpmath_precision(family):
    # at 60 digits the chain's distances once ran at 203 bits, and both
    # order-44 alpha-4 spreads moved in their last bit
    ps = series_from_engine(run(44, QQ(4), GAUGE_SIMPLIFIED_XI))
    est = stable_singularity(ps, family, threshold=SCAN_THRESHOLD)
    with mpmath.workdps(60):
        assert stable_singularity(ps, family, threshold=SCAN_THRESHOLD) == est
    assert est == PINNED_ROWS[44, QQ(4)][1][family]


class TestStableSingularity:
    def test_geometric_pade_radius_one(self):
        est = stable_singularity(geometric(9), FAMILY_PADE, (1, 2, 3))
        assert est.radius == pytest.approx(1.0, abs=1e-12)
        assert est.stability_spread == pytest.approx(0.0, abs=1e-12)
        assert est.orders == (1, 2, 3)
        assert len(est.trail) == 3

    def test_geometric_hermite_pade_has_no_usable_orders(self):
        with pytest.raises(NoStableRootError, match="fewer than two usable"):
            stable_singularity(geometric(12), FAMILY_HERMITE_PADE, (1, 2, 3))

    def test_needs_two_orders(self):
        with pytest.raises(ValueError, match="two approximant orders"):
            stable_singularity(geometric(9), FAMILY_PADE, (2,))

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            stable_singularity(geometric(9), "cubic", (1, 2))

    @pytest.mark.parametrize("order_list, bad", [
        ([5.9, 6.9, 7.9], "5.9"), (["7", "8", "9"], "'7'"), ((1, 2.0, 3), "2.0"),
        ((True, 2, 3), "True")])
    def test_orders_must_be_ints(self, monkeypatch, order_list, bad):
        # refused before any fit, and never truncated to the int below
        def no_fit(*args):
            raise AssertionError("a fit ran")
        for name in ("_chain_fits", "pade_fit", "hermite_pade_fit"):
            monkeypatch.setattr(analysis, name, no_fit)
        with pytest.raises(ValueError, match=f"must be an int, got {bad}$"):
            stable_singularity(geometric(20), FAMILY_PADE, order_list)

    def test_order44_pade_estimate(self, ps44):
        est = stable_singularity(ps44, FAMILY_PADE,
                                 default_orders(FAMILY_PADE, len(ps44)),
                                 threshold=5e-2)
        assert est.radius == pytest.approx(RC_PADE_44, abs=1e-9)
        assert est.location.imag != 0        # conjugate pair, not a real pole
        assert est.orders == (7, 8, 9, 10, 11)
        assert est.stability_spread < 5e-2

    def test_order44_hermite_pade_estimate(self, ps44):
        est = stable_singularity(ps44, FAMILY_HERMITE_PADE,
                                 default_orders(FAMILY_HERMITE_PADE, len(ps44)),
                                 threshold=5e-2)
        assert est.radius == pytest.approx(RC_HP_44, abs=1e-9)
        assert est.radius > 3    # near-origin defect doublets must not win
        assert est.orders == (5, 6, 7)

    def test_order62_hermite_pade_skips_discriminant_doublets(self):
        # at alpha 2 the chain nearest the origin is made of near-double
        # discriminant zeros (2.537953896, spread 2.7e-2); the branch point
        # lies beyond it
        ps = series_from_engine(run(62, QQ(2), GAUGE_SIMPLIFIED_XI))
        est = stable_singularity(ps, FAMILY_HERMITE_PADE, threshold=5e-2)
        assert est.radius == pytest.approx(2.635469251, rel=1e-9)

    def test_default_threshold_too_tight_at_order44(self, ps44):
        # the chains still drift by a few percent per order here
        with pytest.raises(NoStableRootError, match="no root chain"):
            stable_singularity(ps44, FAMILY_PADE,
                               default_orders(FAMILY_PADE, len(ps44)))

    @pytest.mark.parametrize("family, radius", [(FAMILY_PADE, RC_PADE_44),
                                                (FAMILY_HERMITE_PADE, RC_HP_44)])
    def test_orders_default_to_the_top_diagonals(self, ps44, family, radius):
        est = stable_singularity(ps44, family, threshold=5e-2)
        assert est.orders == default_orders(family, len(ps44))
        assert est.radius == pytest.approx(radius, abs=1e-9)

    def test_result_fields(self):
        assert [f.name for f in fields(SingularityEstimate)] == \
            ["location", "radius", "stability_spread", "orders", "trail"]
        assert [f.name for f in fields(ScanRow)] == ["alpha", "estimates", "error"]

    def test_order_helpers(self):
        assert default_orders(FAMILY_PADE, 23)[-1] == 11
        assert default_orders(FAMILY_HERMITE_PADE, 23)[-1] == 7
        assert default_orders(FAMILY_PADE, 23) == (7, 8, 9, 10, 11)
        assert default_orders(FAMILY_HERMITE_PADE, 23) == (5, 6, 7)
        assert default_orders(FAMILY_PADE, 5) == (1, 2)
        with pytest.raises(ValueError, match="insufficient"):
            default_orders(FAMILY_HERMITE_PADE, 3)

    @pytest.mark.parametrize("family, top, depth", [
        (FAMILY_PADE, lambda n: (n - 1) // 2, 5),
        (FAMILY_HERMITE_PADE, lambda n: (n - 2) // 3, 3)])
    def test_default_orders_closed_forms(self, family, top, depth):
        # an order-m Pade fit needs 2m+1 coefficients, a Hermite-Pade one 3m+2
        for n in range(131):
            if top(n) < 1:
                with pytest.raises(ValueError, match="insufficient coefficients"):
                    default_orders(family, n)
            else:
                assert default_orders(family, n) == tuple(
                    range(max(1, top(n) - depth + 1), top(n) + 1))

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 0.0, -1e-2])
    def test_threshold_must_be_finite_and_positive(self, threshold, numeric12):
        with pytest.raises(ValueError, match="threshold must be finite and positive"):
            stable_singularity(series_from_engine(numeric12), FAMILY_PADE,
                               threshold=threshold)

    def test_default_orders_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family 'cubic'"):
            default_orders("cubic", 20)
        with pytest.raises(ValueError, match="unknown family 'cubic'"):
            stable_singularity(geometric(20), "cubic")


# ---------------------------------------------------------------------------


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs a radius scan may use: one runs it in this
    process, two in two forked workers."""
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("the scan forks workers only where os.sched_getaffinity exists")
    return lambda k: monkeypatch.setattr(os, "sched_getaffinity",
                                         lambda pid: set(range(k)))


# a fresh interpreter scans two alphas on two CPUs and records, when the
# worker pool is built, how many threads run and whether numpy is loaded
PRE_FORK = """
import concurrent.futures
import os
import sys
import threading

os.sched_getaffinity = lambda pid: {0, 1}
built = []


class Recording(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        built.append((threading.active_count(), "numpy" in sys.modules))
        super().__init__(*args, **kwargs)


concurrent.futures.ProcessPoolExecutor = Recording
from lpvolterra.analysis import radius_scan
rows = radius_scan([1, 2], 8)
assert [row.alpha for row in rows] == [1, 2]
print(built, "numpy" in sys.modules)
"""


def test_scan_forks_from_one_thread_without_numpy(child_env):
    # no row loads numpy (the root seeds are pure Python), so the pool
    # forks from one thread, which Python 3.12's fork warning, raised
    # here as an error, would otherwise report
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("the scan forks workers only where os.sched_getaffinity exists")
    proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-c", PRE_FORK],
                          capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[(1, False)] False"


class TestRadiusScan:
    def test_empty_grid(self):
        assert radius_scan([], 44) == []

    def test_single_alpha_matches_published_radius(self):
        rows = radius_scan([QQ(1)], 44)
        assert len(rows) == 1
        row = rows[0]
        assert row.error is None
        assert row.estimates[FAMILY_PADE].orders == (7, 8, 9, 10, 11)   # order 44
        for family in (FAMILY_PADE, FAMILY_HERMITE_PADE):
            assert row.estimates[family].radius == pytest.approx(3.46, rel=5e-2)

    def test_one_cpu_runs_here_and_two_fork(self, cpus, monkeypatch):
        def pid(order, alpha, gauge):
            raise ArithmeticError(str(os.getpid()))

        monkeypatch.setattr(engine, "run", pid)
        here = str(os.getpid())
        cpus(1)
        assert {row.error for row in radius_scan([1, 2, 3], 8)} == {here}
        cpus(2)
        workers = {row.error for row in radius_scan([1, 2, 3], 8)}
        assert here not in workers and 1 <= len(workers) <= 2

    def test_serial_and_parallel_rows_agree(self, cpus):
        # at spread 0.2, alphas 1/4 and 1 keep a Hermite-Pade chain and
        # every row records a failed family
        alphas = [QQ(1, 4), QQ(1), QQ(2), QQ(4)]
        cpus(1)
        serial = radius_scan(alphas, 16, threshold=0.2)
        cpus(2)
        parallel = radius_scan(alphas, 16, threshold=0.2)
        assert [row.alpha for row in parallel] == alphas
        for one, two in zip(serial, parallel):
            assert two.error == one.error
            assert list(two.estimates) == list(one.estimates)
            for family, est in one.estimates.items():
                assert two.estimates[family] == est
                assert two.estimates[family].trail == est.trail
        assert any(row.estimates for row in serial)
        assert all(row.error for row in serial)

    def test_per_alpha_failure_is_isolated(self, monkeypatch):
        def boom(order, alpha, gauge):
            if alpha == 2:
                raise ArithmeticError("boom")
            return run(order, alpha, gauge)

        monkeypatch.setattr(engine, "run", boom)
        rows = radius_scan([QQ(1), QQ(2)], 8)
        assert len(rows) == 2
        assert rows[1].error == "boom"
        assert rows[1].estimates == {}

    @pytest.mark.parametrize("exc", [ZeroDivisionError("boom"), ValueError("boom"),
                                     NoConvergenceError("boom")])
    def test_declared_failures_are_recorded(self, exc, monkeypatch):
        def boom(order, alpha, gauge):
            raise exc

        monkeypatch.setattr(engine, "run", boom)
        rows = radius_scan([QQ(1)], 8)
        assert rows[0].error == "boom"

    def test_undeclared_failure_propagates(self, monkeypatch):
        def boom(order, alpha, gauge):
            raise TypeError("a bug, not a failed estimate")

        monkeypatch.setattr(engine, "run", boom)
        with pytest.raises(TypeError):
            radius_scan([QQ(1)], 8)

    def test_undeclared_failure_in_a_worker_propagates(self, cpus, monkeypatch):
        def boom(order, alpha, gauge):
            raise TypeError("a bug, not a failed estimate")

        monkeypatch.setattr(engine, "run", boom)
        cpus(2)
        with pytest.raises(TypeError, match="a bug"):
            radius_scan([QQ(1), QQ(2)], 8)

    def test_no_worker_outlives_the_scan(self, cpus, monkeypatch):
        cpus(2)
        assert len(radius_scan([QQ(1), QQ(2)], 8)) == 2
        assert multiprocessing.active_children() == []

        def boom(order, alpha, gauge):
            raise TypeError("a bug, not a failed estimate")

        monkeypatch.setattr(engine, "run", boom)
        with pytest.raises(TypeError):
            radius_scan([QQ(1), QQ(2)], 8)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("roots, failed, kept, radius", [
        ("pade_poles", FAMILY_PADE, FAMILY_HERMITE_PADE, RC_HP_44),
        ("discriminant_roots", FAMILY_HERMITE_PADE, FAMILY_PADE, RC_PADE_44),
    ], ids=["pade-fails", "hermite-pade-fails"])
    @pytest.mark.parametrize("exc", [ArithmeticError("root refinement did not converge"),
                                     NoConvergenceError("no convergence")],
                             ids=["ArithmeticError", "NoConvergence"])
    def test_root_failure_keeps_the_other_family(self, monkeypatch, run44,
                                                 roots, failed, kept, radius, exc):
        def fail(fit):
            raise exc

        monkeypatch.setattr(analysis, roots, fail)
        monkeypatch.setattr(engine, "run", lambda order, alpha, gauge: run44)
        row = radius_scan([QQ(1)], 44)[0]
        assert set(row.estimates) == {kept}
        assert row.estimates[kept].radius == pytest.approx(radius, abs=1e-9)
        assert row.error == f"{failed}: {exc}"

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -5e-2])
    def test_threshold_must_be_finite_and_positive(self, threshold, monkeypatch):
        def boom(order, alpha, gauge):
            raise AssertionError("the threshold is checked before any run")

        monkeypatch.setattr(engine, "run", boom)
        with pytest.raises(ValueError, match="threshold must be finite and positive"):
            radius_scan([QQ(1)], 8, threshold=threshold)

    def test_unknown_family_is_rejected_before_any_run(self, monkeypatch):
        def boom(order, alpha, gauge):
            raise AssertionError("the families are checked before any run")

        monkeypatch.setattr(engine, "run", boom)
        with pytest.raises(ValueError, match="unknown family 'pade-2'; expected one of"):
            radius_scan([QQ(1), QQ(2)], 8, families=(FAMILY_PADE, "pade-2"))

    def test_family_restriction(self):
        rows = radius_scan([QQ(1)], 44, families=(FAMILY_HERMITE_PADE,))
        assert FAMILY_PADE not in rows[0].estimates
        assert rows[0].estimates[FAMILY_HERMITE_PADE].radius == \
            pytest.approx(RC_HP_44, abs=1e-9)
