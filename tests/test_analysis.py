"""Approximant fits, root extraction, and the stable-singularity tracker.

Large-data regressions pin the alpha=1, order-44 frequency series values
that the radius machinery is expected to reproduce; small closed-form
cases (geometric, exponential, sqrt) cover each code path exactly.

A radius scan of two or more alphas runs them in worker processes when
this process may use two or more CPUs.  The workers are forked, so a
monkeypatch made before the scan reaches them too.
"""

import math
import multiprocessing
import os
from dataclasses import fields
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpvolterra import analysis, engine
from lpvolterra.algebra import QQ
from lpvolterra.analysis import (
    FAMILY_HERMITE_PADE,
    FAMILY_PADE,
    DegenerateApproximantError,
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
    _poly_roots_mp,
    _poly_sum,
    _root_key,
)
from lpvolterra.engine import GAUGE_SIMPLIFIED_XI, GAUGE_ZERO_INITIAL, run


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


def assert_chain_matches_fits(ps, family, orders):
    """The chain's fits by order; each equals the per-order fit, so an
    order whose fit raises (blocked, degenerate, too long for the series,
    negative) must be left to that fit.  Returns the orders it solved."""
    chain = analysis._chain_fits(ps, family, orders)
    assert set(chain) <= set(orders)
    for m in chain:
        assert chain[m] == _per_order(ps, family, m), (family, m)
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
        roots = discriminant_roots(h)
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
        roots = discriminant_roots(h)
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


class TestRootExtraction:
    def test_quadratic_roots_sorted_by_modulus(self):
        roots = _poly_roots_mp([QQ(-6), QQ(1), QQ(1)])   # (z-2)(z+3)
        assert abs(roots[0] - 2) < mpmath.mpf(10) ** -35 or \
            abs(roots[1] - 2) < mpmath.mpf(10) ** -35
        vals = sorted(float(r.real) for r in roots)
        assert vals == pytest.approx([-3.0, 2.0])

    @staticmethod
    def _unseeded(coeffs, dps):
        """mpmath's own Durand-Kerner start, at the kernel's precision."""
        with mpmath.workdps(dps):
            hi_to_lo = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                        for c in reversed(coeffs)]
            roots = mpmath.polyroots(hi_to_lo, maxsteps=200, extraprec=4 * dps)
        return sorted(roots, key=lambda z: (abs(z), -z.real, abs(z.imag), z.imag))

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
        got = _poly_roots_mp(coeffs)
        assert len(seeds) == 1 and len(seeds[0]) == 3
        assert got == want
        # coefficients rounded to 60 digits resolve the pair to ~60-14 digits
        with mpmath.workdps(60):
            assert abs(got[1] - got[0] - mpmath.mpf(eps.numerator) / eps.denominator) \
                < mpmath.mpf(10) ** -40

    def test_overflowing_float_seed_falls_back(self, monkeypatch):
        big = QQ(10 ** 400)            # 10^400 (z-1/3)(z+5/7)(z-4)
        coeffs = poly_mul(poly_mul(poly_mul([QQ(-1, 3), QQ(1)], [QQ(5, 7), QQ(1)]),
                                   [QQ(-4), QQ(1)]), [big])
        with mpmath.workdps(60):
            assert _float_seed([mpmath.mpf(c.numerator) / c.denominator
                                for c in reversed(coeffs)]) is None
        want = self._unseeded(coeffs, 60)
        seeds = self._spy(monkeypatch)
        assert _poly_roots_mp(coeffs) == want
        # mpmath.polyroots' own start points
        assert seeds == [[(0.4 + 0.9j) ** n for n in range(3)]]

    @staticmethod
    def _both(coeffs, starts=None):
        """(kernel, mpmath.polyroots) roots from the same starts, at the
        kernel's precision; the float seeds when starts is None."""
        with mpmath.workdps(60):
            hi_to_lo = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                        for c in reversed(coeffs)]
            if starts is None:
                starts = _float_seed(hi_to_lo)
            want = mpmath.polyroots(hi_to_lo, maxsteps=200, extraprec=240,
                                    roots_init=starts)
            got = _durand_kerner(hi_to_lo, starts)
            return sorted(got, key=_root_key), sorted(want, key=_root_key)

    @given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                    min_size=1, max_size=10, unique=True),
           st.lists(st.tuples(st.integers(0, 9), st.integers(1, 20)), max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_kernel_equals_polyroots_on_rational_roots(self, roots, pairs):
        """Distinct rational roots, some in pairs down to 10^-20 apart."""
        roots = list(roots)
        for i, k in pairs:
            twin = roots[i % len(roots)] + QQ(1, 10 ** k)
            if twin not in roots:
                roots.append(twin)
        if len(roots) < 2:
            roots.append(QQ(21))
        coeffs = [QQ(1)]
        for r in roots:
            coeffs = poly_mul(coeffs, [-r, QQ(1)])
        got, want = self._both(coeffs)
        assert got == want

    def test_duplicated_starts_match_polyroots(self):
        # (z-1)(z-2)(z+3)(z^2+1) from three equal starts: each zero
        # factor is skipped, and the iteration still separates them.  It
        # also guards the confirming sweep: a kernel that stops once every
        # root's last step was small, without one more sweep over all of
        # them, returns non-roots here (-1 + 0.5i among them)
        coeffs = poly_mul(poly_mul(poly_mul([QQ(-1), QQ(1)], [QQ(-2), QQ(1)]),
                                   [QQ(3), QQ(1)]), [QQ(1), QQ(0), QQ(1)])
        starts = [mpmath.mpc(z) for z in (0.5j, 0.5j, 0.5j, 1.5, -2.5)]
        got, want = self._both(coeffs, starts)
        assert got == want
        assert len({(z.real, z.imag) for z in got}) == 5

    @pytest.mark.parametrize("seeded", [True, False], ids=["float-seeds", "polyroots-starts"])
    def test_near_double_pair_among_simple_roots_matches_polyroots(self, seeded):
        # ((z+4)^2 + 10^-24) times ten simple rational roots: the pair keeps
        # moving for sweeps after the simple roots have settled, which the
        # kernel then skips until one full sweep confirms them all
        coeffs = [QQ(16) + QQ(1, 10 ** 24), QQ(8), QQ(1)]
        for k in (-15, -11, -5, -2, 1, 3, 5, 7, 9, 12):
            coeffs = poly_mul(coeffs, [QQ(-k, 2), QQ(1)])
        starts = None if seeded else [mpmath.mpc((0.4 + 0.9j) ** n) for n in range(12)]
        got, want = self._both(coeffs, starts)
        assert got == want
        assert len(got) == 12 and sum(abs(z + 4) < 1e-6 for z in got) == 2

    def test_real_seeds_resolve_a_near_double_pair(self):
        # ((z+4)^2 + 10^-24)(z-3)(z+7)(z^2+1): numpy's seeds for the pair
        # are two distinct reals near -4
        coeffs = poly_mul(poly_mul(poly_mul([QQ(16) + QQ(1, 10 ** 24), QQ(8), QQ(1)],
                                            [QQ(-3), QQ(1)]), [QQ(7), QQ(1)]),
                          [QQ(1), QQ(0), QQ(1)])
        with mpmath.workdps(60):
            seeds = _float_seed([mpmath.mpf(c.numerator) / c.denominator
                                 for c in reversed(coeffs)])
            near = [z for z in seeds if abs(z + 4) < 1e-3]
            assert len(near) == 2 and all(z.imag == 0 for z in near)
            roots = _poly_roots_mp(coeffs)
            pair = [z for z in roots if abs(z + 4) < 1e-3]
            assert len(pair) == 2
            for z, sign in zip(pair, (-1, 1)):
                assert abs(z - mpmath.mpc(-4, sign * mpmath.mpf(10) ** -12)) \
                    < mpmath.mpf(10) ** -45

    def test_tiny_roots_keep_relative_precision(self):
        # (z^2 + 10^-100)(z - 3): on a fixed grain of 2^-443 the roots
        # +-10^-50 i kept ~35 digits; mpmath.polyroots, whose step bound is
        # absolute, is itself off by 2.9e-35, so the exact roots are the oracle
        coeffs = poly_mul([QQ(1, 10 ** 100), QQ(0), QQ(1)], [QQ(-3), QQ(1)])
        with mpmath.workdps(60):
            tiny = mpmath.mpf(10) ** -50
            want = [mpmath.mpc(0, -tiny), mpmath.mpc(0, tiny), mpmath.mpc(3)]
            got = _poly_roots_mp(coeffs)
            assert len(got) == 3
            assert all(abs(g - w) <= abs(w) * mpmath.mpf("1e-40")
                       for g, w in zip(got, want))

    def test_fixture_polynomials_match_polyroots(self, ps44):
        """Every Pade denominator and discriminant at the default orders
        of the order-44 series."""
        polys = [list(pade_fit(ps44, m, m).Q)
                 for m in default_orders(FAMILY_PADE, len(ps44))]
        for m in default_orders(FAMILY_HERMITE_PADE, len(ps44)):
            polys.append(discriminant(hermite_pade_fit(ps44, m, m, m)))
        for q in polys:
            got, want = self._both(poly_trim(q))
            assert got == want
            assert _poly_roots_mp(q) == got

    def test_float_seed_needs_representable_coefficients(self):
        with mpmath.workdps(60):
            big, tiny = mpmath.mpf(10) ** 400, mpmath.mpf(10) ** -400
            # the leading coefficient alone overflows: numpy would return
            # all-zero roots of the right length
            assert _float_seed([big, mpmath.mpf(-3), mpmath.mpf(2)]) is None
            # it underflows to 0.0: numpy drops it and returns too few roots
            assert _float_seed([tiny, mpmath.mpf(-3), mpmath.mpf(2)]) is None
            seed = _float_seed([mpmath.mpf(1), mpmath.mpf(-3), mpmath.mpf(2)])
            assert sorted(complex(z).real for z in seed) == pytest.approx([1, 2])

    def test_constant_discriminant_empty(self):
        h = hermite_pade_fit(series(*SQRT_COEFFS[:3]), 0, 0, 1)
        bare = type(h)(P=(), Q=(QQ(1),), R=())
        assert discriminant_roots(bare) == []

    def test_conjugate_pair_ordering(self):
        roots = _poly_roots_mp([QQ(1), QQ(0), QQ(1)])    # z^2 + 1
        roots = sorted(roots, key=lambda z: (abs(z), -z.real, abs(z.imag), z.imag))
        assert abs(roots[0] + mpmath.mpc(0, 1)) < mpmath.mpf(10) ** -35
        assert abs(roots[1] - mpmath.mpc(0, 1)) < mpmath.mpf(10) ** -35

    def test_sqrt_two_to_fifty_digits(self):
        with mpmath.workdps(60):
            roots = _poly_roots_mp([QQ(-2), QQ(0), QQ(1)])
            target = mpmath.sqrt(2)
            assert min(abs(r - target) for r in roots) < mpmath.mpf(10) ** -50

    def test_residual_bound_on_large_denominator(self, ps44):
        fit = pade_fit(ps44, 11, 11)
        q = list(fit.Q)
        norm = max(abs(mpmath.mpf(v.numerator) / mpmath.mpf(v.denominator))
                   for v in q)
        with mpmath.workdps(60):
            for z in pade_poles(fit):
                bound = mpmath.mpf(10) ** -25 * norm * max(1, abs(z)) ** (len(q) - 1)
                assert abs(mpmath.polyval([mpmath.mpf(v.numerator) / v.denominator
                                           for v in reversed(q)], z)) <= bound

    def test_geometric_pole_exact(self):
        fit = pade_fit(geometric(5), 2, 2)
        poles = pade_poles(fit)
        assert len(poles) == 1
        assert abs(poles[0] - 1) < mpmath.mpf(10) ** -50


class TestDiscriminantClusters:
    """Hermite-Pade candidates are the odd clusters of discriminant zeros."""

    @staticmethod
    def candidates(d):
        # P = -1/4 and Q = 0 make the discriminant d itself
        fit = QuadHermitePade((QQ(-1, 4),), (), tuple(d))
        return _candidate_roots(None, FAMILY_HERMITE_PADE, 0, fit)

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
                                     mpmath.libmp.NoConvergence("boom")])
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
                                     mpmath.libmp.NoConvergence("no convergence")],
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
