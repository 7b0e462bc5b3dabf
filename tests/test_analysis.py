"""Approximant fits, root extraction, and the stable-singularity tracker.

Large-data regressions pin the alpha=1, order-44 frequency series values
that the radius machinery is expected to reproduce; small closed-form
cases (geometric, exponential, sqrt) cover each code path exactly.
"""

from dataclasses import fields
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvolterra import analysis
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
    null_space,
    pade_fit,
    pade_poles,
    poly_divmod,
    poly_eval_mp,
    poly_gcd,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_trim,
    radius_scan,
    rational_function_series,
    series_from_engine,
    stable_singularity,
    rational_rref,
    _float_seed,
    _poly_roots_mp,
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

    def test_sub_trims(self):
        assert poly_sub([QQ(1), QQ(2)], [QQ(1), QQ(2)]) == []

    def test_divmod_roundtrip(self):
        p = [QQ(3), QQ(0), QQ(-2), QQ(1), QQ(5)]
        d = [QQ(1), QQ(2), QQ(1)]
        q, r = poly_divmod(p, d)
        assert poly_sub(p, poly_mul(q, d)) == r
        assert len(r) < len(d)

    def test_gcd_is_monic(self):
        a = poly_mul([QQ(2), QQ(2)], [QQ(1), QQ(0), QQ(1)])   # 2(1+z)(1+z^2)
        b = poly_mul([QQ(3), QQ(3)], [QQ(2), QQ(1)])           # 3(1+z)(2+z)
        g = poly_gcd(a, b)
        assert g == [QQ(1), QQ(1)]

    def test_eval_matches_horner(self):
        p = [QQ(1), QQ(-3), QQ(2)]
        with mpmath.workdps(30):
            v = poly_eval_mp(p, mpmath.mpf(2))
            assert abs(v - (1 - 6 + 8)) < mpmath.mpf(10) ** -25


class TestExactLinearAlgebra:
    def test_null_space_of_rank_two(self):
        rows = [[QQ(1), QQ(1), QQ(0)], [QQ(0), QQ(0), QQ(1)]]
        basis = null_space(rows, 3)
        assert basis == [[QQ(-1), QQ(1), QQ(0)]]

    def test_null_space_of_zero_matrix(self):
        basis = null_space([[QQ(0), QQ(0)]], 2)
        assert len(basis) == 2


def reference_rref(rows):
    """Gauss-Jordan on Fraction entries: the oracle for rational_rref,
    which eliminates on integer rows instead."""
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


@given(rational_matrices())
@settings(max_examples=200, deadline=None)
def test_rref_matches_fraction_gauss_jordan(rows):
    want = [list(row) for row in rows]
    want_pivots = reference_rref(want)
    got = [list(row) for row in rows]
    assert rational_rref(got) == want_pivots
    assert got == want


def test_rref_edge_cases():
    assert rational_rref([]) == []
    rows = [[QQ(0), QQ(0)], [QQ(0), QQ(0)]]
    assert rational_rref(rows) == []
    assert rows == [[0, 0], [0, 0]]
    rows = [[QQ(0), QQ(-3, 10 ** 30), QQ(6)], [QQ(0), QQ(1), QQ(0)]]
    assert rational_rref(rows) == [1, 2]
    assert rows == [[0, 1, 0], [0, 0, 1]]


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
    p, q = poly_trim(vec[:K + 1]), vec[K + 1:]
    if len(basis) > 1:
        g = poly_gcd(p, q)
        p, q = poly_divmod(p, g)[0], poly_divmod(q, g)[0]
        p, q = poly_scale(p, 1 / q[0]), poly_scale(q, 1 / q[0])
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
    with pytest.raises(DegenerateApproximantError, match="2-dimensional"):
        reference_hermite_pade([QQ(1)] * 5, 1, 1, 1)


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
        lhs = poly_mul(list(fit.P), q_true)
        rhs = poly_mul(p_true, list(fit.Q))
        assert poly_sub(lhs, rhs) == []


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
        seeds = []
        polyroots = mpmath.polyroots

        def spy(*args, **kwargs):
            seeds.append(kwargs.get("roots_init"))
            return polyroots(*args, **kwargs)

        monkeypatch.setattr(mpmath, "polyroots", spy)
        return seeds

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
        coeffs = poly_scale(poly_mul(poly_mul([QQ(-1, 3), QQ(1)], [QQ(5, 7), QQ(1)]),
                                     [QQ(-4), QQ(1)]), big)
        with mpmath.workdps(60):
            assert _float_seed([mpmath.mpf(c.numerator) / c.denominator
                                for c in reversed(coeffs)]) is None
        want = self._unseeded(coeffs, 60)
        seeds = self._spy(monkeypatch)
        assert _poly_roots_mp(coeffs) == want
        assert seeds == [None]

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
                assert abs(poly_eval_mp(q, z)) <= bound

    def test_geometric_pole_exact(self):
        fit = pade_fit(geometric(5), 2, 2)
        poles = pade_poles(fit)
        assert len(poles) == 1
        assert abs(poles[0] - 1) < mpmath.mpf(10) ** -50


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

    def test_default_orders_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family 'cubic'"):
            default_orders("cubic", 20)
        with pytest.raises(ValueError, match="unknown family 'cubic'"):
            stable_singularity(geometric(20), "cubic")


# ---------------------------------------------------------------------------


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

    def test_per_alpha_failure_is_isolated(self):
        def boom(alpha):
            if alpha == 2:
                raise ArithmeticError("boom")
            return run(8, alpha, GAUGE_SIMPLIFIED_XI)

        rows = radius_scan([QQ(1), QQ(2)], 8, engine_run=boom)
        assert len(rows) == 2
        assert rows[1].error == "boom"
        assert rows[1].estimates == {}

    @pytest.mark.parametrize("exc", [ZeroDivisionError("boom"), ValueError("boom"),
                                     mpmath.libmp.NoConvergence("boom")])
    def test_declared_failures_are_recorded(self, exc):
        def boom(alpha):
            raise exc

        rows = radius_scan([QQ(1)], 8, engine_run=boom)
        assert rows[0].error == "boom"

    def test_undeclared_failure_propagates(self):
        def boom(alpha):
            raise TypeError("a bug, not a failed estimate")

        with pytest.raises(TypeError):
            radius_scan([QQ(1)], 8, engine_run=boom)

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
        row = radius_scan([QQ(1)], 44, engine_run=lambda alpha: run44)[0]
        assert set(row.estimates) == {kept}
        assert row.estimates[kept].radius == pytest.approx(radius, abs=1e-9)
        assert row.error == f"{failed}: {exc}"

    def test_family_restriction(self):
        rows = radius_scan([QQ(1)], 44, families=(FAMILY_HERMITE_PADE,))
        assert FAMILY_PADE not in rows[0].estimates
        assert rows[0].estimates[FAMILY_HERMITE_PADE].radius == \
            pytest.approx(RC_HP_44, abs=1e-9)
