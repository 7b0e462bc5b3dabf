"""Convergence-radius machinery for the frequency series.

The normalized series is omega/sqrt(alpha) = 1 + sum_j d_j z^j in the
variable z = a^2; every d_j is an exact rational once alpha is rational.
Pade approximants P_K/Q_L match the series through z^(K+L); quadratic
Hermite-Pade triples (P_K, Q_L, R_M) satisfy P f^2 + Q f + R = O(z^(K+L+M+2)).
Both fits solve one matching system, A_0 + A_1 f + ... + A_k f^k = O(z^n)
(k = 1 for Pade, k = 2 for Hermite-Pade), by one rule: A_0 enters alone
and with unit coefficient, so it is absent from the equations above its
degree; A_1 .. A_k come from the null space of those upper equations
only, and A_0 is the truncated convolution of the others.  A chain of
diagonal orders eliminates once: each order's system is a leading block
of the next one's, so the top order's elimination gives every lower
order's null vector, and only an order whose block needs a row exchange
is solved alone.
Singularity locations come from denominator zeros (Pade) or the odd
clusters of discriminant zeros Q^2 - 4PR (Hermite-Pade), tracked across
approximant orders until they stabilize.  The estimate stays on integers
from the elimination to the estimate: a chain order hands its candidate
polynomial on with integer coefficients, and its zeros come from a
fixed-point integer Durand-Kerner kernel with mpmath.polyroots' updates,
from Aberth-Ehrlich float seeds, that sweeps only the roots still moving,
first at 128 bits, and ends on one Weierstrass sweep whose corrections
bound each root's distance to a zero (Braess & Hadeler).  The roots stay
fixed-point ints, and the chain rounds each exact distance once to a
double, so an estimate does not depend on the caller's mpmath precision.
Nothing here loads numpy or mpmath.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .algebra import QQ, alpha_polynomial, over_lcm, ring_alpha
from .constants import FAMILIES, FAMILY_HERMITE_PADE, FAMILY_PADE, SCAN_THRESHOLD
from .engine import GAUGE_SIMPLIFIED_XI, GAUGE_ZERO_INITIAL, PerturbationSeries


class DegenerateApproximantError(ArithmeticError):
    """Blocked Pade entry with Q(0) = 0, or a Hermite-Pade matching
    system whose null space is not one-dimensional."""


class NoStableRootError(ArithmeticError):
    """No singularity candidate persisted across approximant orders."""


class NoConvergenceError(ArithmeticError):
    """The root iteration did not settle within its sweeps."""


# what a failed radius estimate raises: degenerate or unstable fits,
# divisions by zero and root iterations that did not converge
# (ArithmeticError), and bad series or orders (ValueError)
ESTIMATE_ERRORS = (ArithmeticError, ValueError)

# decimal digits at which every polynomial root is polished, and the bits
# mpmath gives them, at which the roots are kept
ROOT_DPS = 60
ROOT_PREC = round((ROOT_DPS + 1) * math.log2(10))


# ---------------------------------------------------------------------------
# small exact-polynomial kit (coefficient lists, ascending powers)

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _sum_over(terms, n=None):
    """(ints, den), den > 0, with ints / den the sum of c p q over the (c,
    p, q) terms, c an int, through z^(n-1) (every power when n is None),
    trimmed.  Fraction-free: each operand over its lcm denominator, the
    products convolved as ints over one common denominator."""
    parts = []
    for c, p, q in terms:
        if p and q:
            (ip, dp), (iq, dq) = over_lcm(p), over_lcm(q)
            parts.append((c, ip, iq, dp * dq))
    if not parts:
        return [], 1
    den = math.lcm(*(d for *_, d in parts))
    size = max(len(ip) + len(iq) - 1 for _, ip, iq, _ in parts)
    size = size if n is None else min(size, n)
    out = [0] * size
    for c, ip, iq, d in parts:
        s = c * (den // d)
        for i, a in enumerate(ip[:size]):
            if a:
                a *= s
                for j, b in enumerate(iq[:size - i], i):
                    out[j] += a * b
    while out and not out[-1]:
        out.pop()
    return out, den


def _poly_sum(terms, n=None):
    """:func:`_sum_over` as rationals, one per output coefficient."""
    out, den = _sum_over(terms, n)
    return [QQ(v, den) for v in out]


def poly_mul(p, q):
    """The product p q, fraction-free by :func:`_poly_sum`."""
    return _poly_sum([(1, p, q)])


# ---------------------------------------------------------------------------
# exact linear algebra: fraction-free (Bareiss) echelon form over the integers

def rational_rref(rows, exchange=True):
    """Bareiss's fraction-free forward pass, in place: each rational row
    becomes integers over its lcm denominator, then the echelon form;
    returns the pivot columns.

    A row below the pivot p becomes (p x - f y) / d, d the previous pivot,
    always an exact division, and rows above the pivot are never touched,
    so the k-th pivot is the determinant of the k x k pivot block.  With
    ``exchange`` false the pass stops at the first column whose pivot is
    not already on the diagonal; until then no row has moved, so each
    leading block of rows and columns ends as its own pass would leave
    it.  The rows end in the fraction-free echelon form, not the reduced
    form.  The name stays because the benchmark tracer wraps
    analysis.rational_rref by name to time every fit's elimination, until
    the benchmark renames that span (ROADMAP direction 7)."""
    rows[:] = [over_lcm(row)[0] for row in rows]
    pivots, d = [], 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot != r and not exchange:
            break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow, p = rows[r], rows[r][c]
        for i in range(r + 1, len(rows)):      # zero left of column c
            f = rows[i][c]
            rows[i][c:] = [(p * x - f * y) // d for x, y in zip(rows[i][c:], prow[c:])]
        pivots.append(c)
        d = p
    return pivots


def _leading_null_vector(work, n):
    """Null vector of the leading n x (n+1) block of rows that
    :func:`rational_rref` left with diagonal pivots: column n set to the
    block's last pivot d, the others back-substituted on integers, exact
    by Cramer's rule (d is the determinant of the n x n pivot block)."""
    x = [0] * n + [work[n - 1][n - 1] if n else 1]
    for k in reversed(range(n)):
        x[k] = -sum(work[k][l] * x[l] for l in range(k + 1, n + 1)) // work[k][k]
    return x


# ---------------------------------------------------------------------------
# the normalized frequency series

@dataclass(frozen=True)
class PowerSeries:
    """d_0, d_1, ... with d_j the z^j coefficient, z = a^2, d_0 = 1 for
    the normalized frequency series."""
    coeffs: tuple
    alpha: object = None

    def __len__(self):
        return len(self.coeffs)


def series_from_engine(series: PerturbationSeries, alpha=None) -> PowerSeries:
    """Extract d_j = omega_{2j} / sqrt(alpha) as exact rationals, at the
    alpha :func:`ring_alpha` checks (required for a symbolic series).

    Every even-order frequency correction carries a single overall
    sqrt(alpha) factor; anything else is flagged, as is a nonzero
    odd-order correction (both would falsify the series structure this
    module relies on)."""
    if series.gauge == GAUGE_ZERO_INITIAL:
        raise ValueError("frequency series requires a phase-free gauge")
    ring = series.coeff_ring
    n_max = series.order
    a_val = ring_alpha(ring, alpha)
    coeffs = []
    for j in range(0, n_max // 2 + 1):
        if 2 * j + 1 <= n_max and not ring.is_zero(series.orders[2 * j + 1].omega):
            raise ArithmeticError(f"odd-order frequency omega_{2*j+1} is nonzero")
        w = series.orders[2 * j].omega
        ratio = ring.mul(w, ring.s(-1))
        poly = alpha_polynomial(ratio)
        if poly is None:
            raise ArithmeticError(
                f"omega_{2*j}/sqrt(alpha) is not a polynomial in alpha")
        coeffs.append(sum((c * a_val ** m for m, c in poly.items()), QQ(0)))
    if not coeffs or coeffs[0] != 1:
        raise ArithmeticError("normalized series must start with d_0 = 1")
    return PowerSeries(tuple(coeffs), alpha=a_val)


def rational_function_series(P, Q, n):
    """First n series coefficients of P(z)/Q(z); requires Q(0) != 0."""
    q0 = Q[0] if Q else QQ(0)
    if q0 == 0:
        raise ZeroDivisionError("denominator vanishes at the origin")
    out = []
    for j in range(n):
        acc = P[j] if j < len(P) else QQ(0)
        for i in range(1, min(j, len(Q) - 1) + 1):
            acc -= Q[i] * out[j - i]
        out.append(acc / q0)
    return out


# ---------------------------------------------------------------------------
# Pade and quadratic Hermite-Pade: one matching system

@dataclass(frozen=True)
class PadeApprox:
    P: tuple
    Q: tuple   # Q[0] = 1


@dataclass(frozen=True)
class QuadHermitePade:
    P: tuple
    Q: tuple
    R: tuple


def _powers(coeffs, n, k):
    """f, f^2, ..., f^k through z^(n-1), each padded to n coefficients."""
    powers = [list(coeffs[:n])]
    for _ in range(k - 1):
        power = _poly_sum([(1, powers[-1], powers[0])], n)
        powers.append(power + [QQ(0)] * (n - len(power)))
    return powers


def _matching_system(series: PowerSeries, degrees):
    """A_0 + A_1 f + ... + A_k f^k = O(z^n) with deg A_e = degrees[e] and
    n = sum(degrees) + k, reduced by the rule of the module docstring.

    Returns the first null vector of the equations at z^(deg A_0 + 1) ..
    z^(n-1), in columns (A_k, ..., A_1), each in ascending powers: the
    integer one :func:`_leading_null_vector` reads for the smallest free
    column, zero right of it (some column is free, there being one
    equation fewer), for the caller to scale; the null space's dimension;
    and f, ..., f^k through z^(n-1), from which A_0 is built.  Every
    column left of the smallest free one holds its pivot on the diagonal,
    row exchanges or not, so that column is the first i with
    pivots[i] != i, or the rank when every pivot is diagonal."""
    if min(degrees) < 0:
        raise ValueError("degrees must be nonnegative")
    c = series.coeffs
    n = sum(degrees) + len(degrees) - 1
    if len(c) < n:
        raise ValueError(f"insufficient coefficients: need {n}, have {len(c)}")
    powers = _powers(c, n, len(degrees) - 1)
    blocks = list(zip(degrees[:0:-1], reversed(powers)))   # (deg A_e, f^e), e = k .. 1
    rows = [[fe[j - i] if i <= j else QQ(0) for d, fe in blocks for i in range(d + 1)]
            for j in range(degrees[0] + 1, n)]
    ncols = sum(d + 1 for d in degrees[1:])
    pivots = rational_rref(rows)
    free = next((i for i, j in enumerate(pivots) if i != j), len(pivots))
    return (_leading_null_vector(rows, free) + [0] * (ncols - free - 1),
            ncols - len(pivots), powers)


def pade_fit(series: PowerSeries, K: int, L: int) -> PadeApprox:
    """[K/L] Pade approximant, exact: P/Q matches the series through
    z^(K+L) with Q(0) = 1, in lowest terms.

    The matching system f Q - P = O(z^(K+L+1)), with A_0 = -P, gives Q in
    columns (q_0, ..., q_L) and P as f Q truncated at z^K.  Every entry
    is read from the first null vector, the one built for the smallest
    free column: the pivots are leftmost, so it has the least-degree Q of
    any solution.  Every solution is g (P', Q') with P'/Q' the reduced
    fraction, and (P', Q') is itself a solution when g(0) != 0, so the
    least-degree solution is (P', Q') up to scale, coprime.  If it has
    q_0 = 0, so does every solution: the entry forces Q(0) = 0 and is
    reported for the caller to perturb (K, L).  Otherwise it is scaled
    to q_0 = 1; a regular entry (a one-dimensional null space) keeps all
    L+1 entries of Q, a blocked one drops Q's trailing zeros."""
    vec, dim, powers = _matching_system(series, (K, L))
    if vec[0] == 0:
        raise DegenerateApproximantError(
            f"[{K}/{L}] entry is blocked with Q(0) = 0; perturb the degrees")
    q = [QQ(v, vec[0]) for v in vec]
    return PadeApprox(tuple(_poly_sum([(1, powers[0][:K + 1], q)], K + 1)),
                      tuple(poly_trim(q) if dim > 1 else q))


def hermite_pade_fit(series: PowerSeries, K: int, L: int, M: int) -> QuadHermitePade:
    """Exact (P_K, Q_L, R_M) with P f^2 + Q f + R = O(z^(K+L+M+2)).

    The matching system with A_0 = R gives (p_0..p_K, q_0..q_L) and
    R = -(P f^2 + Q f) through z^M.  A nontrivial solution always exists;
    its first nonzero coefficient in (p_0..p_K, q_0..q_L) order is scaled
    to 1.  A null space of dimension above one is reported as degenerate."""
    vec, dim, powers = _matching_system(series, (M, L, K))
    if dim != 1:
        raise DegenerateApproximantError(
            f"f[{K},{L},{M}] matching system has a {dim}-dimensional "
            "null space")
    lead = next(v for v in vec if v)
    p, q = [QQ(v, lead) for v in vec[:K + 1]], [QQ(v, lead) for v in vec[K + 1:]]
    r = _poly_sum([(-1, p, powers[1][:M + 1]), (-1, q, powers[0][:M + 1])], M + 1)
    return QuadHermitePade(tuple(poly_trim(p)), tuple(poly_trim(q)), tuple(r))


def discriminant(h: QuadHermitePade):
    """Q^2 - 4 P R as an exact coefficient list."""
    return _poly_sum([(1, h.Q, h.Q), (-4, h.P, h.R)])


# ---------------------------------------------------------------------------
# binary floating point on fixed-point ints: a root is a triple
# (re, im, shift) standing for (re + i im) / 2^shift

def _div_round(a, b):
    """a / b, b > 0, rounded to the nearest int, ties to even."""
    q, r = divmod(a, b)
    return q + (2 * r > b or (2 * r == b and q & 1))


def _round(x, prec, down=False):
    """x rounded to prec significant bits on its own grain (no finer), to
    nearest with ties to even or, when ``down``, toward zero."""
    t = max(0, abs(x).bit_length() - prec)
    if down:
        q = abs(x) >> t
        return (q if x >= 0 else -q) << t
    return _div_round(x, 1 << t) << t


def _modulus(re, im, shift):
    """|re + i im| / 2^shift, shift >= 0, as a float: the exact sum of the
    squares rounded toward zero at 57 bits, then its square root rounded
    to nearest at 53 (as mpmath's abs computes it); a zero part leaves the
    other rounded to nearest."""
    if not (re and im):
        return abs(re or im) / (1 << shift)
    n = _round(re * re + im * im, 57, down=True)
    t = ((n & -n).bit_length() - 1) & ~1       # an even power of two leaves the root
    r = math.isqrt(n >> t << 112)
    r = 2 * r + (r * r != n >> t << 112)       # sticky bit: the root is inexact
    return math.ldexp(_round(r, 53), t // 2 - shift - 57)


def _distance(a, b):
    """|a - b| of two roots as a float: each exact part of the difference
    rounded once to nearest at 53 bits, then :func:`_modulus`."""
    (ar, ai, s), (br, bi, t) = a, b
    u = max(s, t)
    ar, ai, br, bi = ar << (u - s), ai << (u - s), br << (u - t), bi << (u - t)
    low = ar | ai | br | bi                    # drop the zeros all four end in
    z = min(u, (low & -low).bit_length() - 1) if low else 0
    ar, ai, br, bi = ar >> z, ai >> z, br >> z, bi >> z
    return _modulus(_round(ar - br, 53), _round(ai - bi, 53), u - z)


def _to_complex(root):
    """The root rounded to the nearest complex double."""
    re, im, shift = root
    return complex(re / (1 << shift), im / (1 << shift))


def _mean(roots):
    """The exact mean of roots on one grain, rounded to nearest on it."""
    n = len(roots)
    return (_div_round(sum(r[0] for r in roots), n),
            _div_round(sum(r[1] for r in roots), n), roots[0][2])


def _root_key(root):
    """Modulus, then real part descending, |imaginary part|, imaginary part
    (conjugate pairs: negative imaginary part first), for the roots of one
    polynomial, which share a grain."""
    re, im, _ = root
    return (re * re + im * im, -re, abs(im), im)


# ---------------------------------------------------------------------------
# polynomial roots on integers

def _float_seed(hi_to_lo):
    """Double-precision roots of the integer polynomial, as starting points
    for the high-precision iteration: Aberth-Ehrlich sweeps in complex
    floats from Bini's starting circles (Numer. Algorithms 13, 1996), one
    per edge of the upper convex hull of (k, log|a_k|), a_k the z^k
    coefficient scaled by a power of two to below 1.  A root stops once its
    correction is at most 1e-13 of it, or has stalled below 1e-6 of it (a
    cluster); at most 30 sweeps.  Exact zero roots are split off first.
    None when a coefficient falls below the normal doubles after the
    scaling, or the roots do not fit in floats."""
    top = max(abs(c) for c in hi_to_lo).bit_length()
    a = [c / (1 << top) for c in hi_to_lo]
    if any(c and abs(v) < sys.float_info.min for c, v in zip(hi_to_lo, a)):
        return None
    a, zeros = poly_trim(a), len(a) - len(poly_trim(a))
    n, hull = len(a) - 1, []
    for pt in [(k, math.log(abs(c))) for k, c in enumerate(reversed(a)) if c]:
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                                 >= (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])):
            hull.pop()
        hull.append(pt)
    try:
        z = [math.exp((li - lj) / (j - i)) * cmath.exp(2j * math.pi * (m / (j - i) + i / n) + 0.7j)
             for (i, li), (j, lj) in zip(hull, hull[1:]) for m in range(j - i)]
    except OverflowError:
        return None
    last, done = [math.inf] * n, [False] * n
    for _ in range(30):
        for i, zi in enumerate(z):
            if done[i]:
                continue
            p, dp = a[0], 0
            for c in a[1:]:
                p, dp = p * zi + c, dp * zi + p
            s = sum(1 / (zi - zj) for zj in z if zj != zi)
            d = dp - p * s
            w = p / d if p and d else 0
            z[i] = zi - w
            if not cmath.isfinite(z[i]):
                return None
            done[i] = abs(w) <= 1e-13 * abs(zi) or last[i] <= abs(w) <= 1e-6 * abs(zi)
            last[i] = abs(w)
        if all(done):
            break
    return z + [0j] * zeros


def _durand_kerner(hi_to_lo, starts):
    """Durand-Kerner iteration, with mpmath 1.3's polyroots(maxsteps=200,
    extraprec=4 ROOT_DPS) updates, on fixed-point ints (re, im) scaled by
    2^bits, from integer coefficients made monic by one exact rounding and
    complex starts.  Gauss-Seidel sweeps update the roots still moving, in
    order, each by W_i = f(z_i) / prod (z_i - z_j), a factor that is
    exactly zero skipped; a root settles once its step is below t =
    2^(1 - ROOT_PREC).  Once all have settled, one Weierstrass sweep applies
    every W_i computed at the same roots, and the iteration returns after
    such a sweep with every |W_i| < t (a root with a larger one moves on);
    after 200 sweeps in all, NoConvergenceError.  The roots come back
    unsorted, cleaned as polyroots cleans them (a part below t dropped), as
    triples rounded to ROOT_PREC bits.  The sweeps first run on 128-bit
    ints, until every root has settled at 2^-87 or for 200 sweeps.

    The ints hold w = z / 2^k, k <= 0 the least that puts every nonzero
    start at modulus 1/2 or more, so that roots far below 1 keep their
    relative precision; t and the errors below are in w.

    For a monic f of degree n and distinct z_i, every zero lies in a disk
    |w - z_i| <= n |W_i|, and k disks apart from the rest hold k zeros
    (Braess & Hadeler, Numer. Math. 21, 1973).  The last sweep's steps are
    within e_i = 2^(1 - bits) (1 + 2n m_i^(n-1) / P_i) of the exact W_i,
    m_i = max(1, |z_i|), P_i = prod |z_i - z_j|: the monic rounding and
    Horner's truncations put f(z_i) under 2n m_i^(n-1) units off, the
    product keeps 31 bits beyond the fixed point and the division truncates
    by under 2 units.  Stepped, cleaned and rounded, a returned root r lies
    under 2t + t |r| / 2 from its z_i: with its disk apart from the rest,
    within 2^k ((n + 2) t + n e_i) + t |r| of a zero of the integer
    polynomial.  Zeros split off at 0 stay exact, and the other W_i are
    those of f with them divided out."""
    def settle(coeffs, roots, bits, tol, enclose):     # whether the sweeps settled
        moving = range(len(roots))
        for _ in range(200):
            if not (moving or enclose):
                return True
            # Gauss-Seidel over the roots still moving, in place, or, once
            # all have settled, one Weierstrass sweep from a copy of them
            at = roots if moving else list(roots)
            todo, moving = moving or range(len(roots)), []
            for i in todo:
                pr, pi = at[i]
                fr, fi = 1 << bits, 0                # f(p) by Horner
                for c in coeffs:
                    fr, fi = c + ((fr * pr - fi * pi) >> bits), (fr * pi + fi * pr) >> bits
                dr, di, shift = 1, 0, 0              # prod (p - r_j) = (dr + i di) / 2^shift
                for j, (rr, ri) in enumerate(at):
                    ar, ai = pr - rr, pi - ri
                    if j == i or not (ar or ai):
                        continue
                    dr, di, shift = dr * ar - di * ai, dr * ai + di * ar, shift + bits
                    excess = min(max(dr.bit_length(), di.bit_length()) - bits - 32, shift)
                    if excess > 0:
                        dr, di, shift = dr >> excess, di >> excess, shift - excess
                den = dr * dr + di * di
                xr = ((fr * dr + fi * di) << shift) // den
                xi = ((fi * dr - fr * di) << shift) // den
                roots[i] = (pr - xr, pi - xi)
                if xr * xr + xi * xi >= tol * tol:
                    moving.append(i)
            if at is not roots and not moving:
                return True
        return False

    def fixed(x, bits):                        # x * 2^bits, exact for these starts
        n, d = x.as_integer_ratio()
        return _div_round(n << bits, d)

    bits = ROOT_PREC + 4 * ROOT_DPS
    tol = 1 << (4 * ROOT_DPS + 1)      # t, scaled
    starts = [complex(z) for z in starts]
    k = min(0, math.frexp(min((abs(z) for z in starts if z), default=1.0))[1])
    sign, lead = (1 if hi_to_lo[0] > 0 else -1), abs(hi_to_lo[0])
    coeffs = [_div_round(sign * c << (bits - k * i), lead)
              for i, c in enumerate(hi_to_lo[1:], 1)]
    roots = [(fixed(z.real, 128 - k), fixed(z.imag, 128 - k)) for z in starts]
    settle([c >> (bits - 128) for c in coeffs], roots, 128, 1 << 41, False)
    roots = [(rr << (bits - 128), ri << (bits - 128)) for rr, ri in roots]
    if not settle(coeffs, roots, bits, tol, True):
        raise NoConvergenceError("Didn't converge in maxsteps=200 steps.")
    out = []
    for rr, ri in roots:
        if rr * rr + ri * ri < tol * tol:
            rr = ri = 0
        elif abs(ri) < tol:
            ri = 0
        elif abs(rr) < tol:
            rr = 0
        out.append((_round(rr, ROOT_PREC), _round(ri, ROOT_PREC), bits - k))
    return out


def _poly_roots(coeffs):
    """All complex roots of an integer polynomial (ascending powers), as
    (re, im, shift) triples on one grain, sorted by :func:`_root_key`.

    :func:`_durand_kerner` starts from the :func:`_float_seed` roots (a few
    sweeps, not dozens), else from polyroots' own (0.4+0.9i)^n; its roots
    agree with mpmath.polyroots' from the same starts within 1e-40, given
    polyroots the coefficients beyond its working precision, and lie closer
    to the exact roots than polyroots' for roots far below 1.  Each lies
    within the kernel's bound of a zero."""
    coeffs = poly_trim(coeffs)
    if len(coeffs) <= 1:
        return []
    hi_to_lo = coeffs[::-1]
    starts = _float_seed(hi_to_lo) or [(0.4 + 0.9j) ** n for n in range(len(coeffs) - 1)]
    return sorted(_durand_kerner(hi_to_lo, starts), key=_root_key)


def discriminant_roots(h: QuadHermitePade):
    """Complex zeros of the discriminant (empty for constant ones), as
    :func:`_poly_roots` triples.  The fit may be integer-scaled: a common
    factor of P, Q and R moves no zero."""
    return _poly_roots(_sum_over([(1, h.Q, h.Q), (-4, h.P, h.R)])[0])


def pade_poles(p: PadeApprox):
    """Complex zeros of the denominator Q, as :func:`_poly_roots` triples;
    Q may be integer-scaled."""
    return _poly_roots(over_lcm(p.Q)[0])


# ---------------------------------------------------------------------------
# stable-singularity tracking

# (k, depth): the fits' A_0 + ... + A_k f^k, and default_orders' depth
_FAMILY = {FAMILY_PADE: (1, 5), FAMILY_HERMITE_PADE: (2, 3)}


def _family(family):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return _FAMILY[family]


@dataclass(frozen=True)
class SingularityEstimate:
    location: complex
    radius: float
    stability_spread: float
    orders: tuple
    trail: tuple   # matched location at each order


def _chain_fits(series: PowerSeries, family: str, orders):
    """{m: fit} for the diagonal orders one elimination solves, each fit
    integer-scaled: Pade's Q is the null vector's q entries, its P left
    out (None) since no root reads it; Hermite-Pade's P and Q are its
    entries and R = -(P f^2 + Q f) through z^m, all three times the
    denominator that puts R on integers.  A common factor moves no root.

    With the unknowns ordered (q_m, ..., q_0) for Pade and (p_m, q_m, ...,
    p_0, q_0) for Hermite-Pade, the order-m matching system is the leading
    m x (m+1), resp. (2m+1) x (2m+2), block of the order-(m+1) one, so one
    :func:`rational_rref` pass without row exchanges on the top order's
    system echelons every order's.  An order whose block keeps nonzero
    pivots on the diagonal has a one-dimensional null space, read with
    q_0 free by :func:`_leading_null_vector`: the vector :func:`pade_fit`
    and :func:`hermite_pade_fit` read from the same elimination with row
    exchanges, so each fit here is a multiple of theirs.  Orders
    whose block needs a row exchange, and orders the series is too short
    for, are left to those fits, which report blocked and degenerate
    entries as before."""
    k = _family(family)[0]

    def size(m):          # the rows of order m's block, at z^(m+1) .. z^(m+size)
        return k * (m + 1) - 1

    top = max((m for m in orders if 0 <= m and m + 1 + size(m) <= len(series)),
              default=None)
    if top is None:
        return {}
    n = top + 1 + size(top)
    powers = _powers(series.coeffs, n, k)
    work = [[fe[j - i] for i in reversed(range(top + 1)) for fe in reversed(powers)]
            for j in range(top + 1, n)]
    rank = len(rational_rref(work, exchange=False))
    fits = {}
    for m in orders:
        if 0 <= m <= top and size(m) <= rank:
            x = _leading_null_vector(work, size(m))[::-1]   # q_0 first
            if k == 1:
                fits[m] = PadeApprox(None, tuple(x))
                continue
            g = math.gcd(*x)          # the content, a third of the bits Q^2 - 4PR multiplies
            p, q = [v // g for v in x[1::2]], [v // g for v in x[::2]]
            r, den = _sum_over([(-1, p, powers[1][:m + 1]), (-1, q, powers[0][:m + 1])], m + 1)
            fits[m] = QuadHermitePade(tuple(den * v for v in p), tuple(den * v for v in q),
                                      tuple(r))
    return fits


# measured near-double discriminant zeros lie at most 6e-4 apart (relative)
CLUSTER_RHO = 1e-3


def _odd_clusters(roots):
    """The odd clusters of the zeros, one candidate each (the zero when
    alone, else the mean), sorted by :func:`_root_key`.  Zeros within
    CLUSTER_RHO of each other, relative to the larger modulus, cluster
    (single linkage).  sqrt(D) changes sign around a cluster exactly when
    D's winding number there is odd, so an even cluster is no branch point."""
    zs = [_to_complex(r) for r in roots]
    clusters = []
    for i, z in enumerate(zs):
        near = [c for c in clusters
                if any(abs(z - zs[j]) <= CLUSTER_RHO * max(abs(z), abs(zs[j])) for j in c)]
        clusters = [c for c in clusters if c not in near] + [[i] + [j for c in near for j in c]]
    return sorted((roots[c[0]] if len(c) == 1 else _mean([roots[j] for j in c])
                   for c in clusters if len(c) % 2), key=_root_key)


def _nearest(roots, near, prev):
    """The first of the roots at the least :func:`_distance` from prev,
    ``near`` their doubles.  A distance between doubles errs from
    :func:`_distance` by less than 2^-50 (|z| + |prev| + |z - prev|), so
    only the roots that margin leaves within reach of the least are
    measured exactly."""
    p = _to_complex(prev)
    est = [(abs(z - p), 2 ** -50 * (abs(z) + abs(p) + abs(z - p))) for z in near]
    reach = min(d + e for d, e in est)
    return min((r for r, (d, e) in zip(roots, est) if d - e <= reach),
               key=partial(_distance, prev))


def _candidate_roots(series: PowerSeries, family: str, m: int, fit):
    """Roots of the order-m fit (``fit`` when the chain gave one, else the
    per-order fit), for Hermite-Pade in odd clusters."""
    if family == FAMILY_PADE:
        return pade_poles(fit or pade_fit(series, m, m))
    return _odd_clusters(discriminant_roots(fit or hermite_pade_fit(series, m, m, m)))


def default_orders(family: str, n_coeffs: int):
    """The top diagonal orders n_coeffs coefficients support: the last
    five for Pade, the last three for Hermite-Pade.  An order-m fit needs
    (k+1) m + k coefficients, 2m+1 for Pade and 3m+2 for Hermite-Pade."""
    k, depth = _family(family)
    top = (n_coeffs - k) // (k + 1)
    if top < 1:
        raise ValueError("insufficient coefficients for any diagonal order")
    return tuple(range(max(1, top - depth + 1), top + 1))


def _check_threshold(threshold):
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold!r}")


def stable_singularity(series: PowerSeries, family: str,
                       order_list: Optional[Sequence[int]] = None,
                       threshold: float = 1e-2) -> SingularityEstimate:
    """Track singularity candidates across approximant orders and return
    the stable one closest to the origin.

    The orders default to :func:`default_orders` for the series length.
    Roots of consecutive orders are matched by nearest neighbor; a chain
    is stable when its maximum pairwise distance, relative to the final
    location, is at most ``threshold``.  The reported location comes
    from the highest order, and ``trail`` holds the chain's root at each
    order used.  Orders whose fit is degenerate are skipped (at least
    two must survive).  A threshold that is not finite and positive, or
    an order that is not an int, is a ValueError."""
    _check_threshold(threshold)
    if order_list is None:
        order_list = default_orders(family, len(series))
    orders = list(order_list)
    for m in orders:
        if isinstance(m, bool) or not isinstance(m, int):
            raise ValueError(f"approximant order must be an int, got {m!r}")
    orders = sorted(set(orders))
    if len(orders) < 2:
        raise ValueError("need at least two approximant orders")
    chain = _chain_fits(series, family, orders)
    per_order = []
    used = []
    for m in orders:
        try:
            roots = _candidate_roots(series, family, m, chain.get(m))
        except DegenerateApproximantError:
            continue
        if roots:
            per_order.append(roots)
            used.append(m)
    if len(per_order) < 2:
        raise NoStableRootError(
            f"{family}: fewer than two usable approximant orders")
    chains = [[r] for r in per_order[0]]
    for roots in per_order[1:]:
        near = [_to_complex(r) for r in roots]
        for chain in chains:
            chain.append(_nearest(roots, near, chain[-1]))
    best = None
    for chain in chains:
        loc = chain[-1]
        radius = _modulus(*loc)
        spread = max(_distance(a, b) for a, b in combinations(chain, 2)) / (radius or 1.0)
        if spread > threshold:
            continue
        z = _to_complex(loc)
        cand = (radius, -z.real, abs(z.imag))
        if best is None or cand < best[0]:
            best = (cand, z, spread, chain)
    if best is None:
        raise NoStableRootError(
            f"{family}: no root chain stayed within spread {threshold}")
    (radius, _, _), z, spread, chain = best
    return SingularityEstimate(location=z, radius=radius, stability_spread=spread,
                               orders=tuple(used), trail=tuple(map(_to_complex, chain)))


# ---------------------------------------------------------------------------
# the r_c(alpha) scan

@dataclass
class ScanRow:
    alpha: object
    estimates: dict = field(default_factory=dict)   # {family: SingularityEstimate}
    error: Optional[str] = None


def _scan_row(alpha, max_order, families, threshold):
    """One row of :func:`radius_scan`: the engine run and each family's
    estimate at one alpha."""
    from . import engine
    row = ScanRow(alpha=QQ(alpha))
    try:
        ser = engine.run(max_order, QQ(alpha), GAUGE_SIMPLIFIED_XI)
        ps = series_from_engine(ser)
        errors = []
        for family in families:
            try:
                row.estimates[family] = stable_singularity(
                    ps, family, threshold=threshold)
            except ESTIMATE_ERRORS as exc:
                msg = str(exc)
                errors.append(msg if msg.startswith(family) else f"{family}: {msg}")
        if errors:
            row.error = "; ".join(errors)
    except ESTIMATE_ERRORS as exc:
        row.error = str(exc)
    return row


def radius_scan(alpha_grid: Iterable, max_order: int,
                families: Sequence[str] = FAMILIES,
                threshold: float = SCAN_THRESHOLD) -> list:
    """One engine run per alpha, then a stable-singularity estimate, at
    the default orders, per family.  A row keeps the whole estimate of
    each family that succeeded, chain trail included.  Failures of the
    ESTIMATE_ERRORS types are recorded in the row, prefixed by the family
    when a family's estimate fails, and the scan continues with the next
    family or alpha; any other exception is a bug and propagates.

    The alphas are independent, so they run in forked workers, one per CPU
    this process may use (``os.sched_getaffinity``) and at most one per
    alpha, rows in input order; with one usable CPU or one alpha, or off
    Linux (no ``os.sched_getaffinity``: forking is not safe there), the scan
    runs in this process.  Workers inherit the package, patches included;
    nothing a row runs loads numpy, so the scan starts no thread before it
    forks.  The pool is joined before the scan returns or raises.

    The scan threshold is looser than stable_singularity's own: a scan
    wants a filled table over alphas of uneven convergence, and the
    spread columns show how far to trust each entry; at order 44 the
    Pade chains still drift a few percent per order, so the strict
    default would blank most rows.  A threshold that is not finite and
    positive is a ValueError, raised before any run rather than recorded
    in every row, and so is a family not in FAMILIES."""
    _check_threshold(threshold)
    for family in families:
        _family(family)
    alphas = list(alpha_grid)
    row_of = partial(_scan_row, max_order=max_order, families=families,
                     threshold=threshold)
    affinity = getattr(os, "sched_getaffinity", None)
    jobs = min(len(alphas), len(affinity(0))) if affinity else 1
    if jobs < 2:
        return [row_of(alpha) for alpha in alphas]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(row_of, alphas))
