"""Convergence-radius machinery for the frequency series.

The normalized series is omega/sqrt(alpha) = 1 + sum_j d_j z^j in the
variable z = a^2; every d_j is an exact rational once alpha is rational.
Pade approximants P_K/Q_L match the series through z^(K+L); quadratic
Hermite-Pade triples (P_K, Q_L, R_M) satisfy P f^2 + Q f + R = O(z^(K+L+M+2)).
Both fits follow one rule: the polynomial that enters the matching
equations alone and with unit coefficient (P for Pade, R for Hermite-Pade)
is absent from the equations above its degree, so the other polynomials
come from the null space of those upper equations only, and the dropped
one is the truncated convolution of the lower ones.
Singularity locations come from denominator zeros (Pade) or discriminant
zeros Q^2 - 4PR (Hermite-Pade), tracked across approximant orders until
they stabilize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import mpmath
import numpy as np

from .algebra import QQ, alpha_polynomial, ring_alpha
from .engine import GAUGE_SIMPLIFIED_XI, PerturbationSeries


class DegenerateApproximantError(ArithmeticError):
    """Blocked Pade entry with Q(0) = 0, or a Hermite-Pade matching
    system whose null space is not one-dimensional."""


class NoStableRootError(ArithmeticError):
    """No singularity candidate persisted across approximant orders."""


# what a failed radius estimate raises: degenerate or unstable fits and
# divisions by zero (ArithmeticError), bad series or orders (ValueError),
# and root iterations that did not converge
ESTIMATE_ERRORS = (ArithmeticError, ValueError, mpmath.libmp.NoConvergence)

# decimal digits at which every polynomial root is polished and certified
ROOT_DPS = 60


# ---------------------------------------------------------------------------
# small exact-polynomial kit (coefficient lists, ascending powers)

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [QQ(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_sub(p, q):
    out = [QQ(0)] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] -= b
    return poly_trim(out)


def poly_scale(p, c):
    return poly_trim([a * c for a in p])


def poly_divmod(p, q):
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [QQ(0)] * max(0, len(rem) - len(q) + 1)
    inv_lead = 1 / QQ(q[-1])
    for k in range(len(rem) - len(q), -1, -1):
        c = rem[k + len(q) - 1] * inv_lead
        if c == 0:
            continue
        quot[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(p, q):
    a, b = poly_trim(p), poly_trim(q)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not a:
        return []
    return poly_scale(a, 1 / QQ(a[-1]))  # monic


def poly_eval_mp(p, z):
    total = mpmath.mpc(0)
    for c in reversed(p):
        total = total * z + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
    return total


# ---------------------------------------------------------------------------
# exact linear algebra: Gauss-Jordan over rationals

def _primitive(row):
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _integer_row(row):
    """The row scaled by the lcm of its denominators, divided by the gcd
    of the resulting integers."""
    qs = [QQ(v) for v in row]
    den = math.lcm(*(int(q.denominator) for q in qs))
    return _primitive([int(q.numerator) * (den // int(q.denominator)) for q in qs])


def rational_rref(rows):
    """In-place reduced row echelon form; returns pivot column list.

    The elimination runs fraction-free on integer rows: a row is cleared
    by cross-multiplying it with the pivot row and dividing the result by
    the gcd of its entries.  Each rational is built once, at the end, as
    entry / pivot of its row; the reduced form is unique, so this is the
    same matrix as rational Gauss-Jordan gives."""
    if not rows:
        return []
    work = [_integer_row(row) for row in rows]
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        p = prow[c]
        for i, row in enumerate(work):
            f = row[c]
            if i != r and f:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                work[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    for i, row in enumerate(work):
        d = row[pivots[i]] if i < r else 1
        rows[i] = [QQ(v, d) for v in row]
    return pivots


def null_space(rows, ncols):
    """Basis of the null space of the (dense, rational) matrix."""
    work = [list(row) for row in rows if any(v != 0 for v in row)]
    if not work:
        return [[QQ(1) if i == j else QQ(0) for i in range(ncols)]
                for j in range(ncols)]
    pivots = rational_rref(work)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [QQ(0)] * ncols
        v[fc] = QQ(1)
        for r, pc in enumerate(pivots):
            v[pc] = -work[r][fc]
        basis.append(v)
    return basis


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
    if series.gauge == "zero-initial":
        raise ValueError("frequency series requires a phase-free gauge")
    ring = series.coeff_ring
    n_max = series.order
    a_val = ring_alpha(ring, alpha)
    coeffs = []
    for j in range(0, n_max // 2 + 1):
        if 2 * j + 1 <= n_max and not ring.is_zero(series.orders[2 * j + 1].omega):
            raise ArithmeticError(f"odd-order frequency omega_{2*j+1} is nonzero")
        w = series.orders[2 * j].omega
        ratio = ring.div(w, ring.s(1))
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
# Pade

@dataclass(frozen=True)
class PadeApprox:
    P: tuple
    Q: tuple   # Q[0] = 1


def _dot(row, vec):
    return sum((a * b for a, b in zip(row, vec) if a), QQ(0))


def pade_fit(series: PowerSeries, K: int, L: int) -> PadeApprox:
    """[K/L] Pade approximant, exact: P/Q matches the series through
    z^(K+L) with Q(0) = 1.

    P enters f Q - P = O(z^(K+L+1)) with unit coefficient and not at all
    above z^K, so Q spans the null space of the L equations at z^(K+1) ..
    z^(K+L), in columns (q_1, ..., q_L, q_0), and P is f Q truncated at
    z^K.  A regular entry has a one-dimensional null space with q_0 free:
    q_1..q_L solve the Toeplitz system, and Q keeps all L+1 entries.  A
    blocked entry has more solutions, which all represent the same
    fraction; it is reduced by the gcd of P and Q.  An entry that forces
    Q(0) = 0 is reported for the caller to perturb (K, L)."""
    if K < 0 or L < 0:
        raise ValueError("degrees must be nonnegative")
    c = series.coeffs
    need = K + L + 1
    if len(c) < need:
        raise ValueError(f"insufficient coefficients: need {need}, have {len(c)}")

    def row(j):   # z^j coefficient of f Q, by column
        return [c[j - i] if i <= j else QQ(0) for i in range(1, L + 1)] + [c[j]]

    basis = null_space([row(j) for j in range(K + 1, K + L + 1)], L + 1)
    vec = basis[-1]   # the only candidate with q_0 != 0: q_0 is the last column
    if vec[L] == 0:
        raise DegenerateApproximantError(
            f"[{K}/{L}] entry is blocked with Q(0) = 0; perturb the degrees")
    q = [vec[L]] + vec[:L]
    p = poly_trim([_dot(row(j), vec) for j in range(K + 1)])
    if len(basis) == 1:
        return PadeApprox(tuple(p), tuple(q))
    g = poly_gcd(p, q)
    p, _ = poly_divmod(p, g)
    q, _ = poly_divmod(q, g)
    inv = 1 / q[0]
    return PadeApprox(tuple(poly_scale(p, inv)), tuple(poly_scale(q, inv)))


# ---------------------------------------------------------------------------
# quadratic Hermite-Pade

@dataclass(frozen=True)
class QuadHermitePade:
    P: tuple
    Q: tuple
    R: tuple


def hermite_pade_fit(series: PowerSeries, K: int, L: int, M: int) -> QuadHermitePade:
    """Exact (P_K, Q_L, R_M) with P f^2 + Q f + R = O(z^(K+L+M+2)).

    R enters the matching equations with unit coefficient and not at all
    above z^M, so (p_0..p_K, q_0..q_L) spans the null space of the K+L+1
    equations at z^(M+1) .. z^(K+L+M+1), and R = -(P f^2 + Q f) through
    z^M.  A nontrivial solution always exists; its first nonzero
    coefficient in (p_0..p_K, q_0..q_L) order is scaled to 1.  A null
    space of dimension above one is reported as degenerate."""
    if min(K, L, M) < 0:
        raise ValueError("degrees must be nonnegative")
    c = series.coeffs
    n_eq = K + L + M + 2
    if len(c) < n_eq:
        raise ValueError(f"insufficient coefficients: need {n_eq}, have {len(c)}")

    sq = [QQ(0)] * n_eq   # coefficients of f^2 through z^(n_eq - 1)
    for i in range(n_eq):
        if c[i] == 0:
            continue
        for j in range(n_eq - i):
            sq[i + j] += c[i] * c[j]

    def row(j):   # z^j coefficient of P f^2 + Q f, by column
        return ([sq[j - i] if i <= j else QQ(0) for i in range(K + 1)]
                + [c[j - i] if i <= j else QQ(0) for i in range(L + 1)])

    basis = null_space([row(j) for j in range(M + 1, n_eq)], K + L + 2)
    if len(basis) != 1:
        raise DegenerateApproximantError(
            f"f[{K},{L},{M}] matching system has a {len(basis)}-dimensional "
            "null space")
    vec = basis[0]
    lead = next(v for v in vec if v != 0)
    vec = [v / lead for v in vec]
    r = [-_dot(row(j), vec) for j in range(M + 1)]
    return QuadHermitePade(tuple(poly_trim(vec[:K + 1])),
                           tuple(poly_trim(vec[K + 1:])),
                           tuple(poly_trim(r)))


def discriminant(h: QuadHermitePade):
    """Q^2 - 4 P R as an exact coefficient list."""
    return poly_sub(poly_mul(list(h.Q), list(h.Q)),
                    poly_scale(poly_mul(list(h.P), list(h.R)), QQ(4)))


def _root_key(z):
    return (abs(z), -z.real, abs(z.imag), z.imag)


def _float_seed(hi_to_lo):
    """Double-precision roots (companion-matrix eigenvalues) of the
    polynomial, as starting points for the high-precision iteration; None
    when the coefficients or the roots do not fit in floats."""
    with np.errstate(all="ignore"):
        coeffs = np.array([float(v) for v in hi_to_lo])
        if not np.all(np.isfinite(coeffs)):
            return None
        try:
            seed = np.roots(coeffs)
        except np.linalg.LinAlgError:
            return None
    if len(seed) != len(hi_to_lo) - 1 or not np.all(np.isfinite(seed)):
        return None
    return [mpmath.mpc(complex(z)) for z in seed]


def _poly_roots_mp(coeffs):
    """All complex roots of an exact polynomial, as mpc values sorted by
    modulus (conjugate pairs: negative imaginary part first).

    Durand-Kerner starts from the double-precision roots, so it needs a
    few sweeps instead of dozens; precision, step limit and the residual
    certificate are those of an unseeded start."""
    coeffs = poly_trim(coeffs)
    if len(coeffs) <= 1:
        return []
    with mpmath.workdps(ROOT_DPS):
        hi_to_lo = [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                    for c in reversed(coeffs)]
        roots = mpmath.polyroots(hi_to_lo, maxsteps=200, extraprec=4 * ROOT_DPS,
                                 roots_init=_float_seed(hi_to_lo))
        norm = max(abs(v) for v in hi_to_lo)
        for r in roots:
            res = abs(poly_eval_mp(coeffs, r))
            scale = norm * max(1, abs(r)) ** (len(coeffs) - 1)
            if res > mpmath.mpf(10) ** (-ROOT_DPS // 2) * scale:
                raise ArithmeticError("root refinement did not converge")
        return sorted((mpmath.mpc(r) for r in roots), key=_root_key)


def discriminant_roots(h: QuadHermitePade):
    """Complex zeros of the discriminant (empty for constant ones)."""
    return _poly_roots_mp(discriminant(h))


def pade_poles(p: PadeApprox):
    return _poly_roots_mp(list(p.Q))


# ---------------------------------------------------------------------------
# stable-singularity tracking

FAMILY_PADE = "pade"
FAMILY_HERMITE_PADE = "hermite-pade"
FAMILIES = (FAMILY_PADE, FAMILY_HERMITE_PADE)


@dataclass(frozen=True)
class SingularityEstimate:
    location: complex
    radius: float
    stability_spread: float
    orders: tuple
    trail: tuple   # matched location at each order


def _candidate_roots(series: PowerSeries, family: str, m: int):
    if family == FAMILY_PADE:
        return pade_poles(pade_fit(series, m, m))
    if family == FAMILY_HERMITE_PADE:
        return discriminant_roots(hermite_pade_fit(series, m, m, m))
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def default_orders(family: str, n_coeffs: int):
    """The top diagonal orders n_coeffs coefficients support: the last
    five for Pade, the last three for Hermite-Pade."""
    if family == FAMILY_PADE:
        top, depth = (n_coeffs - 1) // 2, 5
    elif family == FAMILY_HERMITE_PADE:
        top, depth = (n_coeffs - 2) // 3, 3
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if top < 1:
        raise ValueError("insufficient coefficients for any diagonal order")
    return tuple(range(max(1, top - depth + 1), top + 1))


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
    two must survive)."""
    if order_list is None:
        order_list = default_orders(family, len(series))
    orders = sorted(set(int(m) for m in order_list))
    if len(orders) < 2:
        raise ValueError("need at least two approximant orders")
    per_order = []
    used = []
    for m in orders:
        try:
            roots = _candidate_roots(series, family, m)
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
        for chain in chains:
            prev = chain[-1]
            chain.append(min(roots, key=lambda z: abs(z - prev)))
    best = None
    for chain in chains:
        loc = chain[-1]
        scale = abs(loc) or 1.0
        spread = max(abs(a - b) for a in chain for b in chain) / scale
        if float(spread) > threshold:
            continue
        cand = (abs(loc), -loc.real, abs(loc.imag))
        if best is None or cand < best[0]:
            best = (cand, loc, float(spread), chain)
    if best is None:
        raise NoStableRootError(
            f"{family}: no root chain stayed within spread {threshold}")
    _, loc, spread, chain = best
    return SingularityEstimate(location=complex(loc), radius=float(abs(loc)),
                               stability_spread=spread, orders=tuple(used),
                               trail=tuple(complex(z) for z in chain))


# ---------------------------------------------------------------------------
# the r_c(alpha) scan

# the spread threshold of radius scans, looser than stable_singularity's
# own default (radius_scan says why)
SCAN_THRESHOLD = 5e-2


@dataclass
class ScanRow:
    alpha: object
    estimates: dict = field(default_factory=dict)   # {family: SingularityEstimate}
    error: Optional[str] = None


def radius_scan(alpha_grid: Iterable, max_order: int,
                families: Sequence[str] = FAMILIES,
                threshold: float = SCAN_THRESHOLD, engine_run=None) -> list:
    """One engine run per alpha, then a stable-singularity estimate, at
    the default orders, per family.  A row keeps the whole estimate of
    each family that succeeded, chain trail included.  Failures of the
    ESTIMATE_ERRORS types are recorded in the row, prefixed by the family
    when a family's estimate fails, and the scan continues with the next
    family or alpha; any other exception is a bug and propagates.

    The scan threshold is looser than stable_singularity's own: a scan
    wants a filled table across parameter values of varying convergence
    quality, and the spread columns expose how trustworthy each entry
    is.  At order 44 the Pade chains still drift by a few
    percent per order, so the strict default would blank most rows."""
    from . import engine
    runner = engine_run or (lambda a: engine.run(max_order, a, GAUGE_SIMPLIFIED_XI))
    rows = []
    for alpha in alpha_grid:
        row = ScanRow(alpha=QQ(alpha))
        try:
            ser = runner(QQ(alpha))
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
        rows.append(row)
    return rows
