"""Exact coefficient arithmetic for perturbation expansions of the
Lotka-Volterra cycle.

Every operation in this module is exact, on ``fractions.Fraction``
rationals (:func:`QQ` coerces to them).  Every phase-free coefficient has
one form, a dict ``{exponent of s: rational}`` with ``s = sqrt(alpha)``
and no zero values, in one of two rings:

* the symbolic ring, Laurent polynomials in ``s`` (:class:`SymbolicRing`);
* the numeric ring for a fixed positive rational ``alpha``
  (:class:`NumericRing`), whose elements are reduced after every product
  to exponent 0 when ``sqrt(alpha)`` is rational and to exponents 0 and 1
  (``u + v*sqrt(alpha)``) otherwise.

Both share one method protocol (``add``, ``mul``, ``scale``,
``is_zero``, ...), so the trig-series layer, formatting and evaluation
read every element the same way.  The integer kernels of the
trig-series layer work on integer numerators ``{exponent of s: n}``
over one denominator; ``folding`` gives the integer weights that fold
them onto the kept exponents (``s^2 = alpha`` in a numeric ring), so a
zero test needs no rational and a coefficient needs one per kept
exponent.  Solutions pinned to explicit initial conditions extend either
ring by trigonometric polynomials in the phase angle ``phi``; that
extension (:class:`lpvolterra.trigpoly.PhaseRing`, marked by
``has_phase``) lives in :mod:`lpvolterra.trigpoly`, and its elements are
``TrigPoly`` objects with a ``const`` term and ``sin``/``cos`` dicts.
:func:`format_element` writes the canonical string of an element (``^``
is a power); no command reads one back, and the ``string-values`` check
proves each string equal to its element by exact evaluation.
:func:`evaluate_numeric` evaluates any element with mpmath at configurable
precision (default 50 significant digits).
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# rational scalars

def QQ(num=0, den=None):
    """Coerce to an exact rational."""
    if den is not None:
        return Fraction(num, den)
    if isinstance(num, Fraction):
        return num
    return Fraction(num)


_Q0 = QQ(0)
_Q1 = QQ(1)


def to_mpf(q):
    """Exact rational -> mpf at the current mpmath precision."""
    import mpmath
    return mpmath.mpf(int(q.numerator)) / mpmath.mpf(int(q.denominator))


def over_lcm(values):
    """(ints, den) with values = ints / den, den the lcm of the denominators."""
    qs = [QQ(v) for v in values]
    den = math.lcm(*[q.denominator for q in qs])
    return [q.numerator * (den // q.denominator) for q in qs], den


def rational_sqrt(q):
    """Square root of a nonnegative rational, or None if irrational."""
    q = QQ(q)
    n, d = int(q.numerator), int(q.denominator)
    if n < 0:
        raise ValueError("negative radicand")
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return QQ(rn, rd)
    return None


# ---------------------------------------------------------------------------
# symbolic ring: Laurent polynomials in s = sqrt(alpha)

class SymbolicRing:
    """Laurent polynomials in s = sqrt(alpha), held as {exponent: rational}.

    Exponent k stands for s**k = alpha**(k/2); negative exponents carry the
    1/sqrt(alpha) factors that the dynamical matrix introduces.  Elements
    are plain dicts with no zero values (canonical form) and are treated as
    immutable.
    """

    has_phase = False
    alpha = None

    def zero(self):
        return {}

    def one(self):
        return {0: _Q1}

    def s(self, k: int = 1):
        return {k: _Q1}

    def from_fraction(self, q):
        q = QQ(q)
        return {0: q} if q else {}

    def is_zero(self, x) -> bool:
        return not x

    def eq(self, x, y) -> bool:
        return x == y

    def add(self, x, y):
        out = dict(x)
        for k, v in y.items():
            w = out.get(k, _Q0) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return out

    def neg(self, x):
        return {k: -v for k, v in x.items()}

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if not x or not y:
            return {}
        out = {}
        for kx, vx in x.items():
            for ky, vy in y.items():
                k = kx + ky
                w = out.get(k, _Q0) + vx * vy
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
        return out

    def scale(self, x, q):
        q = QQ(q)
        if not q:
            return {}
        return {k: v * q for k, v in x.items()}

    def folding(self, lo, hi):
        """(rule, f, g) with s^e = (f/g) w s^r for every e in [lo, hi],
        where (r, w) = rule[e] and w, f, g are integers: integer
        numerators fold onto the exponents the ring keeps before any
        rational is built.  The symbolic ring keeps every exponent."""
        return {e: (e, 1) for e in range(lo, hi + 1)}, 1, 1


SYMBOLIC = SymbolicRing()


def alpha_polynomial(x):
    """View a symbolic element as a polynomial in alpha.

    Returns ``{m: q}`` with x = sum q * alpha**m, or None if any exponent
    of sqrt(alpha) is odd or negative.
    """
    if any(k < 0 or k % 2 for k in x):
        return None
    return {k // 2: v for k, v in x.items()}


# ---------------------------------------------------------------------------
# numeric ring for fixed rational alpha

class NumericRing(SymbolicRing):
    """Q(sqrt(alpha)) for a fixed positive rational alpha, in the symbolic
    form reduced by s^e = b^(e // m) * s^(e % m).

    (m, b) is (1, root) when sqrt(alpha) is rational and (2, alpha)
    otherwise, so an element keeps only exponent 0, or exponents 0 and 1;
    zero testing stays exact because 1 and an irrational sqrt(alpha) are
    linearly independent over Q.
    """

    def __init__(self, alpha):
        self.alpha = QQ(alpha)
        root = rational_sqrt(self.alpha)
        self.m, self.b = (2, self.alpha) if root is None else (1, root)
        self.kept = frozenset(range(self.m))
        self._spans: dict = {}

    def reduce(self, x):
        # most products are already reduced; rebuilding them anyway costs
        # a small numeric run plus its evaluation about 15% more time
        if x.keys() <= self.kept:
            return x
        out = {}
        for e, v in x.items():
            q, r = divmod(e, self.m)
            w = out.get(r, _Q0) + v * self.b ** q
            if w:
                out[r] = w
            else:
                out.pop(r, None)
        return out

    def folding(self, lo, hi):
        # s^e = b^k s^r with (k, r) = divmod(e, m); over k in [klo, khi] and
        # b = p/q, b^k = (p^klo / q^khi) p^(k - klo) q^(khi - k), an integer
        # weight; the few exponent spans of a run recur, so each is kept
        got = self._spans.get((lo, hi))
        if got is None:
            m = self.m
            p, q = self.b.numerator, self.b.denominator
            klo, khi = lo // m, hi // m
            rule = {e: (e % m, p ** (e // m - klo) * q ** (khi - e // m))
                    for e in range(lo, hi + 1)}
            got = (rule, p ** max(klo, 0) * q ** max(-khi, 0),
                   q ** max(khi, 0) * p ** max(-klo, 0))
            self._spans[lo, hi] = got
        return got

    def s(self, k: int = 1):
        return self.reduce({k: _Q1})

    def mul(self, x, y):
        return self.reduce(super().mul(x, y))


def numeric_ring(alpha):
    """Exact coefficient ring for a fixed positive rational alpha."""
    q = QQ(alpha)
    if q <= 0:
        raise ValueError("alpha must be positive")
    return NumericRing(q)


# ---------------------------------------------------------------------------
# canonical string form

def _spow_factors(k: int) -> list[str]:
    """Factor strings for s**k, k >= 0 (s**2 = alpha)."""
    half, odd = divmod(k, 2)
    out = []
    if half == 1:
        out.append("alpha")
    elif half > 1:
        out.append(f"alpha^{half}")
    if odd:
        out.append("sqrt(alpha)")
    return out


def _poly_string(p: dict) -> str:
    """Integer-coefficient s-polynomial, descending exponents."""
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        mag = abs(c)
        factors = _spow_factors(e)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        text = "*".join(factors)
        if not parts:
            parts.append(("-" if c < 0 else "") + text)
        else:
            parts.append(("-" if c < 0 else "+") + text)
    return "".join(parts)


def _fmt_ints(ints: dict, den: int, amp_power: int = 0, trig: str | None = None) -> str:
    """The canonical string of A^amp_power (sum_e ints[e] s^e / den) trig,
    for nonzero integers keyed by exponent: the one formatting core, which
    dicts reach through :func:`over_lcm` and integer forms through their
    rows (``lpvolterra.trigpoly._rows``)."""
    if not ints:
        return "0"
    sign = -1 if ints[max(ints)] < 0 else 1
    # content = sign * num_gcd / den, put in lowest terms
    num_gcd = math.gcd(*ints.values())
    shift = min(ints)
    prim = {k - shift: n // (sign * num_gcd) for k, n in ints.items()}
    common = math.gcd(num_gcd, den)
    num_gcd, den = num_gcd // common, den // common

    num_factors = []
    if amp_power == 1:
        num_factors.append("A")
    elif amp_power > 1:
        num_factors.append(f"A^{amp_power}")
    if num_gcd != 1:
        num_factors.append(str(num_gcd))
    if shift > 0:
        num_factors.extend(_spow_factors(shift))
    if prim != {0: 1}:
        num_factors.append(f"({_poly_string(prim)})")
    if trig is not None:
        num_factors.append(trig)

    den_factors = []
    if den != 1:
        den_factors.append(str(den))
    if shift < 0:
        den_factors.extend(_spow_factors(-shift))

    num = "*".join(num_factors) if num_factors else "1"
    if den_factors and len(num_factors) > 1:
        num = f"({num})"
    out = num
    if den_factors:
        out += "/" + (den_factors[0] if len(den_factors) == 1
                      else "(" + "*".join(den_factors) + ")")
    return ("-" if sign < 0 else "") + out


def _fmt_phase(sin: dict, cos: dict, den: int, amp_power: int = 0) -> str:
    """The canonical string of a phase-ring element given as the integer
    rows {k: {exponent: n}} over ``den`` of its sin(k phi) and cos(k phi)
    coefficients, cos[0] its constant term."""
    pieces = [(cos[0], None)] if 0 in cos else []
    for k in sorted((set(sin) | set(cos)) - {0}):
        arg = "phi" if k == 1 else f"{k}*phi"
        pieces += [(rows[k], f"{name}({arg})")
                   for name, rows in (("sin", sin), ("cos", cos)) if k in rows]
    if len(pieces) < 2:
        row, trig = pieces[0] if pieces else ({}, None)
        return _fmt_ints(row, den, amp_power, trig)
    parts = [_fmt_ints(row, den, trig=trig) for row, trig in pieces]
    body = parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])
    if amp_power == 0:
        return body
    return f"{'A' if amp_power == 1 else f'A^{amp_power}'}*({body})"


def format_element(ring, x, amp_power: int = 0) -> str:
    """Canonical string for a ring element.

    ``amp_power`` prefixes the known amplitude factor A**p; it is metadata
    (the engine normalizes the amplitude to 1).  A phase-ring element is
    read off its integer form, with no rational built.
    """
    if ring.has_phase:
        from .trigpoly import _rows, int_form
        coeffs, den = _rows(ring.base, int_form(x))
        return _fmt_phase(*({j: phi[1][0] for (kind, j), phi in coeffs.items() if kind == k}
                            for k in (0, 1)), den, amp_power)
    ints, den = over_lcm(x.values())
    return _fmt_ints(dict(zip(x, ints)), den, amp_power)


# ---------------------------------------------------------------------------
# numeric evaluation

def ring_alpha(ring, alpha=None):
    """The rational alpha at which to evaluate elements of ``ring``:
    required for the symbolic ring, equal to a fixed ring's own alpha
    (the default), and positive.  A phase ring answers for its base."""
    fixed = (ring.base if ring.has_phase else ring).alpha
    if alpha is None:
        if fixed is None:
            raise ValueError("alpha required for the symbolic ring")
        return fixed
    q = QQ(alpha)
    if fixed is not None and q != fixed:
        raise ValueError("alpha disagrees with the ring's fixed alpha")
    if q <= 0:
        raise ValueError("alpha must be positive")
    return q


def evaluate_numeric(ring, x, alpha=None, phi=0, dps: int = 50):
    """Evaluate an element at numeric alpha (and phi) with mpmath.

    Parameters
    ----------
    ring : ring owning ``x``
    x : one element, or a list of them, evaluated in one precision context
    alpha : exact rational value, checked by :func:`ring_alpha`.
    phi : phase angle in radians (used by phase-extended elements).
    dps : decimal digits of working precision.

    Returns an ``mpmath.mpf`` computed at ``dps`` digits, or a list of them.
    """
    import mpmath
    alpha = ring_alpha(ring, alpha)
    with mpmath.workdps(dps):
        s = mpmath.sqrt(to_mpf(alpha))
        p = mpmath.mpf(phi)

        def ev(el):
            return mpmath.fsum(to_mpf(v) * s ** k for k, v in el.items())

        def value(el):
            if not ring.has_phase:
                return ev(el)
            return (ev(el.const)
                    + mpmath.fsum(ev(v) * mpmath.sin(k * p)
                                  for k, v in el.sin.items())
                    + mpmath.fsum(ev(v) * mpmath.cos(k * p)
                                  for k, v in el.cos.items() if k))

        if isinstance(x, list):
            return [value(el) for el in x]
        return value(x)
