"""Trigonometric polynomials in theta = tau + phi and the per-harmonic
solver for the first-order correction system

    W' = K W + R,    K = (1/sqrt(alpha)) [[0, -1], [alpha, 0]].

Coefficients live in any ring from :mod:`lpvolterra.algebra`, or in the
:class:`PhaseRing` defined here.  A TrigPoly holds {harmonic: coefficient}
maps for sin and cos; cos[0] is the constant term.  All values are exact
and treated as immutable.

The same type serves twice.  The zero-initial gauge pins each correction
to an initial condition, so its coefficients depend on the phase phi:
a :class:`PhaseRing` element is itself a TrigPoly, in phi over a
phase-free base ring.  Products go through one fraction-free kernel,
:func:`tp_dot`, over both kinds of ring: a phase-ring operand is written
in angle sums a theta + c phi, each packed as one harmonic, so the same
product-to-sum loop serves both.  It keeps each operand's integer form on
the operand, so every TrigPoly is encoded at most once.  :func:`tp_mul`
is the plain dict product that the self-checks use as an oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebra import QQ, ExactDivisionError


class ResonantForcingError(ValueError):
    """First-harmonic forcing is not absorbable: secular removal was
    skipped (or produced an inconsistent frequency correction)."""


class TrigPoly:
    __slots__ = ("ring", "sin", "cos", "_enc")

    def __init__(self, ring, sin=None, cos=None):
        self.ring = ring
        self.sin = sin or {}
        self.cos = cos or {}
        self._enc = None          # integer form, set by the first tp_dot

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.sin == other.sin and self.cos == other.cos

    __hash__ = None

    def __repr__(self):
        return f"TrigPoly(sin={self.sin!r}, cos={self.cos!r})"

    @property
    def const(self):
        """The constant term cos[0], the ring's zero when absent."""
        return self.cos.get(0, self.ring.zero())


class VectorTrigPoly(NamedTuple):
    xi: TrigPoly
    eta: TrigPoly


def tp_zero(ring) -> TrigPoly:
    return TrigPoly(ring)


def tp_term(ring, kind: str, j: int, coeff) -> TrigPoly:
    if ring.is_zero(coeff):
        return TrigPoly(ring)
    if kind == "sin":
        if j < 1:
            raise ValueError("sin harmonic must be >= 1")
        return TrigPoly(ring, sin={j: coeff})
    if j < 0:
        raise ValueError("cos harmonic must be >= 0")
    return TrigPoly(ring, cos={j: coeff})


def _acc(ring, store: dict, j: int, v) -> None:
    if j in store:
        w = ring.add(store[j], v)
        if ring.is_zero(w):
            del store[j]
        else:
            store[j] = w
    elif not ring.is_zero(v):
        store[j] = v


def tp_add(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    ring = p.ring
    sin = dict(p.sin)
    cos = dict(p.cos)
    for j, v in q.sin.items():
        _acc(ring, sin, j, v)
    for j, v in q.cos.items():
        _acc(ring, cos, j, v)
    return TrigPoly(ring, sin, cos)


def tp_neg(p: TrigPoly) -> TrigPoly:
    ring = p.ring
    return TrigPoly(ring, {j: ring.neg(v) for j, v in p.sin.items()},
                    {j: ring.neg(v) for j, v in p.cos.items()})


def tp_sub(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    return tp_add(p, tp_neg(q))


def tp_scale(p: TrigPoly, q) -> TrigPoly:
    ring = p.ring
    q = QQ(q)
    if not q:
        return TrigPoly(ring)
    return TrigPoly(ring, {j: ring.scale(v, q) for j, v in p.sin.items()},
                    {j: ring.scale(v, q) for j, v in p.cos.items()})


def tp_mul_el(p: TrigPoly, el) -> TrigPoly:
    """Multiply every coefficient by a ring element."""
    ring = p.ring
    if ring.is_zero(el):
        return TrigPoly(ring)
    sin = {}
    cos = {}
    for j, v in p.sin.items():
        w = ring.mul(v, el)
        if not ring.is_zero(w):
            sin[j] = w
    for j, v in p.cos.items():
        w = ring.mul(v, el)
        if not ring.is_zero(w):
            cos[j] = w
    return TrigPoly(ring, sin, cos)


def tp_mul(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """Exact product via product-to-sum reduction on ring elements: the
    dict oracle that the self-checks hold :func:`tp_dot` against."""
    ring = p.ring
    half = QQ(1, 2)
    sin_out: dict = {}
    cos_out: dict = {}

    def acc_sin(j, v):
        if j == 0 or ring.is_zero(v):
            return
        if j < 0:
            j, v = -j, ring.neg(v)
        _acc(ring, sin_out, j, v)

    def acc_cos(j, v):
        if ring.is_zero(v):
            return
        _acc(ring, cos_out, abs(j), v)

    for a, u in p.sin.items():
        for b, v in q.sin.items():
            w = ring.scale(ring.mul(u, v), half)
            acc_cos(a - b, w)           # sin a sin b = [cos(a-b) - cos(a+b)]/2
            acc_cos(a + b, ring.neg(w))
        for b, v in q.cos.items():
            w = ring.scale(ring.mul(u, v), half)
            acc_sin(a + b, w)           # sin a cos b = [sin(a+b) + sin(a-b)]/2
            acc_sin(a - b, w)
    for a, u in p.cos.items():
        for b, v in q.sin.items():
            w = ring.scale(ring.mul(u, v), half)
            acc_sin(a + b, w)           # cos a sin b = [sin(a+b) - sin(a-b)]/2
            acc_sin(a - b, ring.neg(w))
        for b, v in q.cos.items():
            w = ring.scale(ring.mul(u, v), half)
            acc_cos(a - b, w)           # cos a cos b = [cos(a-b) + cos(a+b)]/2
            acc_cos(a + b, w)
    return TrigPoly(ring, sin_out, cos_out)


def _form(p: TrigPoly):
    """p over one denominator d: (d, (theta top, phi top), {s-exponent:
    (sin, cos)}), where sin and cos list the nonzero (a, c, integer
    numerator) terms of sin and cos(a theta + c phi), with a > 0, or a = 0
    and c >= 0.  A phase-free p has c = 0 throughout.  Over the phase ring
    each term sin|cos(a theta) sin|cos(c phi) splits into the angle sums
    (a, c) and (a, -c), both over 2d."""
    terms = []
    den = 1
    enc: dict = {}
    if not p.ring.has_phase:
        for kind, store in enumerate((p.sin, p.cos)):
            for j, v in store.items():
                for e, q in v.items():
                    n, d = int(q.numerator), int(q.denominator)
                    terms.append((e, kind, j, n, d))
                    den = math.lcm(den, d)
        for e, kind, j, n, d in terms:
            enc.setdefault(e, ([], []))[kind].append((j, 0, n * (den // d)))
        return den, (max_harmonic(p), 0), enc
    phi_top = 0
    for t_kind, store in enumerate((p.sin, p.cos)):
        for a, x in store.items():
            phi_top = max(phi_top, max_harmonic(x))
            for f_kind, inner in enumerate((x.sin, x.cos)):
                for c, v in inner.items():
                    for e, q in v.items():
                        n, d = int(q.numerator), int(q.denominator)
                        terms.append((e, t_kind, f_kind, a, c, n, d))
                        den = math.lcm(den, d)
    sums: dict = {}       # {(s-exponent, kind, a, c): numerator over 2 den}
    for e, t_kind, f_kind, a, c, n, d in terms:
        n *= den // d
        kind = int(t_kind == f_kind)     # kind 0 is sin, 1 is cos
        # sin a sin c = [cos(a-c) - cos(a+c)]/2, sin a cos c = [sin(a+c) +
        # sin(a-c)]/2, cos a sin c = [sin(a+c) - sin(a-c)]/2, cos a cos c =
        # [cos(a-c) + cos(a+c)]/2
        plus = -n if t_kind == f_kind == 0 else n
        minus = -n if t_kind > f_kind else n
        neg_c = -c
        if a == 0:                       # cos(-x) = cos x, sin(-x) = -sin x
            neg_c, minus = c, (minus if kind else -minus)
        for key, u in (((e, kind, a, c), plus), ((e, kind, a, neg_c), minus)):
            sums[key] = sums.get(key, 0) + u
    for (e, kind, a, c), n in sums.items():
        if n:
            enc.setdefault(e, ([], []))[kind].append((a, c, n))
    return 2 * den, (max_harmonic(p), phi_top), enc


def _encoded(p: TrigPoly):
    """p's integer form: built by :func:`_form` on first use, then kept on
    p (a TrigPoly is immutable, so the form never goes stale)."""
    if p._enc is None:
        p._enc = _form(p)
    return p._enc


def tp_dot(ps, qs) -> TrigPoly:
    """Exact sum_j ps[j] * qs[j], fraction-free over every ring.

    Every operand is encoded once over one denominator (the form is kept
    on the operand for later calls), each pair's integer products are
    scaled to the common denominator L and summed on plain ints, and one
    rational is built per output coefficient, num/(2L) from the 1/2 of
    the product-to-sum rules.  Over the phase ring the operands are
    written in angle sums a theta + c phi, packed as the single harmonic
    a W + c, so the same loop multiplies them; the output is read back
    into products of theta and phi waves.  Empty lists give the zero
    polynomial, with ring None.
    """
    if len(ps) != len(qs):
        raise ValueError("tp_dot needs operand lists of equal length")
    if not ps:
        return TrigPoly(None)
    ring = ps[0].ring
    pairs = [(_encoded(p), _encoded(q)) for p, q in zip(ps, qs)]
    den = math.lcm(*(dp * dq for (dp, _, _), (dq, _, _) in pairs))
    # the phi harmonics of every product lie in [-K, K], so h = a W + c
    # packs an angle sum uniquely, and angle sums add as harmonics do;
    # harmonics h +- g land at offset m + (h +- g) and fold back at the
    # end: cos(-x) = cos(x), sin(-x) = -sin(x)
    K = max(tp[1] + tq[1] for (_, tp, _), (_, tq, _) in pairs)
    W = 2 * K + 1
    m = max(tp[0] + tq[0] for (_, tp, _), (_, tq, _) in pairs) * W + K
    acc: dict = {}
    for (dp, _, p_enc), (dq, _, q_enc) in pairs:
        k = den // (dp * dq)
        q_enc = {e: ([(b * W + d, v) for b, d, v in q_sin],
                     [(b * W + d, v) for b, d, v in q_cos])
                 for e, (q_sin, q_cos) in q_enc.items()}
        for ep, (p_sin, p_cos) in p_enc.items():
            p_sin = [(m + a * W + c, u * k) for a, c, u in p_sin]
            p_cos = [(m + a * W + c, u * k) for a, c, u in p_cos]
            for eq, (q_sin, q_cos) in q_enc.items():
                e = ep + eq
                if e not in acc:
                    acc[e] = ([0] * (2 * m + 1), [0] * (2 * m + 1))
                sin, cos = acc[e]
                for h, u in p_sin:
                    for g, v in q_sin:   # sin a sin b = [cos(a-b) - cos(a+b)]/2
                        w = u * v
                        cos[h - g] += w
                        cos[h + g] -= w
                    for g, v in q_cos:   # sin a cos b = [sin(a+b) + sin(a-b)]/2
                        w = u * v
                        sin[h + g] += w
                        sin[h - g] += w
                for h, u in p_cos:
                    for g, v in q_sin:   # cos a sin b = [sin(a+b) - sin(a-b)]/2
                        w = u * v
                        sin[h + g] += w
                        sin[h - g] -= w
                    for g, v in q_cos:   # cos a cos b = [cos(a-b) + cos(a+b)]/2
                        w = u * v
                        cos[h - g] += w
                        cos[h + g] += w
    # {harmonic: {s-exponent: numerator over 2 * den}}
    sin_num: dict = {}
    cos_num: dict = {}
    for e, (sin, cos) in sorted(acc.items()):
        if cos[m]:
            cos_num.setdefault(0, {})[e] = cos[m]
        for j in range(1, m + 1):
            s = sin[m + j] - sin[m - j]
            if s:
                sin_num.setdefault(j, {})[e] = s
            c = cos[m + j] + cos[m - j]
            if c:
                cos_num.setdefault(j, {})[e] = c
    if not ring.has_phase:
        return TrigPoly(ring, _from_numerators(ring, sin_num, 2 * den),
                        _from_numerators(ring, cos_num, 2 * den))
    # angle sums back to products: cos(a th + c phi) = cos a cos c - sin a
    # sin c and sin(a th + c phi) = sin a cos c + cos a sin c, with c < 0
    # folded by sin(-x) = -sin x, and sin 0 = 0 dropping a = 0 or c = 0
    nums = ({}, {})   # by theta kind: {a: by phi kind: {|c|: {s-exponent: n}}}
    for kind, store in enumerate((sin_num, cos_num)):
        for h, by_e in store.items():
            a, c = divmod(h + K, W)
            c -= K
            sign = -1 if c < 0 else 1
            for t_kind, f_kind, s in ((kind, 1, 1),
                                      (1 - kind, 0, -sign if kind else sign)):
                if (t_kind == 0 and a == 0) or (f_kind == 0 and c == 0):
                    continue
                row = (nums[t_kind].setdefault(a, ({}, {}))[f_kind]
                       .setdefault(abs(c), {}))
                for e, n in by_e.items():
                    row[e] = row.get(e, 0) + s * n
    base = ring.base
    out = ({}, {})
    for t_kind, store in enumerate(nums):
        for a, phi in sorted(store.items()):
            # the angle sums (a, c) and (a, -c) can cancel: drop the zeros
            sin, cos = ({c: {e: n for e, n in sorted(row.items()) if n}
                         for c, row in f.items()} for f in phi)
            el = TrigPoly(base, _from_numerators(base, sin, 2 * den),
                          _from_numerators(base, cos, 2 * den))
            if el.sin or el.cos:
                out[t_kind][a] = el
    return TrigPoly(ring, *out)


def _from_numerators(ring, store, den) -> dict:
    """{harmonic: ring element} from {harmonic: {s-exponent: numerator}}
    over the common denominator den, with zero elements dropped."""
    out = {}
    for j, nums in sorted(store.items()):
        el = ring.reduce({e: QQ(n, den) for e, n in nums.items()})
        if el:
            out[j] = el
    return out


def tp_diff(p: TrigPoly) -> TrigPoly:
    """d/dtau (theta-shift leaves harmonics intact)."""
    ring = p.ring
    sin = {}
    cos = {}
    for j, v in p.sin.items():
        cos[j] = ring.scale(v, QQ(j))
    for j, v in p.cos.items():
        if j:
            sin[j] = ring.scale(v, QQ(-j))
    return TrigPoly(ring, sin, cos)


def harmonic(p: TrigPoly, j: int):
    """(sin, cos) coefficient pair of harmonic j (zero elements if absent)."""
    ring = p.ring
    z = ring.zero()
    return (p.sin.get(j, z) if j else z), p.cos.get(j, z)


def max_harmonic(p: TrigPoly) -> int:
    hs = list(p.sin) + list(p.cos)
    return max(hs) if hs else 0


# ---------------------------------------------------------------------------
# the phase ring: trig polynomials in phi over a phase-free base ring

class PhaseRing:
    """Base ring extended by trigonometric polynomials in the phase phi.

    Elements are TrigPolys in phi whose coefficients lie in ``base``;
    sums and scalings are the TrigPoly ones and products go through the
    integer kernel :func:`tp_dot`.
    """

    has_phase = True

    def __init__(self, base):
        self.base = base

    def lift(self, x):
        """Embed a base-ring element as a constant."""
        return tp_term(self.base, "cos", 0, x)

    def zero(self):
        return TrigPoly(self.base)

    def one(self):
        return self.lift(self.base.one())

    def s(self, k: int = 1):
        return self.lift(self.base.s(k))

    def from_fraction(self, q):
        return self.lift(self.base.from_fraction(q))

    def sin_phi(self, k: int = 1):
        if k < 0:
            return tp_neg(self.sin_phi(-k))
        return tp_term(self.base, "sin", k, self.base.one()) if k else self.zero()

    def cos_phi(self, k: int = 1):
        return tp_term(self.base, "cos", abs(k), self.base.one())

    def is_zero(self, x) -> bool:
        return not x.sin and not x.cos

    def eq(self, x, y) -> bool:
        return x == y

    add = staticmethod(tp_add)
    neg = staticmethod(tp_neg)
    sub = staticmethod(tp_sub)
    scale = staticmethod(tp_scale)

    def mul(self, x, y):
        return tp_dot([x], [y])

    def div(self, x, y):
        """Division by a phase-free element (each coefficient divides)."""
        if y.sin or y.cos.keys() - {0}:
            raise ExactDivisionError("divisor must be phase-free")
        d = y.const
        b = self.base
        if b.is_zero(d):
            raise ZeroDivisionError("division by zero element")
        return TrigPoly(b, {k: b.div(v, d) for k, v in x.sin.items()},
                        {k: b.div(v, d) for k, v in x.cos.items()})


def evaluate_at_zero(p: TrigPoly):
    """Value of p at tau = 0, i.e. theta = phi, as a phase-ring element.

    Read at theta = phi, a phase-free p already is that trig polynomial
    in phi, so it is returned as it is."""
    P = p.ring
    if not P.has_phase:
        return p
    coeffs = list(p.sin.values()) + list(p.cos.values())
    if not coeffs:
        return P.zero()
    waves = [P.sin_phi(j) for j in p.sin] + [P.cos_phi(j) for j in p.cos]
    return tp_dot(coeffs, waves)


# ---------------------------------------------------------------------------
# the linear system W' = K W + R

def k_apply(v: VectorTrigPoly) -> VectorTrigPoly:
    ring = v.xi.ring
    return VectorTrigPoly(
        tp_mul_el(v.eta, ring.neg(ring.s(-1))),
        tp_mul_el(v.xi, ring.s(1)),
    )


def residual(forcing: VectorTrigPoly, w: VectorTrigPoly) -> VectorTrigPoly:
    """W' - K W - R; identically zero for an exact solution."""
    kw = k_apply(w)
    return VectorTrigPoly(
        tp_sub(tp_sub(tp_diff(w.xi), kw.xi), forcing.xi),
        tp_sub(tp_sub(tp_diff(w.eta), kw.eta), forcing.eta),
    )


def first_harmonic_absorbable(forcing: VectorTrigPoly) -> bool:
    """True when the first-harmonic forcing satisfies the two identities
    g_s = -s f_c, g_c = s f_s that make it absorbable without secular
    growth (equivalently: the first harmonic of F' - G/s vanishes)."""
    ring = forcing.xi.ring
    f_s, f_c = harmonic(forcing.xi, 1)
    g_s, g_c = harmonic(forcing.eta, 1)
    s = ring.s(1)
    return (ring.is_zero(ring.add(g_s, ring.mul(s, f_c)))
            and ring.is_zero(ring.sub(g_c, ring.mul(s, f_s))))


def particular_solution(forcing: VectorTrigPoly, absorb: str = "xi") -> VectorTrigPoly:
    """One exact solution of W' = K W + R with no secular terms.

    Harmonics j != 1 are fixed by 2x2 elimination (the j = 1 block of the
    operator is singular).  An absorbable first harmonic has a 2-parameter
    family of solutions; ``absorb`` picks the representative with the
    first harmonic of xi (``"xi"``) or eta (``"eta"``) equal to zero.
    Raises :class:`ResonantForcingError` for non-absorbable first
    harmonics.
    """
    ring = forcing.xi.ring
    s = ring.s(1)
    inv_s = ring.s(-1)
    z = ring.zero()
    xi_sin: dict = {}
    xi_cos: dict = {}
    eta_sin: dict = {}
    eta_cos: dict = {}
    harmonics = (set(forcing.xi.sin) | set(forcing.xi.cos)
                 | set(forcing.eta.sin) | set(forcing.eta.cos))
    for j in sorted(harmonics):
        f_s, f_c = harmonic(forcing.xi, j)
        g_s, g_c = harmonic(forcing.eta, j)
        if j == 0:
            # constant block: 0 = K W + R  =>  W = -K^{-1} R
            p_s, p_c, q_s, q_c = z, ring.neg(ring.mul(inv_s, g_c)), z, ring.mul(s, f_c)
        elif j == 1:
            if not first_harmonic_absorbable(forcing):
                raise ResonantForcingError(
                    "non-absorbable first-harmonic forcing; "
                    "secular removal was skipped")
            if absorb == "xi":
                p_s, p_c, q_s, q_c = z, z, ring.mul(s, f_s), ring.mul(s, f_c)
            elif absorb == "eta":
                p_s, p_c, q_s, q_c = f_c, ring.neg(f_s), z, z
            else:
                raise ValueError("absorb must be 'xi' or 'eta'")
        else:
            # generic block, determinant 1 - j^2 != 0
            inv_det = QQ(1, 1 - j * j)
            inv_j = QQ(1, j)
            q_c = ring.scale(ring.add(ring.mul(s, f_c), ring.scale(g_s, QQ(j))), inv_det)
            p_s = ring.scale(ring.sub(f_c, ring.mul(inv_s, q_c)), inv_j)
            p_c = ring.scale(ring.sub(ring.scale(f_s, QQ(j)), ring.mul(inv_s, g_c)), inv_det)
            q_s = ring.scale(ring.add(ring.mul(s, p_c), g_c), inv_j)
        for store, val in ((xi_sin, p_s), (xi_cos, p_c), (eta_sin, q_s), (eta_cos, q_c)):
            if not ring.is_zero(val):
                store[j] = val
    return VectorTrigPoly(TrigPoly(ring, xi_sin, xi_cos),
                          TrigPoly(ring, eta_sin, eta_cos))


def exp_tk_vector(phase_ring: PhaseRing, v1, v2) -> VectorTrigPoly:
    """exp(tau K) (v1, v2), written in theta = tau + phi harmonics.

    Needs the phase extension because cos(tau) = cos(theta - phi) mixes
    phi into the coefficients.  Evaluating at tau = 0 returns (v1, v2).
    """
    P = phase_ring
    sin_p = P.sin_phi(1)
    cos_p = P.cos_phi(1)
    inv_s = P.s(-1)
    s = P.s(1)
    # cos tau = cos phi cos th + sin phi sin th ; sin tau = cos phi sin th - sin phi cos th
    xi_cos = P.add(P.mul(v1, cos_p), P.mul(P.mul(v2, inv_s), sin_p))
    xi_sin = P.sub(P.mul(v1, sin_p), P.mul(P.mul(v2, inv_s), cos_p))
    eta_sin = P.add(P.mul(P.mul(v1, s), cos_p), P.mul(v2, sin_p))
    eta_cos = P.sub(P.mul(v2, cos_p), P.mul(P.mul(v1, s), sin_p))
    return VectorTrigPoly(
        tp_add(tp_term(P, "sin", 1, xi_sin), tp_term(P, "cos", 1, xi_cos)),
        tp_add(tp_term(P, "sin", 1, eta_sin), tp_term(P, "cos", 1, eta_cos)))


def to_triples(p: TrigPoly, amp_power: int = 0) -> list:
    """JSON-ready [harmonic, kind, coefficient-string] triples."""
    from .algebra import format_element
    out = []
    for j in sorted(set(p.sin) | set(p.cos)):
        if j in p.sin:
            out.append([j, "sin", format_element(p.ring, p.sin[j], amp_power)])
        if j in p.cos:
            out.append([j, "cos", format_element(p.ring, p.cos[j], amp_power)])
    return out
