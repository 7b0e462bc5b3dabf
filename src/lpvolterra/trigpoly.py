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
phase-free base ring.

Beside its dicts, a TrigPoly has an integer form, :class:`IntForm`:
integer numerators over one denominator, keyed by s-exponent and by
angle sum a theta + c phi, so one form serves both kinds of ring (a
phase-free TrigPoly has c = 0 throughout).  Each form is built from the
other on first use and then kept, so every TrigPoly is encoded at most
once.  A phase-ring form is built by the one fraction-free kernel,
:func:`dot_form`, as the sum of its theta waves times its phi
coefficients.  The order step of :mod:`lpvolterra.engine` runs on
integer forms: its products go through that kernel (:func:`tp_dot`
wraps it), which packs each operand's angle sums as single harmonics
once and keeps them on the operand, :func:`combine` and
:func:`derivative` assemble forcings, :func:`particular_solution` solves
harmonic by harmonic with integer scalings and shifts of the s-exponent
only, :func:`solve_linear_anchored` shifts that solve's first harmonic by
exp(tau K) W(0) on its numerators, and :func:`vanishes` tests a residual
for zero.  Both solves return the solution as its reduced integer form:
folded by s^2 = alpha, over one denominator, content divided out, the
very form its reduced rationals would encode to.  Printed strings and
values at tau = 0 are read from that form too (:func:`_rows`,
:func:`_at_zero`); rationals are built, one per coefficient, only when a
caller reads the dicts.

The dict side (:func:`tp_add`, :func:`tp_scale`, the product
:func:`tp_mul`) is the phase ring's arithmetic, and it never calls the
kernel; the oracles built on it live in :mod:`lpvolterra.reference`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebra import QQ, over_lcm


class ResonantForcingError(ValueError):
    """First-harmonic forcing is not absorbable: secular removal was
    skipped (or produced an inconsistent frequency correction)."""


class TrigPoly:
    """sum_j sin[j] sin(j theta) + cos[j] cos(j theta) over ``ring``,
    held as dicts, as an :class:`IntForm`, or both: a TrigPoly built from
    one builds the other on first use and keeps it."""

    __slots__ = ("ring", "sin", "cos", "_enc", "_pack")

    def __init__(self, ring, sin=None, cos=None, enc=None):
        self.ring = ring
        self._enc = enc           # the IntForm, built on first use if None
        self._pack = None         # (W, terms packed for W), see _packed
        if enc is None:
            self.sin = sin or {}
            self.cos = cos or {}

    def __getattr__(self, name):
        # reached only for an unset slot: a TrigPoly built from its integer
        # form builds its dicts on first use
        if name not in ("sin", "cos") or self._enc is None:
            raise AttributeError(name)
        self.sin, self.cos = _unpack(self.ring, self._enc)
        return getattr(self, name)

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


def tp_mul(p: TrigPoly, q: TrigPoly) -> TrigPoly:
    """Exact product via product-to-sum reduction on ring elements: the
    phase ring's product, and the dict oracle that the self-checks hold
    :func:`tp_dot` against."""
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


def harmonic(p: TrigPoly, j: int):
    """(sin, cos) coefficient pair of harmonic j (zero elements if absent)."""
    ring = p.ring
    z = ring.zero()
    return (p.sin.get(j, z) if j else z), p.cos.get(j, z)


def max_harmonic(p: TrigPoly) -> int:
    hs = list(p.sin) + list(p.cos)
    return max(hs) if hs else 0


# ---------------------------------------------------------------------------
# integer forms: numerators over one denominator, keyed by angle sums

class IntForm(NamedTuple):
    """A TrigPoly as integers: for e, (sin, cos) in terms.items(), each
    (a, c): n of sin (of cos) adds n s^e / den sin(a theta + c phi) (cos).

    Angle sums are canonical, a > 0, or a = 0 and c >= 0 (and no sin at
    (0, 0)), so distinct keys are independent waves; a phase-free
    TrigPoly has c = 0 throughout.  ``tops`` bounds (a, |c|).  Exponents
    need not be folded: a numeric ring folds s^2 = alpha only when it
    builds rationals, tests for zero or reduces a solved order's form."""
    den: int
    tops: tuple
    terms: dict


def _form(p: TrigPoly) -> IntForm:
    """p over the lcm of its denominators; over the phase ring, the
    :func:`dot_form` of its theta waves sin|cos(a theta) times their phi
    coefficients, each keyed (0, c), which is over twice that lcm."""
    if not p.ring.has_phase:
        entries = [(e, kind, j, q) for kind, store in enumerate((p.sin, p.cos))
                   for j, v in store.items() for e, q in v.items()]
        ints, den = over_lcm([x[3] for x in entries])
        terms: dict = {}
        for (e, kind, j, _), n in zip(entries, ints):
            terms.setdefault(e, ({}, {}))[kind][(j, 0)] = n
        return IntForm(den, (max_harmonic(p), 0), terms)
    waves, coeffs = [], []
    for kind, store in enumerate((p.sin, p.cos)):
        for a, x in store.items():
            wave = ({(a, 0): 1}, {}) if kind == 0 else ({}, {(a, 0): 1})
            waves.append(TrigPoly(p.ring.base, enc=IntForm(1, (a, 0), {0: wave})))
            f = int_form(x)
            coeffs.append(TrigPoly(p.ring, enc=IntForm(f.den, (0, f.tops[0]), {
                e: ({(0, c): n for (c, _), n in sin.items()},
                    {(0, c): n for (c, _), n in cos.items()})
                for e, (sin, cos) in f.terms.items()})))
    return dot_form(waves, coeffs)


def int_form(p: TrigPoly) -> IntForm:
    """p's integer form: built by :func:`_form` on first use, then kept on
    p (a TrigPoly is immutable, so the form never goes stale)."""
    if p._enc is None:
        p._enc = _form(p)
    return p._enc


def _folded(ring, terms):
    """(folded, f, g): :class:`IntForm` terms over a phase-free ``ring``
    with their numerators folded onto the exponents the ring keeps (see
    ``folding`` in :mod:`lpvolterra.algebra`) and summed per wave, worth
    f/g times as much.  A folded numerator can be zero."""
    folded: dict = {}
    if not terms:
        return folded, 1, 1
    rule, f, g = ring.folding(min(terms), max(terms))
    for e, pair in terms.items():
        r, w = rule[e]
        for store, acc in zip(pair, folded.setdefault(r, ({}, {}))):
            for key, n in store.items():
                acc[key] = acc.get(key, 0) + w * n
    return folded, f, g


def _reduced(ring, form: IntForm) -> IntForm:
    """The reduced integer form over ``ring`` equal to ``form``: its
    numerators folded (:func:`_folded`), zeros dropped and the content
    divided out, with exact tops.  Over a phase-free ring that is the form
    :func:`_form` encodes from the reduced rationals,
    lcm_i(D / gcd(D, n_i)) = D / gcd(D, n_1..n_k)."""
    folded, f, g = _folded(ring.base if ring.has_phase else ring, form.terms)
    content = math.gcd(form.den * g, f * math.gcd(*(
        n for pair in folded.values() for store in pair for n in store.values())))
    out: dict = {}
    for r, pair in folded.items():
        pair = tuple({key: n * f // content for key, n in store.items() if n}
                     for store in pair)
        if pair[0] or pair[1]:
            out[r] = pair
    keys = [key for pair in out.values() for store in pair for key in store]
    return IntForm(form.den * g // content,
                   (max((a for a, _ in keys), default=0),
                    max((abs(c) for _, c in keys), default=0)), out)


def _rows(ring, form: IntForm):
    """(coeffs, den): the coefficients of the TrigPoly over ``ring`` whose
    integer form is ``form`` as integer rows {kept exponent e: n}, each
    worth sum n s^e / den.  The numerators are folded (:func:`_folded`)
    and each angle sum is split into products of theta and phi waves:
    coeffs maps each (theta kind, a), ascending, to the (sin, cos) dicts
    {c: row} of its phi waves (phase-free, one cos row at c = 0).  Zero
    coefficients are dropped."""
    folded, f, g = _folded(ring.base if ring.has_phase else ring, form.terms)
    # cos(a th + c phi) = cos a cos c - sin a sin c and sin(a th + c phi) =
    # sin a cos c + cos a sin c, with c < 0 folded by sin(-x) = -sin x, and
    # sin 0 = 0 dropping a = 0 or c = 0
    rows: dict = {}       # {(theta kind, a, phi kind, |c|): {kept exponent: n}}
    for r, pair in folded.items():
        for kind, store in enumerate(pair):
            for (a, c), n in store.items():
                sign = (-1 if kind else 1) * (-1 if c < 0 else 1)
                for t_kind, f_kind, s in ((kind, 1, 1), (1 - kind, 0, sign)):
                    if (t_kind == 0 and a == 0) or (f_kind == 0 and c == 0):
                        continue
                    acc = rows.setdefault((t_kind, a, f_kind, abs(c)), {})
                    acc[r] = acc.get(r, 0) + s * n
    coeffs: dict = {}
    for (t_kind, a, f_kind, c), row in sorted(rows.items()):
        row = {r: n * f for r, n in sorted(row.items()) if n}
        if row:
            coeffs.setdefault((t_kind, a), ({}, {}))[f_kind][c] = row
    return coeffs, form.den * g


def _unpack(ring, form: IntForm):
    """The (sin, cos) dicts of the TrigPoly over ``ring`` whose integer
    form is ``form``, one rational per entry of its :func:`_rows`: built
    only when a caller reads the dicts (numeric evaluation, the oracles)."""
    coeffs, den = _rows(ring, form)
    out: tuple = ({}, {})
    for (t_kind, a), phi in coeffs.items():
        phi = [{c: {r: QQ(n, den) for r, n in row.items()} for c, row in store.items()}
               for store in phi]
        out[t_kind][a] = TrigPoly(ring.base, *phi) if ring.has_phase else phi[1][0]
    return out


def _packed(p: TrigPoly, W: int) -> dict:
    """p's integer terms with each angle sum (a, c) packed as the single
    harmonic a W + c: {e: (sin, cos)} lists of (harmonic, numerator).
    They are kept on p for the latest W only, so an operand met again by
    :func:`dot_form` is not packed again."""
    if p._pack is None or p._pack[0] != W:
        p._pack = (W, {e: tuple([(a * W + c, n) for (a, c), n in store.items()]
                                for store in pair)
                       for e, pair in int_form(p).terms.items()})
    return p._pack[1]


def dot_form(ps, qs) -> IntForm:
    """Integer form of sum_j ps[j] * qs[j], fraction-free over every ring.

    Each pair's integer products are scaled to the common denominator L
    of the operand pairs and summed on plain ints, over 2L from the 1/2
    of the product-to-sum rules.  The angle sums a theta + c phi of the
    operands are packed as the single harmonic a W + c, so one loop
    multiplies phase-free and phase-ring operands alike.  Empty lists give
    the zero form."""
    if len(ps) != len(qs):
        raise ValueError("tp_dot needs operand lists of equal length")
    if not ps:
        return IntForm(1, (0, 0), {})
    pairs = [(p, q, int_form(p), int_form(q)) for p, q in zip(ps, qs)]
    den = math.lcm(*(fp.den * fq.den for _, _, fp, fq in pairs))
    # the phi harmonics of every product lie in [-K, K], so h = a W + c
    # packs an angle sum uniquely, and angle sums add as harmonics do;
    # harmonics h +- g land at offset m + (h +- g) and fold back at the
    # end: cos(-x) = cos(x), sin(-x) = -sin(x)
    K = max(fp.tops[1] + fq.tops[1] for _, _, fp, fq in pairs)
    W = 2 * K + 1
    top = max(fp.tops[0] + fq.tops[0] for _, _, fp, fq in pairs)
    m = top * W + K
    acc: dict = {}
    for p, q, fp, fq in pairs:
        k = den // (fp.den * fq.den)
        q_terms = _packed(q, W)
        for ep, (p_sin, p_cos) in _packed(p, W).items():
            p_sin = [(m + h, u * k) for h, u in p_sin]
            p_cos = [(m + h, u * k) for h, u in p_cos]
            for eq, (q_sin, q_cos) in q_terms.items():
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
    terms = {}
    for e, (sin, cos) in sorted(acc.items()):
        sin_out: dict = {}
        cos_out: dict = {}
        if cos[m]:
            cos_out[0, 0] = cos[m]
        for j in range(1, m + 1):
            s = sin[m + j] - sin[m - j]
            c = cos[m + j] + cos[m - j]
            if s or c:
                a, r = divmod(j + K, W)
                if s:
                    sin_out[a, r - K] = s
                if c:
                    cos_out[a, r - K] = c
        if sin_out or cos_out:
            terms[e] = (sin_out, cos_out)
    return IntForm(2 * den, (top, K), terms)


def tp_dot(ps, qs) -> TrigPoly:
    """Exact sum_j ps[j] * qs[j]: the TrigPoly of :func:`dot_form`, whose
    rationals are built on first use, one per coefficient.  Empty lists
    give the zero polynomial, with ring None."""
    form = dot_form(ps, qs)
    return TrigPoly(ps[0].ring, enc=form) if ps else TrigPoly(None)


def combine(parts) -> IntForm:
    """sum k s^shift x over the (x, k, shift) of ``parts``, an integer k
    scaling the integer form x; the result is over the lcm of every
    x.den."""
    den = math.lcm(*[x.den for x, _, _ in parts])
    terms: dict = {}
    top = phi_top = 0
    for x, k, shift in parts:
        k *= den // x.den
        top, phi_top = max(top, x.tops[0]), max(phi_top, x.tops[1])
        for e, pair in x.terms.items():
            for store, acc in zip(pair, terms.setdefault(e + shift, ({}, {}))):
                for key, n in store.items():
                    acc[key] = acc.get(key, 0) + k * n
    return IntForm(den, (top, phi_top), terms)


def derivative(x: IntForm) -> IntForm:
    """d/dtau of an integer form: theta = tau + phi, so each angle sum
    (a, c) turns sin into a cos and cos into -a sin."""
    return x._replace(terms={
        e: ({key: -key[0] * n for key, n in cos.items() if key[0]},
            {key: key[0] * n for key, n in sin.items() if key[0]})
        for e, (sin, cos) in x.terms.items()})


def vanishes(ring, x: IntForm) -> bool:
    """True when the integer form x is zero over ``ring``: its folded
    numerators (:func:`_folded`) are all zero, with no rational built."""
    folded = _folded(ring.base if ring.has_phase else ring, x.terms)[0]
    return not any(n for pair in folded.values() for store in pair
                   for n in store.values())


# ---------------------------------------------------------------------------
# the phase ring: trig polynomials in phi over a phase-free base ring

class PhaseRing:
    """Base ring extended by trigonometric polynomials in the phase phi.

    Elements are TrigPolys in phi whose coefficients lie in ``base``;
    sums, scalings and products are the dict ones (:func:`tp_mul`), so
    ring arithmetic never reaches the integer kernel.
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
        return tp_term(self.base, "sin", k, self.base.one())

    def cos_phi(self, k: int = 1):
        return tp_term(self.base, "cos", k, self.base.one())

    def is_zero(self, x) -> bool:
        return not x.sin and not x.cos

    def eq(self, x, y) -> bool:
        return x == y

    add = staticmethod(tp_add)
    neg = staticmethod(tp_neg)
    sub = staticmethod(tp_sub)
    scale = staticmethod(tp_scale)
    mul = staticmethod(tp_mul)


def _at_zero(x: IntForm, phase: bool) -> IntForm:
    """x at tau = 0, where theta = phi: each angle sum (a, c) becomes the
    phi wave a + c (sin 0 = 0, sin(-x) = -sin x), keyed (0, a + c) as a
    phase-ring constant if ``phase``, else (a + c, 0) over the base ring."""
    terms: dict = {}
    for e, pair in x.terms.items():
        v = terms[e] = ({}, {})
        for kind, store in enumerate(pair):
            for (a, c), n in store.items():
                if a + c or kind:
                    key = (0, abs(a + c)) if phase else (abs(a + c), 0)
                    v[kind][key] = v[kind].get(key, 0) + (n if kind or a + c > 0 else -n)
    top = sum(x.tops)
    return IntForm(x.den, (0, top) if phase else (top, 0), terms)


def evaluate_at_zero(p: TrigPoly):
    """Value of p at tau = 0, i.e. theta = phi, as a phase-ring element,
    read off p's integer form (:func:`_at_zero`).  Read at theta = phi, a
    phase-free p already is that trig polynomial in phi, so it is
    returned as it is."""
    if not p.ring.has_phase:
        return p
    return TrigPoly(p.ring.base, enc=_at_zero(int_form(p), False))


# ---------------------------------------------------------------------------
# the linear system W' = K W + R

def resonance(f: IntForm, g: IntForm) -> IntForm:
    """The first harmonic of G - s F', for the integer forms f and g of a
    forcing (F, G), over lcm(f.den, g.den) (:func:`combine`).

    In theta waves it is (g_s + s f_c) sin theta + (g_c - s f_s) cos theta,
    with (f_s, f_c) and (g_s, g_c) the first harmonics of F and G; over the
    phase ring each angle sum (1, c) contributes to both."""
    f1, g1 = ({e: tuple({key: n for key, n in store.items() if key[0] == 1}
                        for store in pair)
               for e, pair in x.terms.items()} for x in (f, g))
    return combine([(g._replace(terms=g1), 1, 0),
                    (derivative(f._replace(terms=f1)), -1, 1)])


# How each forcing wave feeds W = (xi, eta) at theta harmonic a != 1, all
# over the denominator a^2 - 1: per wave of (f_s, f_c, g_s, g_c), the
# (component, wave kind, s-exponent shift, times a, sign) it adds to.
#   xi:  p_s = a f_c + g_s / s,    p_c = g_c / s - a f_s
#   eta: q_s = a g_c - s f_s,      q_c = -(s f_c + a g_s)
_SOLVE = (((0, 1, 0, True, -1), (1, 0, 1, False, -1)),
          ((0, 0, 0, True, 1), (1, 1, 1, False, -1)),
          ((0, 0, -1, False, 1), (1, 1, 0, True, -1)),
          ((0, 1, -1, False, 1), (1, 0, 0, True, 1)))
# the resonant harmonic a = 1, over the denominator 1: absorbing into xi
# leaves xi_1 = 0 and eta_1 = s F_1; absorbing into eta leaves eta_1 = 0
# and xi_1' = F_1.  G_1 then follows from the absorbability identities.
_ABSORB = {"xi": (((1, 0, 1, False, 1),), ((1, 1, 1, False, 1),), (), ()),
           "eta": (((0, 1, 0, False, -1),), ((0, 0, 0, False, 1),), (), ())}


def _solve(forcing: VectorTrigPoly, absorb: str):
    """The integer forms (xi, eta) of :func:`particular_solution`, not yet
    reduced: over the forcing's denominator times the lcm L of a^2 - 1
    over its theta harmonics a != 1."""
    if absorb not in _ABSORB:
        raise ValueError("absorb must be 'xi' or 'eta'")
    f, g = int_form(forcing.xi), int_form(forcing.eta)
    # absorbable without secular growth: g_s = -s f_c and g_c = s f_s
    if not vanishes(forcing.xi.ring, resonance(f, g)):
        raise ResonantForcingError(
            "non-absorbable first-harmonic forcing; "
            "secular removal was skipped")
    harmonics = {a for x in (f, g) for pair in x.terms.values()
                 for store in pair for a, _ in store}
    L = math.lcm(*(a * a - 1 for a in harmonics if a != 1))
    scale = {a: L if a == 1 else L // (a * a - 1) for a in harmonics}
    den = math.lcm(f.den, g.den)
    out: tuple = ({}, {})      # xi, eta terms: {e: (sin, cos)}
    for i, x in enumerate((f, g)):
        k = {a: den // x.den * v for a, v in scale.items()}
        for e, pair in x.terms.items():
            for kind, store in enumerate(pair):
                rules = _SOLVE[2 * i + kind]
                resonant = _ABSORB[absorb][2 * i + kind]
                for key, n in store.items():
                    a = key[0]
                    n *= k[a]
                    for comp, t_kind, shift, times_a, sign in (
                            resonant if a == 1 else rules):
                        acc = out[comp].setdefault(e + shift, ({}, {}))[t_kind]
                        acc[key] = acc.get(key, 0) + sign * (a * n if times_a else n)
    tops = tuple(map(max, f.tops, g.tops))
    return tuple(IntForm(den * L, tops, terms) for terms in out)


def particular_solution(forcing: VectorTrigPoly, absorb: str = "xi") -> VectorTrigPoly:
    """One exact solution of W' = K W + R with no secular terms.

    Harmonics j != 1 are fixed by 2x2 elimination (the j = 1 block of the
    operator is singular).  An absorbable first harmonic has a 2-parameter
    family of solutions; ``absorb`` picks the representative with the
    first harmonic of xi (``"xi"``) or eta (``"eta"``) equal to zero.
    Raises :class:`ResonantForcingError` for non-absorbable first
    harmonics.

    The solve runs on the forcing's integer forms.  d/dtau acts on each
    angle sum (a, c) as on the theta harmonic a, so both rings take the
    same per-wave rules: integer multiples and shifts of the s-exponent,
    over the denominator a^2 - 1 at harmonic a.  Each component is
    returned as its reduced integer form (:func:`_reduced`), the form that
    later products multiply; its rationals are built only when its dicts
    are first read.
    """
    ring = forcing.xi.ring
    return VectorTrigPoly(*(TrigPoly(ring, enc=_reduced(ring, x))
                            for x in _solve(forcing, absorb)))


def solve_linear_anchored(forcing: VectorTrigPoly) -> VectorTrigPoly:
    """The solution of W' = K W + R with W(0) = (0, 0) over a phase ring,
    the one way a solution is anchored: P - exp(tau K) P(0) for the
    absorb-xi solution P of :func:`particular_solution`.  exp(tau K) =
    cos tau + K sin tau, and tau = theta - phi is the angle sum (1, -1),
    so only theta harmonic 1 moves.  P(0) is read off the solve's
    numerators (:func:`_at_zero`), and each component's shift is one
    :func:`dot_form`.  Each component is returned as its reduced integer
    form (:func:`_reduced`), with no rational built until its dicts are
    first read."""
    ring = forcing.xi.ring
    parts = _solve(forcing, "xi")
    values = [TrigPoly(ring, enc=_at_zero(x, True)) for x in parts]

    def wave(kind, e, n):        # n s^e sin tau (kind 0) or cos tau (kind 1)
        pair = ({(1, -1): n}, {}) if kind == 0 else ({}, {(1, -1): n})
        return TrigPoly(ring, enc=IntForm(1, (1, 1), {e: pair}))

    shifts = (dot_form(values, [wave(1, 0, 1), wave(0, -1, -1)]),  # v1 cos - (v2/s) sin
              dot_form(values, [wave(0, 1, 1), wave(1, 0, 1)]))    # s v1 sin + v2 cos
    return VectorTrigPoly(*(TrigPoly(ring, enc=_reduced(
        ring, combine([(x, 1, 0), (shift, -1, 0)])))
        for x, shift in zip(parts, shifts)))


def to_triples(p: TrigPoly, amp_power: int = 0) -> list:
    """JSON-ready [harmonic, kind, coefficient-string] triples, formatted
    from p's integer form (:func:`_rows`), so no rational is built."""
    from .algebra import _fmt_ints, _fmt_phase
    coeffs, den = _rows(p.ring, int_form(p))
    return [[a, ("sin", "cos")[kind],
             _fmt_phase(*coeffs[kind, a], den, amp_power) if p.ring.has_phase
             else _fmt_ints(coeffs[kind, a][1][0], den, amp_power)]
            for kind, a in sorted(coeffs, key=lambda key: key[::-1])]
