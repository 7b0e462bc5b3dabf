"""Self-test suites behind the ``check`` subcommand.

Every check here re-derives something the package is supposed to
guarantee and compares it against frozen reference data or an
independently assembled quantity.  The strongest one, equation-residual,
runs :func:`lpvolterra.reference.equation_residuals`: it substitutes a
finished series back into the scaled equations of motion and expands in
the amplitude parameter from scratch, with the dict product, sharing
neither the per-order solver's bookkeeping nor its integer kernel.

Two suite levels exist.  "quick" keeps symbolic work at order 6 and
samples lightly; "full" raises the residual cap to 10, pushes the
odd-order frequency check to order 45, and adds the slow numeric
cross-validations.
"""

import ast
import itertools
import json
import math
import operator
import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import mpmath

from .algebra import (QQ, SymbolicRing, evaluate_numeric, format_element,
                      numeric_ring, over_lcm, to_mpf)
from .analysis import (FAMILY_HERMITE_PADE, FAMILY_PADE,
                       ROOT_DPS, DegenerateApproximantError, PowerSeries,
                       _durand_kerner, _float_seed, _poly_roots, _poly_sum,
                       _root_key, _to_complex, discriminant, discriminant_roots,
                       hermite_pade_fit, pade_fit, poly_mul, poly_trim,
                       rational_function_series, series_from_engine,
                       stable_singularity)
from .constants import LEVELS
from .engine import (GAUGE_SIMPLIFIED_ETA, GAUGE_SIMPLIFIED_XI,
                     GAUGE_ZERO_INITIAL, evaluate_solution, run)
from .reference import at_zero, equation_residuals, residual
from .trigpoly import (PhaseRing, ResonantForcingError, VectorTrigPoly,
                       harmonic, particular_solution, tp_add, tp_dot, tp_mul,
                       tp_term, tp_zero, to_triples)
from .verify import IntegratorConfig, integrate, measure_frequency

FIG1_ALPHA = 1
FIG1_X0 = 1 + 0.1 * math.cos(math.pi / 4)
FIG1_Y0 = 1 + 0.1 * math.sin(math.pi / 4)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str          # what was verified, or the failure message
    elapsed: float       # seconds


def load_golden(path=None):
    """Reference data for the golden-strings check.

    Read from ``path`` when given, else from the copy shipped inside the
    package.
    """
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    text = resources.files("lpvolterra").joinpath("data/golden.json").read_text("utf-8")
    return json.loads(text)


# ---------------------------------------------------------------------------
# suite plumbing

_REGISTRY = []


def _check(name, levels=LEVELS):
    def deco(fn):
        _REGISTRY.append((name, tuple(levels), fn))
        return fn
    return deco


class _Context:
    """Per-invocation cache so checks can share engine runs."""

    def __init__(self, level, golden=None):
        self.level = level
        self.cap = 6 if level == "quick" else 10
        self.odd_cap = 7 if level == "quick" else 45
        self.samples = 20 if level == "quick" else 100
        self.golden = golden
        self._runs = {}

    def series(self, N, alpha="symbolic", gauge=GAUGE_SIMPLIFIED_XI):
        key = (N, str(alpha), gauge)
        if key not in self._runs:
            self._runs[key] = run(N, alpha, gauge)
        return self._runs[key]


def check_names(level=None):
    return [name for name, levels, _ in _REGISTRY
            if level is None or level in levels]


def iter_checks(level="quick", names=None, golden=None):
    """Yield CheckResult records as each check finishes.  ``golden`` is
    parsed reference data for golden-strings; None reads the packaged copy."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
    if names is not None:
        bad = sorted(set(names) - set(check_names()))
        if bad:
            raise ValueError(f"unknown check names: {', '.join(bad)}")
    ctx = _Context(level, golden)
    for name, levels, fn in _REGISTRY:
        if level not in levels:
            continue
        if names is not None and name not in names:
            continue
        start = time.perf_counter()
        try:
            detail = fn(ctx)
            passed = True
        except Exception as exc:  # a failing check must not abort the suite
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        yield CheckResult(name, passed, detail, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# random element generators

def _rand_q(rng, span=6):
    return QQ(rng.randint(-span, span), rng.randint(1, span))


def _rand_symbolic(rng, ring):
    el = ring.zero()
    for k in range(-2, 4):
        if rng.random() < 0.5:
            el = ring.add(el, ring.scale(ring.s(k), _rand_q(rng)))
    return el


def _rand_phase(rng, pring):
    el = pring.lift(_rand_symbolic(rng, pring.base))
    for k in (1, 2, 3):
        if rng.random() < 0.4:
            el = pring.add(el, pring.mul(
                pring.sin_phi(k), pring.lift(_rand_symbolic(rng, pring.base))))
        if rng.random() < 0.4:
            el = pring.add(el, pring.mul(
                pring.cos_phi(k), pring.lift(_rand_symbolic(rng, pring.base))))
    return el


def _rand_numeric(rng, ring):
    el = ring.from_fraction(_rand_q(rng))
    if rng.random() < 0.5:
        el = ring.add(el, ring.mul(ring.s(1), ring.from_fraction(_rand_q(rng))))
    return el


def _sample_rings(rng):
    sym = SymbolicRing()
    yield "symbolic", sym, lambda: _rand_symbolic(rng, sym)
    phase = PhaseRing(sym)
    yield "phase", phase, lambda: _rand_phase(rng, phase)
    rat = numeric_ring(QQ(9, 4))
    yield "rational-root", rat, lambda: _rand_numeric(rng, rat)
    quad = numeric_ring(QQ(2))
    yield "quadratic", quad, lambda: _rand_numeric(rng, quad)


# ---------------------------------------------------------------------------
# algebra checks

@_check("ring-axioms")
def _ring_axioms(ctx):
    rng = random.Random(0x5EED)
    triples = 0
    for label, ring, draw in _sample_rings(rng):
        for _ in range(25):
            x, y, z = draw(), draw(), draw()
            if not ring.eq(ring.mul(ring.mul(x, y), z), ring.mul(x, ring.mul(y, z))):
                raise AssertionError(f"{label}: associativity violated")
            if not ring.eq(ring.mul(x, ring.add(y, z)),
                           ring.add(ring.mul(x, y), ring.mul(x, z))):
                raise AssertionError(f"{label}: distributivity violated")
            if not ring.eq(ring.mul(x, y), ring.mul(y, x)):
                raise AssertionError(f"{label}: commutativity violated")
            if not ring.is_zero(ring.sub(x, x)):
                raise AssertionError(f"{label}: x - x != 0")
            triples += 1
    return f"{triples} random triples across 4 coefficient rings"


# an element string's leaves, and how its operations bound terms and take values
_LEAF = re.compile(r"(A|alpha|sqrt\(alpha\))(?:\*\*(\d+))?|(sin|cos)\((?:(\d+)\*)?phi\)|(\d+)")
_OPS = {ast.Add: (max, operator.add), ast.Sub: (max, operator.sub),
        ast.Mult: (operator.add, operator.mul), ast.Div: (operator.sub, operator.truediv)}


def _denotes(ring, x, text, amp_power=0):
    """Whether ``text`` is A**amp_power times ``x``, proved by exact evaluation.

    ``text`` is walked with ``ast`` over a whitelist (integers, powers of
    ``A``, ``alpha`` and ``sqrt(alpha)``, ``sin``/``cos`` of ``phi`` or
    ``k*phi``, ``+ - *``, unary ``-``, and ``/`` by c*s^e) and never
    evaluated.  With s = sqrt(alpha) a formal variable, both sides are sums
    of terms A^a s^e cos(k phi) and A^a s^e sin(k phi), x's from its own
    dicts, with a in [a0, a1], e in [e0, e1] and k <= K.  So equal values at
    a1 - a0 + 1 values of A and e1 - e0 + 1 nonzero values of s (a
    polynomial of degree d with d + 1 roots is zero) and 2K + 1 angles in
    [0, pi) (as is a trigonometric one of degree K with 2K + 1 roots) prove
    them equal.
    """
    source = text.replace("**", "@").replace("^", "**")   # '**' is no element syntax

    def walk(node):
        # (bounds, value at (A, s, cos, sin)): the bounds (-a0, a1, -e0, e1, K)
        # negate the lowest powers, so a sum takes the larger of its operands'
        # bounds, a product their sum and a quotient their difference
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            b, v = walk(node.operand)
            return b, lambda p: -v(p)
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            (xb, x), (yb, y) = walk(node.left), walk(node.right)
            bound, op = _OPS[type(node.op)]
            if op is not operator.truediv or sum(yb) == yb[1] == 0:   # y is c*s^e
                return tuple(map(bound, xb, yb)), lambda p: op(x(p), y(p))
        m = _LEAF.fullmatch(ast.get_source_segment(source, node))
        if m is None:
            raise ValueError(f"not element syntax: {text!r}")
        name, n, trig, k, c = m.groups()
        if trig:
            k, i = int(k or 1), 2 if trig == "cos" else 3
            return (0, 0, 0, 0, k), lambda p: p[i][k]
        if c:
            c = QQ(int(c))
            return (0, 0, 0, 0, 0), lambda p: c
        a, e = {"A": (1, 0), "alpha": (0, 2), "sqrt(alpha)": (0, 1)}[name]
        a, e = a * int(n or 1), e * int(n or 1)
        return (-a, a, -e, e, 0), lambda p: p[0] ** a * p[1] ** e

    bounds, value = walk(ast.parse(source, mode="eval").body)
    waves = (x.cos, x.sin) if ring.has_phase else ({0: x}, {})
    exps = [e for wave in waves for d in wave.values() for e in d] or [0]
    a0, a1, e0, e1, K = map(max, bounds, (-amp_power, amp_power, -min(exps), max(exps),
                                          max([0, *waves[0], *waves[1]])))
    for t in range(2 * K + 1):
        # phi = 2 atan(t): cos and sin from the Pythagorean triple (1 - t^2,
        # 2t, 1 + t^2), and of k*phi by the angle-sum recurrence
        trig = [QQ(1), QQ(1 - t * t, 1 + t * t)], [QQ(0), QQ(2 * t, 1 + t * t)]
        while len(trig[0]) <= K:
            for f in trig:
                f.append(2 * trig[0][1] * f[-1] - f[-2])
        for A, s in itertools.product(map(QQ, range(1, a0 + a1 + 2)),
                                      map(QQ, range(1, e0 + e1 + 2))):
            want = sum(q * s ** e * f[k] for wave, f in zip(waves, trig)
                       for k, d in wave.items() for e, q in d.items())
            if value((A, s, *trig)) != A ** amp_power * want:
                return False
    return True


@_check("string-values")
def _string_values(ctx):
    rng = random.Random(0xF0F0)
    cases = [(label, ring, amp, draw()) for label, ring, draw in _sample_rings(rng)
             for amp in (0, 3) for _ in range(15)]
    for label, ring, amp, el in cases:
        text = format_element(ring, el, amp_power=amp)
        if not _denotes(ring, el, text, amp):
            raise AssertionError(f"{label}: {text!r} is not the element it formats")
    return f"{len(cases)} formatted strings equal their elements, proved by exact evaluation"


@_check("numeric-homomorphism")
def _numeric_homomorphism(ctx):
    rng = random.Random(0xABCD)
    alpha = QQ(7, 5)
    sym = SymbolicRing()
    phase = PhaseRing(sym)
    cases = ((sym, lambda: _rand_symbolic(rng, sym), {"alpha": alpha}),
             (phase, lambda: _rand_phase(rng, phase), {"alpha": alpha, "phi": 0.37}))
    with mpmath.workdps(50):
        worst = mpmath.mpf(0)
        for ring, draw, kw in cases:
            for _ in range(20):
                x, y = draw(), draw()
                lhs = evaluate_numeric(ring, ring.mul(x, y), **kw)
                rhs = evaluate_numeric(ring, x, **kw) * evaluate_numeric(ring, y, **kw)
                worst = max(worst, abs(lhs - rhs))
        if worst > mpmath.mpf("1e-30"):
            raise AssertionError(f"homomorphism defect {worst} exceeds 1e-30")
        return f"worst |eval(xy) - eval(x)eval(y)| = {mpmath.nstr(worst, 3)} at 50 digits"


# ---------------------------------------------------------------------------
# trig-series checks

def _rand_forcing(rng, ring, draw, harmonics=(0, 2, 3, 4)):
    f = tp_zero(ring)
    g = tp_zero(ring)
    for j in harmonics:
        for kind in ("sin", "cos"):
            if j == 0 and kind == "sin":
                continue
            if rng.random() < 0.6:
                f = tp_add(f, tp_term(ring, kind, j, draw()))
            if rng.random() < 0.6:
                g = tp_add(g, tp_term(ring, kind, j, draw()))
    return VectorTrigPoly(f, g)


@_check("solver-substitution")
def _solver_substitution(ctx):
    rng = random.Random(0xBEEF)
    sym = SymbolicRing()
    rat = numeric_ring(QQ(1))
    solved = 0
    for ring, draw in ((rat, lambda: _rand_numeric(rng, rat)),
                       (sym, lambda: _rand_symbolic(rng, sym))):
        for _ in range(15):
            forcing = _rand_forcing(rng, ring, draw)
            part = particular_solution(forcing)
            res = residual(forcing, part)
            if res.xi.sin or res.xi.cos or res.eta.sin or res.eta.cos:
                raise AssertionError("particular solution leaves a residual")
            solved += 1
    # a resonant first harmonic outside the absorbable family must be rejected
    bad = VectorTrigPoly(tp_term(rat, "cos", 1, rat.one()), tp_zero(rat))
    try:
        particular_solution(bad)
        raise AssertionError("resonant forcing was not rejected")
    except ResonantForcingError:
        pass
    return f"{solved} random forcings solved exactly, a resonant one rejected"


def _float_harmonics(tp):
    sin = {j: float(evaluate_numeric(tp.ring, c)) for j, c in tp.sin.items()}
    cos = {j: float(evaluate_numeric(tp.ring, c)) for j, c in tp.cos.items()}

    def fn(theta):
        total = 0.0
        for j, c in sin.items():
            total += c * math.sin(j * float(theta))
        for j, c in cos.items():
            total += c * math.cos(j * float(theta))
        return total
    return fn


@_check("fourier-orthogonality")
def _fourier_orthogonality(ctx):
    rng = random.Random(0x0FF5)
    ring = numeric_ring(QQ(1))
    draw = lambda: _rand_numeric(rng, ring)
    worst = 0.0
    with mpmath.workdps(30):
        for _ in range(2):
            p = _rand_forcing(rng, ring, draw, harmonics=(0, 1, 2, 3)).xi
            q = _rand_forcing(rng, ring, draw, harmonics=(0, 1, 2, 3)).eta
            # the dict-based oracle and the integer kernel build_forcing uses
            prods = (tp_mul(p, q), tp_dot([p], [q]))
            pf, qf = _float_harmonics(p), _float_harmonics(q)
            fn = lambda th: pf(th) * qf(th)
            for j in range(0, 7):
                proj_a = mpmath.quad(lambda th: fn(th) * mpmath.sin(j * th),
                                     [0, mpmath.pi, 2 * mpmath.pi]) / mpmath.pi
                proj_b = mpmath.quad(lambda th: fn(th) * mpmath.cos(j * th),
                                     [0, mpmath.pi, 2 * mpmath.pi]) / mpmath.pi
                if j == 0:
                    proj_b /= 2
                for prod in prods:
                    a_j, b_j = harmonic(prod, j)
                    worst = max(worst,
                                abs(float(evaluate_numeric(ring, a_j)) - float(proj_a)),
                                abs(float(evaluate_numeric(ring, b_j)) - float(proj_b)))
            if worst > 1e-12:
                raise AssertionError(f"Fourier projection disagrees by {worst:.2e}")
            if prods[0] != prods[1]:
                raise AssertionError("tp_dot and tp_mul products differ")
    # the phase-ring kernel against summed tp_mul products, on operands
    # with sin and cos in theta and in phi
    pairs = 0
    for base in (SymbolicRing(), numeric_ring(QQ(2))):
        pring = PhaseRing(base)
        draw = lambda: _rand_phase(rng, pring)
        for _ in range(3):
            ps, qs = zip(*(_rand_forcing(rng, pring, draw, harmonics=(0, 1, 2, 3))
                           for _ in range(2)))
            want = tp_zero(pring)
            for p, q in zip(ps, qs):
                want = tp_add(want, tp_mul(p, q))
            if tp_dot(ps, qs) != want:
                raise AssertionError("phase-ring tp_dot differs from summed tp_mul products")
            pairs += len(ps)
    return ("tp_mul and tp_dot products agree exactly and match integrated "
            f"projections to {worst:.1e}; phase-ring tp_dot equals summed "
            f"tp_mul products on {pairs} operand pairs")


# ---------------------------------------------------------------------------
# engine checks

@_check("equation-residual")
def _equation_residual(ctx):
    cap = ctx.cap
    for gauge in (GAUGE_SIMPLIFIED_XI, GAUGE_ZERO_INITIAL):
        bad = equation_residuals(ctx.series(cap, gauge=gauge))
        if bad:
            raise AssertionError(f"{gauge}: nonzero residuals at {bad}")
    return f"both gauges satisfy the scaled equations exactly through order {cap}"


@_check("odd-vanishing")
def _odd_vanishing(ctx):
    cap = ctx.odd_cap
    series = ctx.series(cap)
    ring = series.coeff_ring
    for n in range(1, cap + 1, 2):
        if not ring.is_zero(series.orders[n].omega):
            raise AssertionError(f"omega_{n} is nonzero")
    return f"odd frequency corrections vanish through order {cap}"


@_check("gauge-conditions")
def _gauge_conditions(ctx):
    cap = ctx.cap
    zi = ctx.series(cap, gauge=GAUGE_ZERO_INITIAL)
    pring = zi.coeff_ring
    # W(0) by the dict oracle: evaluate_at_zero shares the anchor's map
    for n in range(1, zi.order + 1):
        if not pring.is_zero(at_zero(zi.orders[n].xi)):
            raise AssertionError(f"zero-initial: xi_{n}(0) != 0")
        if not pring.is_zero(at_zero(zi.orders[n].eta)):
            raise AssertionError(f"zero-initial: eta_{n}(0) != 0")
    sx = ctx.series(cap)
    if sx.coeff_ring.has_phase:
        raise AssertionError("simplified-xi gauge is not using the phase-free ring")
    for n in range(1, sx.order + 1):
        a, b = harmonic(sx.orders[n].xi, 1)
        if not (sx.coeff_ring.is_zero(a) and sx.coeff_ring.is_zero(b)):
            raise AssertionError(f"simplified-xi: first harmonic of xi_{n} survives")
    se = ctx.series(min(cap, 6), gauge=GAUGE_SIMPLIFIED_ETA)
    for n in range(1, se.order + 1):
        a, b = harmonic(se.orders[n].eta, 1)
        if not (se.coeff_ring.is_zero(a) and se.coeff_ring.is_zero(b)):
            raise AssertionError(f"simplified-eta: first harmonic of eta_{n} survives")
    return f"all three gauge conditions hold exactly through order {cap}"


@_check("phase-shift")
def _phase_shift(ctx):
    # theta = tau + phi: a phase phi and a grid shifted by phi give one curve
    series = ctx.series(8, alpha=QQ(2))
    phi, t = 0.7, 2.3
    shifted = evaluate_solution(series, 0.1, phi=phi, tau_grid=[0.0, t])
    moved = evaluate_solution(series, 0.1, phi=0.0, tau_grid=[phi, t + phi])
    if not all((u == v).all() for u, v in zip(shifted[:2], moved[:2])):
        raise AssertionError("the curve at phase phi is not the curve at tau + phi")
    return "the order-8 curve at phase phi equals the curve at tau + phi exactly"


@_check("golden-strings")
def _golden_strings(ctx):
    golden = load_golden() if ctx.golden is None else ctx.golden
    series = ctx.series(8)
    ring = series.coeff_ring
    pring = series.phase_ring
    compared = 0
    for n_text, want in golden["omega"].items():
        n = int(n_text)
        got = format_element(ring, series.orders[n].omega, n)
        if got != want:
            raise AssertionError(f"omega_{n}: got {got!r}, reference {want!r}")
        compared += 1
    for key, want in golden["solutions"].items():
        n = int(key[-1])
        tp = series.orders[n].xi if key.startswith("xi") else series.orders[n].eta
        got = to_triples(tp, n + 1)
        if [list(t) for t in got] != [list(t) for t in want]:
            raise AssertionError(f"{key}: got {got!r}, reference {want!r}")
        compared += 1
    for n_text, want in golden["gauge_constants"].items():
        n = int(n_text)
        got = [format_element(pring, c, n + 1)
               for c in series.orders[n].gauge_constants]
        if got != list(want):
            raise AssertionError(f"gauge constants at order {n}: got {got!r}")
        compared += 1
    ps = series_from_engine(series, alpha=1)
    for j_text, want in golden["frequency_ratios"].items():
        j = int(j_text)
        if ps.coeffs[j] != QQ(Fraction(want)):
            raise AssertionError(f"frequency ratio d_{j}: got {ps.coeffs[j]}")
        compared += 1
    return f"{compared} frozen reference values reproduced exactly"


# ---------------------------------------------------------------------------
# approximant checks

def _rand_poly(rng, max_deg, lead_one=False):
    p = [_rand_q(rng, 5) for _ in range(rng.randint(0, max_deg) + 1)]
    if lead_one:
        p[0] = QQ(1)
    return p


@_check("pade-reproduction")
def _pade_reproduction(ctx):
    rng = random.Random(0x9ADE)
    fitted = 0
    for _ in range(ctx.samples):
        K = rng.randint(1, 3)
        L = rng.randint(1, 3)
        p_true = _rand_poly(rng, K)
        q_true = _rand_poly(rng, L, lead_one=True)
        coeffs = rational_function_series(p_true, q_true, K + L + 1)
        fit = pade_fit(PowerSeries(tuple(coeffs)), K, L)
        back = rational_function_series(list(fit.P) or [QQ(0)], list(fit.Q), K + L + 1)
        if back != coeffs:
            raise AssertionError(f"[{K}/{L}] does not reproduce its input series")
        if _poly_sum([(1, fit.P, q_true), (-1, p_true, fit.Q)]):
            raise AssertionError(f"[{K}/{L}] disagrees with the generating function")
        fitted += 1
    return f"{fitted} random rational functions recovered exactly"


@_check("hermite-pade-residual")
def _hermite_pade_residual(ctx):
    rng = random.Random(0x4EAD)
    fitted = 0
    attempts = 0
    while fitted < ctx.samples:
        attempts += 1
        if attempts > 3 * ctx.samples:
            raise AssertionError("too many degenerate random fits")
        K, L, M = (rng.randint(0, 2) for _ in range(3))
        n = K + L + M + 2
        f = [QQ(1)] + [_rand_q(rng, 5) for _ in range(n - 1)]
        try:
            fit = hermite_pade_fit(PowerSeries(tuple(f)), K, L, M)
        except DegenerateApproximantError:
            continue  # degenerate draw; take another
        f2 = poly_mul(f, f)
        if _poly_sum([(1, fit.P, f2), (1, fit.Q, f), (1, fit.R, [QQ(1)])], n):
            raise AssertionError(
                f"f[{K},{L},{M}] residual is nonzero through order {n - 1}")
        fitted += 1
    return f"{fitted} quadratic fits with exactly zero residual"


@_check("branch-point-recovery")
def _branch_point(ctx):
    coeffs = [QQ(1)]
    for j in range(1, 7):
        coeffs.append(coeffs[-1] * QQ(-4) * (QQ(1, 2) - (j - 1)) / j)
    fit = hermite_pade_fit(PowerSeries(tuple(coeffs)), 0, 0, 1)
    roots = [_to_complex(r) for r in discriminant_roots(fit)]
    best = min(roots, key=lambda r: abs(r - 0.25))
    err = abs(best - 0.25)
    if err > 1e-8:
        raise AssertionError(f"branch point found at {best}, off by {err:.2e}")
    return f"square-root branch point located within {err:.1e} of 1/4"


def _to_mpc(root):
    """A root triple of the analysis kernel as an mpc at the current
    precision, exact at ROOT_DPS digits: the oracles' view of a root."""
    re, im, shift = root
    return mpmath.mpc(mpmath.mpf((re, -shift)), mpmath.mpf((im, -shift)))


@_check("root-residuals")
def _root_residuals(ctx):
    # oracle: mpmath.polyroots from the same starts, on the coefficients as
    # exactly as the kernel takes them; equal starts test the zero-factor rule
    rng = random.Random(0x0075)
    ps = series_from_engine(ctx.series(8, alpha=QQ(1)))
    near_double = poly_mul(poly_mul([QQ(16) + QQ(1, 10 ** 40), QQ(8), QQ(1)],
                                    [QQ(-21), QQ(4), QQ(1)]), [QQ(1), QQ(0), QQ(1)])
    polys = [list(pade_fit(ps, 2, 2).Q), discriminant(hermite_pade_fit(ps, 1, 1, 1)),
             near_double]
    for _ in range(5):
        polys.append(_rand_poly(rng, 6, lead_one=True))
    certified = agreed = 0
    with mpmath.workdps(60):
        for poly in polys:
            poly = poly_trim(poly)
            if len(poly) <= 1:
                continue
            ints = over_lcm(poly)[0]          # the kernel's coefficients
            with mpmath.workdps(200):         # beyond the 443 bits both work at
                hi_to_lo = [to_mpf(c) for c in reversed(poly)]
            norm = max(abs(v) for v in hi_to_lo)
            roots = [_to_mpc(r) for r in _poly_roots(ints)]
            runs = [(roots, _float_seed(ints[::-1]))]
            if poly == near_double:
                starts = [-7, 3, -4 + 0.5j, -4 + 0.5j, 1j, -1j]
                kernel = sorted(_durand_kerner(ints[::-1], starts), key=_root_key)
                runs.append(([_to_mpc(r) for r in kernel], starts))
            for got, starts in runs:
                want = sorted(mpmath.polyroots(hi_to_lo, maxsteps=200, extraprec=4 * ROOT_DPS,
                                               roots_init=starts),
                              key=lambda z: (abs(z), -z.real, abs(z.imag), z.imag))
                if len(got) != len(want) or any(
                        abs(g - w) > abs(w) * mpmath.mpf("1e-40") for g, w in zip(got, want)):
                    raise AssertionError("a root differs from mpmath.polyroots")
                agreed += len(got)
            for r in roots:
                bound = mpmath.mpf("1e-25") * norm * max(1, abs(r)) ** (len(poly) - 1)
                if abs(mpmath.polyval(hi_to_lo, r)) > bound:
                    raise AssertionError("root residual exceeds the certification bound")
                if abs(mpmath.im(r)) > norm * mpmath.mpf("1e-40"):
                    gap = min(abs(mpmath.conj(r) - other) for other in roots)
                    if gap > abs(r) * mpmath.mpf("1e-20"):
                        raise AssertionError("complex root without its conjugate partner")
                certified += 1
    return (f"{certified} roots certified, {agreed} equal to mpmath.polyroots "
            "within 1e-40, conjugate pairs intact")


@_check("family-agreement", levels=("full",))
def _family_agreement(ctx):
    series = ctx.series(62, alpha=QQ(1))
    ps = series_from_engine(series)
    est_p = stable_singularity(ps, FAMILY_PADE, (13, 14, 15), threshold=1e-2)
    est_h = stable_singularity(ps, FAMILY_HERMITE_PADE, (9, 10), threshold=1e-2)
    for est in (est_p, est_h):
        # the spread is the whole trail's maximum pairwise distance
        spread = max(abs(a - b) for a in est.trail for b in est.trail) / abs(est.location)
        if not math.isclose(spread, est.stability_spread, rel_tol=1e-9):
            raise AssertionError(f"spread {est.stability_spread:.6g} at orders {est.orders} "
                                 f"is not its trail's {spread:.6g}")
    gap = abs(est_p.radius - est_h.radius) / min(est_p.radius, est_h.radius)
    if gap > 0.02:
        raise AssertionError(
            f"families disagree by {gap:.2%}: {est_p.radius:.6f} vs {est_h.radius:.6f}")
    return (f"order-62 estimates {est_p.radius:.6f} (pole chain) and "
            f"{est_h.radius:.6f} (branch chain) agree within {gap:.2%}, "
            "each spread that of its trail")


# ---------------------------------------------------------------------------
# integrator checks

@_check("first-integral-drift")
def _first_integral_drift(ctx):
    orbit = integrate(FIG1_ALPHA, FIG1_X0, FIG1_Y0,
                      IntegratorConfig(max_time=20 * math.pi))
    if orbit.conserved_drift > 1e-9:
        raise AssertionError(f"conserved quantity drifts by {orbit.conserved_drift:.2e}")
    return f"relative drift {orbit.conserved_drift:.1e} over ten periods"


@_check("convergence-order")
def _convergence_order(ctx):
    drifts = []
    for step in (0.04, 0.02):
        config = IntegratorConfig(step=step, tolerance=math.inf, max_time=4 * math.pi)
        drifts.append(integrate(FIG1_ALPHA, FIG1_X0, FIG1_Y0, config).conserved_drift)
    ratio = drifts[0] / drifts[1]
    if not 8 < ratio < 32:
        raise AssertionError(f"halving the step scaled the error by {ratio:.1f}, not ~16")
    return f"fixed-step error ratio {ratio:.1f} (fourth-order behaviour)"


@_check("time-reversal")
def _time_reversal(ctx):
    tol = 1e-12
    fwd = integrate(FIG1_ALPHA, FIG1_X0, FIG1_Y0,
                    IntegratorConfig(tolerance=tol, max_time=5.0))
    back = integrate(FIG1_ALPHA, float(fwd.x_values[-1]), float(fwd.y_values[-1]),
                     IntegratorConfig(tolerance=tol, max_time=-5.0))
    err = max(abs(float(back.x_values[-1]) - FIG1_X0),
              abs(float(back.y_values[-1]) - FIG1_Y0))
    if err > 10 * tol:
        raise AssertionError(f"round trip misses the start by {err:.2e}")
    return f"forward-backward round trip returns within {err:.1e}"


@_check("frequency-consistency", levels=("full",))
def _frequency_consistency(ctx):
    a = 0.05
    series = ctx.series(44, alpha=QQ(1))
    xi0, eta0, omega = evaluate_solution(series, a, tau_grid=[0.0])
    x0 = 1 + a * float(xi0[0])
    y0 = 1 + a * float(eta0[0])
    period = 2 * math.pi / omega
    orbit = integrate(1.0, x0, y0, IntegratorConfig(max_time=8 * period))
    measured = measure_frequency(orbit)
    rel = abs(measured - omega) / omega
    if rel > 1e-6:
        raise AssertionError(f"measured frequency differs by {rel:.2e} relative")
    return f"series and measured frequency agree to {rel:.1e} at a = {a}"
