"""Oracles on the dict side of :mod:`lpvolterra.trigpoly`, sharing no code
with the order step.

Everything here multiplies with :func:`tp_mul` and adds with
:func:`tp_add`, over any ring, the phase ring included (its product is
:func:`tp_mul` too), so no oracle reaches the integer kernel
:func:`~lpvolterra.trigpoly.dot_form` that it is held against.
:func:`residual` checks one solve of W' = K W + R,
:func:`equation_residuals` a whole series against the equations of
motion, and :func:`at_zero` the value of a solution at tau = 0.
"""

from .algebra import QQ
from .trigpoly import TrigPoly, VectorTrigPoly, tp_add, tp_mul, tp_sub


def tp_mul_el(p: TrigPoly, el) -> TrigPoly:
    """Multiply every coefficient by a ring element."""
    ring = p.ring
    prods = ({j: ring.mul(v, el) for j, v in store.items()} for store in (p.sin, p.cos))
    return TrigPoly(ring, *({j: w for j, w in d.items() if not ring.is_zero(w)}
                            for d in prods))


def tp_diff(p: TrigPoly) -> TrigPoly:
    """d/dtau (theta-shift leaves harmonics intact)."""
    ring = p.ring
    return TrigPoly(ring, {j: ring.scale(v, QQ(-j)) for j, v in p.cos.items() if j},
                    {j: ring.scale(v, QQ(j)) for j, v in p.sin.items()})


def k_apply(v: VectorTrigPoly) -> VectorTrigPoly:
    ring = v.xi.ring
    return VectorTrigPoly(
        tp_mul_el(v.eta, ring.neg(ring.s(-1))),
        tp_mul_el(v.xi, ring.s(1)),
    )


def residual(forcing: VectorTrigPoly, w: VectorTrigPoly) -> VectorTrigPoly:
    """W' - K W - R on the dicts; identically zero for an exact solution.
    This is the oracle that the tests and the solver-substitution check
    hold the integer solve and self-check against."""
    kw = k_apply(w)
    return VectorTrigPoly(
        tp_sub(tp_sub(tp_diff(w.xi), kw.xi), forcing.xi),
        tp_sub(tp_sub(tp_diff(w.eta), kw.eta), forcing.eta),
    )


def at_zero(p: TrigPoly) -> TrigPoly:
    """p at tau = 0 (theta = phi) as a phase-ring element, by definition:
    the sum of each theta coefficient times sin or cos(a phi)."""
    base = p.ring.base if p.ring.has_phase else p.ring
    total = TrigPoly(base)
    for kind, store in enumerate((p.sin, p.cos)):
        for a, v in store.items():
            wave = TrigPoly(base, *({a: base.one()} if k == kind else {} for k in (0, 1)))
            v = v if p.ring.has_phase else TrigPoly(base, cos={0: v})
            total = tp_add(total, tp_mul(v, wave))
    return total


def equation_residuals(series, upto=None):
    """Substitute a solved :class:`~lpvolterra.engine.PerturbationSeries`
    back into the scaled equations.

    With x = 1 + eps*xi, y = 1 + eps*eta and tau = omega*t the system
    becomes

        omega xi'  = -eta     - eps xi eta
        omega eta' = alpha xi + eps alpha xi eta

    so collecting the eps^n coefficient gives, for every n up to the
    series order,

        sum_{m<=n} omega_m xi'_{n-m}  + eta_n + C_{n-1}        = 0
        sum_{m<=n} omega_m eta'_{n-m} - alpha (xi_n + C_{n-1}) = 0

    with C_k = sum_{i+j=k} xi_i eta_j and C_{-1} = 0.  Everything is
    assembled from the finished solution by multiplication and
    differentiation alone; none of the solver's forcing construction is
    reused, which makes this an independent correctness oracle.

    Returns the list of (order, equation) pairs whose residual is not
    identically zero; empty on success.
    """
    ring = series.coeff_ring
    n_max = series.order if upto is None else min(upto, series.order)
    xs = [o.xi for o in series.orders[:n_max + 1]]
    es = [o.eta for o in series.orders[:n_max + 1]]
    ws = [o.omega for o in series.orders[:n_max + 1]]
    dxs = [tp_diff(p) for p in xs]
    des = [tp_diff(p) for p in es]
    alpha_el = ring.s(2)
    failures = []
    for n in range(n_max + 1):
        conv = TrigPoly(ring)
        for i in range(n):
            conv = tp_add(conv, tp_mul(xs[i], es[n - 1 - i]))
        r1 = tp_add(es[n], conv)
        r2 = tp_mul_el(tp_add(xs[n], conv), ring.neg(alpha_el))
        for m in range(n + 1):
            if ring.is_zero(ws[m]):
                continue
            r1 = tp_add(r1, tp_mul_el(dxs[n - m], ws[m]))
            r2 = tp_add(r2, tp_mul_el(des[n - m], ws[m]))
        if r1.sin or r1.cos:
            failures.append((n, "x"))
        if r2.sin or r2.cos:
            failures.append((n, "y"))
    return failures
