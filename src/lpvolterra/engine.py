"""Order-by-order Lindstedt-Poincare recursion for the reduced
predator-prey oscillator

    dx/dt = x - x y,    dy/dt = alpha (-y + x y),

expanded about the center (1, 1) as x = 1 + eps*xi, y = 1 + eps*eta with
stretched time tau = omega t.  Each order n yields a trigonometric
polynomial pair (xi_n, eta_n) and a frequency correction omega_n chosen
to kill resonant forcing.  All arithmetic is exact.  Per order, the
Cauchy product and the frequency sums sum_j omega_j xi_{n-j} and
sum_j omega_j eta_{n-j} are one :func:`tp_dot` each, and omega_n comes in
closed form from the first harmonic of the forcing.

Amplitude convention: the series is computed with A = 1.  The scaling
identity xi(tau, eps, A) = A xi(tau, A eps, 1) recovers general A: the
expansion parameter is a = eps*A, and xi and eta scale by A while omega
does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .algebra import QQ, SYMBOLIC, evaluate_numeric, numeric_ring
# tp_mul is not called here: it stays importable because the benchmark
# tracer wraps engine.tp_mul by name
from .trigpoly import (PhaseRing, TrigPoly, VectorTrigPoly, evaluate_at_zero,
                       exp_tk_vector, harmonic, max_harmonic,
                       particular_solution, residual, tp_add, tp_diff, tp_dot,
                       tp_mul, tp_mul_el, tp_sub, tp_term)

GAUGE_ZERO_INITIAL = "zero-initial"
GAUGE_SIMPLIFIED_XI = "simplified-xi"
GAUGE_SIMPLIFIED_ETA = "simplified-eta"
GAUGES = (GAUGE_ZERO_INITIAL, GAUGE_SIMPLIFIED_XI, GAUGE_SIMPLIFIED_ETA)


class SecularInconsistencyError(ArithmeticError):
    """The two first-harmonic projections demand different omega_n."""


@dataclass(frozen=True)
class OrderSolution:
    n: int
    omega: object                 # coefficient-ring element
    xi: TrigPoly
    eta: TrigPoly

    @property
    def gauge_constants(self) -> tuple:
        """(xi_n(0), eta_n(0)) as phase-ring elements."""
        return evaluate_at_zero(self.xi), evaluate_at_zero(self.eta)


@dataclass
class PerturbationSeries:
    gauge: str
    orders: list
    coeff_ring: object            # phase-free, or a PhaseRing for zero-initial

    @property
    def order(self) -> int:
        return len(self.orders) - 1

    @property
    def phase_ring(self) -> PhaseRing:
        ring = self.coeff_ring
        return ring if ring.has_phase else PhaseRing(ring)


def _zeroth_in(ring) -> OrderSolution:
    xi = tp_term(ring, "cos", 1, ring.one())
    eta = tp_term(ring, "sin", 1, ring.s(1))
    return OrderSolution(0, ring.s(1), xi, eta)


def build_forcing(n: int, prior: PerturbationSeries) -> VectorTrigPoly:
    """Known part of the order-n forcing of the first-order system W' = K W + R:

      C_n = sum_{j<n} xi_j eta_{n-1-j}
      F_n = -(1/s) [ C_n + (sum_{j=1}^{n-1} omega_j xi_{n-j})' ]
      G_n =    s C_n - (1/s) (sum_{j=1}^{n-1} omega_j eta_{n-j})'

    with s = sqrt(alpha).  Differentiation is linear, so each frequency sum
    is one :func:`tp_dot` over constant omega_j / s operands, differentiated
    once.  The j = n terms carry the still-unknown omega_n;
    :func:`remove_secular` adds them."""
    if n < 1:
        raise ValueError("forcing is defined for orders n >= 1")
    if len(prior.orders) < n:
        raise ValueError(f"prior series incomplete: need orders 0..{n-1}")
    ring = prior.coeff_ring
    inv_s = ring.s(-1)
    orders = prior.orders
    conv = tp_dot([orders[j].xi for j in range(n)],
                  [orders[n - 1 - j].eta for j in range(n)])
    js = [j for j in range(1, n) if not ring.is_zero(orders[j].omega)]
    ws = [tp_term(ring, "cos", 0, ring.mul(inv_s, orders[j].omega)) for j in js]
    # at n = 1, 2 every omega_j is zero and tp_dot([], []) has ring None;
    # tp_sub takes its ring from the first operand
    F = tp_sub(tp_mul_el(conv, ring.neg(inv_s)),
               tp_diff(tp_dot(ws, [orders[n - j].xi for j in js])))
    G = tp_sub(tp_mul_el(conv, ring.s(1)),
               tp_diff(tp_dot(ws, [orders[n - j].eta for j in js])))
    return VectorTrigPoly(F, G)


def remove_secular(n: int, forcing: VectorTrigPoly):
    """Choose omega_n so the first harmonic of F' - G/s vanishes (the
    resonant part of the equivalent second-order equation), then return
    (omega_n, resolved forcing).

    omega_n enters as omega_n ((1/s) sin theta, -cos theta), whose F' - G/s
    projection is (sin, cos) = (0, 2/s).  So, with (f_s, f_c) and (g_s, g_c)
    the first harmonics of F and G, f_c + g_s/s must vanish on its own and
    omega_n = (s/2)(g_c/s - f_s) = (g_c - s f_s)/2."""
    F, G = forcing
    ring = F.ring
    s = ring.s(1)
    f_s, f_c = harmonic(F, 1)
    g_s, g_c = harmonic(G, 1)
    if not ring.is_zero(ring.add(g_s, ring.mul(s, f_c))):
        raise SecularInconsistencyError(
            f"order {n}: sin projection of the resonant forcing is nonzero")
    omega_n = ring.scale(ring.sub(g_c, ring.mul(s, f_s)), QQ(1, 2))
    resolved = VectorTrigPoly(
        tp_add(F, tp_term(ring, "sin", 1, ring.mul(ring.s(-1), omega_n))),
        tp_add(G, tp_term(ring, "cos", 1, ring.neg(omega_n))))
    return omega_n, resolved


def solve_linear_anchored(particular: VectorTrigPoly):
    """Shift a particular solution so W(0) = (0, 0); the one way a
    solution is anchored to an initial condition.  ``particular`` has
    phase-ring coefficients, since the homogeneous shift mixes phi in."""
    P = particular.xi.ring
    v1 = P.neg(evaluate_at_zero(particular.xi))
    v2 = P.neg(evaluate_at_zero(particular.eta))
    if P.is_zero(v1) and P.is_zero(v2):
        return particular
    hom = exp_tk_vector(P, v1, v2)
    return VectorTrigPoly(tp_add(particular.xi, hom.xi),
                          tp_add(particular.eta, hom.eta))


def check_harmonics(n: int, gauge: str, xi: TrigPoly, eta: TrigPoly):
    """Raise AssertionError unless order n carries no harmonic above n + 1
    and, in the simplified gauges, only harmonics of the parity of n + 1."""
    if max(max_harmonic(xi), max_harmonic(eta)) > n + 1:
        raise AssertionError(f"{gauge}: order {n} contains a harmonic above {n + 1}")
    if gauge != GAUGE_ZERO_INITIAL:
        want = (n + 1) % 2
        for tp in (xi, eta):
            for j in list(tp.sin) + list(tp.cos):
                if j % 2 != want:
                    raise AssertionError(
                        f"{gauge}: order {n}: harmonic {j} breaks the parity pattern")


def _check_order(n: int, gauge: str, forcing: VectorTrigPoly, w: VectorTrigPoly):
    res = residual(forcing, w)
    if any([res.xi.sin, res.xi.cos, res.eta.sin, res.eta.cos]):
        raise AssertionError(f"order {n}: nonzero residual")
    check_harmonics(n, gauge, w.xi, w.eta)


def run(N: int, alpha="symbolic", gauge: str = GAUGE_SIMPLIFIED_XI) -> PerturbationSeries:
    """Compute the perturbation series through order N (A = 1).

    ``alpha`` is ``"symbolic"`` or a positive rational.  The zero-initial
    gauge works over the phase ring, whose coefficients grow fast with the
    order.  Every stored order has passed :func:`_check_order`.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if gauge not in GAUGES:
        raise ValueError(f"unknown gauge {gauge!r}; expected one of {GAUGES}")
    base = SYMBOLIC if alpha in ("symbolic", None) else numeric_ring(QQ(alpha))
    coeff = PhaseRing(base) if gauge == GAUGE_ZERO_INITIAL else base
    series = PerturbationSeries(gauge=gauge, orders=[], coeff_ring=coeff)
    series.orders.append(_zeroth_in(coeff))
    absorb = "eta" if gauge == GAUGE_SIMPLIFIED_ETA else "xi"
    for n in range(1, N + 1):
        omega_n, forcing = remove_secular(n, build_forcing(n, series))
        # the absorb choice zeroes the first harmonic of xi_n (simplified-xi)
        # or eta_n (simplified-eta); zero-initial anchors W_n(0) = 0 instead
        w = particular_solution(forcing, absorb=absorb)
        if gauge == GAUGE_ZERO_INITIAL:
            w = solve_linear_anchored(w)
        _check_order(n, gauge, forcing, w)
        series.orders.append(OrderSolution(n, omega_n, w.xi, w.eta))
    return series


def evaluate_solution(series: PerturbationSeries, a, phi=0.0, tau_grid=None,
                      alpha=None, order: Optional[int] = None):
    """Numeric partial sums of the series at expansion parameter a.

    Returns (xi, eta, omega): xi, eta sampled on tau_grid (numpy arrays),
    omega a float, each the partial sum in a through ``order`` (default
    the whole series).  ``alpha`` goes to :func:`evaluate_numeric`, so it
    is required for a symbolic-alpha series and must match a numeric one.
    """
    import numpy as np

    if tau_grid is None:
        tau_grid = np.linspace(0.0, 2.0 * math.pi, 257)
    tau = np.asarray(tau_grid, dtype=float)
    ring = series.coeff_ring
    N = series.order if order is None else min(order, series.order)
    a = float(a)
    phi = float(phi)

    def coeff_value(el):
        return float(evaluate_numeric(ring, el, alpha=alpha, phi=phi, dps=50))

    # {kind: {(component, harmonic): partial sum}}; each array adds its sin
    # terms, then its cos terms, each in order of first appearance
    acc: dict = {"sin": {}, "cos": {}}
    omega = 0.0
    ap = 1.0
    for n in range(N + 1):
        sol = series.orders[n]
        omega += coeff_value(sol.omega) * ap
        for comp in ("xi", "eta"):
            for kind, sums in acc.items():
                for j, v in getattr(getattr(sol, comp), kind).items():
                    sums[comp, j] = sums.get((comp, j), 0.0) + coeff_value(v) * ap
        ap *= a
    theta = tau + phi
    out = {"xi": np.zeros_like(tau), "eta": np.zeros_like(tau)}
    for kind, sums in acc.items():
        for (comp, j), c in sums.items():
            out[comp] += c * getattr(np, kind)(j * theta)
    return out["xi"], out["eta"], omega
