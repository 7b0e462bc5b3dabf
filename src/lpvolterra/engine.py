"""Order-by-order Lindstedt-Poincare recursion for the reduced
predator-prey oscillator

    dx/dt = x - x y,    dy/dt = alpha (-y + x y),

expanded about the center (1, 1) as x = 1 + eps*xi, y = 1 + eps*eta with
stretched time tau = omega t.  Each order n yields a trigonometric
polynomial pair (xi_n, eta_n) and a frequency correction omega_n chosen
to kill resonant forcing.  All arithmetic is exact.

Amplitude convention: the series is computed with A = 1; the scaling
identity xi(tau, eps, A) = A xi(tau, A eps, 1) recovers general A, so
the effective expansion parameter is a = eps*A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .algebra import QQ, SYMBOLIC, evaluate_numeric, numeric_ring
from .trigpoly import (PhaseRing, TrigPoly, VectorTrigPoly, evaluate_at_zero,
                       exp_tk_vector, harmonic, max_harmonic,
                       particular_solution, residual, tp_add, tp_diff, tp_dot,
                       tp_mul, tp_mul_el, tp_term, tp_zero)

GAUGE_ZERO_INITIAL = "zero-initial"
GAUGE_SIMPLIFIED_XI = "simplified-xi"
GAUGE_SIMPLIFIED_ETA = "simplified-eta"
GAUGES = (GAUGE_ZERO_INITIAL, GAUGE_SIMPLIFIED_XI, GAUGE_SIMPLIFIED_ETA)

# zero-initial solutions carry phase-polynomial coefficients whose size
# grows quickly with the order; the cap is a guard rail, not a hard limit
DEFAULT_ZERO_INITIAL_CAP = 8


class SecularInconsistencyError(ArithmeticError):
    """The two first-harmonic projections demand different omega_n."""


@dataclass(frozen=True)
class OrderSolution:
    n: int
    omega: object                 # coefficient-ring element
    xi: TrigPoly
    eta: TrigPoly
    gauge_constants: tuple        # (a_n, b_n) as phase-ring elements


@dataclass
class PerturbationSeries:
    alpha: object                 # Fraction or the string "symbolic"
    gauge: str
    orders: list
    base_ring: object
    phase_ring: PhaseRing
    coeff_ring: object            # base_ring, or phase_ring for zero-initial

    @property
    def order(self) -> int:
        return len(self.orders) - 1

    def omega_elements(self):
        return [o.omega for o in self.orders]


class ForcingWithUnknown(NamedTuple):
    """Forcing R = const + omega_n * unit, linear in the unknown omega_n."""
    const: VectorTrigPoly
    unit: VectorTrigPoly


def _base_ring_for(alpha):
    if alpha == "symbolic" or alpha is None:
        return SYMBOLIC, "symbolic"
    q = QQ(alpha)
    return numeric_ring(q), q


def _zeroth_in(coeff_ring, phase_ring) -> OrderSolution:
    xi = tp_term(coeff_ring, "cos", 1, coeff_ring.one())
    eta = tp_term(coeff_ring, "sin", 1, coeff_ring.s(1))
    gc = (evaluate_at_zero(xi, phase_ring), evaluate_at_zero(eta, phase_ring))
    return OrderSolution(0, coeff_ring.s(1), xi, eta, gc)


def build_forcing(n: int, prior: PerturbationSeries) -> ForcingWithUnknown:
    """Order-n forcing of the first-order system W' = K W + R:

      F_n = -(1/s) [ sum_{j<n} xi_j eta_{n-1-j} + sum_{j=1}^{n} omega_j xi'_{n-j} ]
      G_n =    s   sum_{j<n} xi_j eta_{n-1-j} - (1/s) sum_{j=1}^{n} omega_j eta'_{n-j}

    with s = sqrt(alpha).  The j = n terms carry the still-unknown
    omega_n; they are returned separately as a unit forcing."""
    if n < 1:
        raise ValueError("forcing is defined for orders n >= 1")
    if len(prior.orders) < n:
        raise ValueError(f"prior series incomplete: need orders 0..{n-1}")
    ring = prior.coeff_ring
    inv_s = ring.s(-1)
    s = ring.s(1)
    xis = [prior.orders[j].xi for j in range(n)]
    etas = [prior.orders[n - 1 - j].eta for j in range(n)]
    if ring.has_phase:
        # tp_dot needs phase-free coefficients; here each coefficient
        # product inside tp_mul is a PhaseRing.mul, itself one tp_dot
        conv = tp_zero(ring)
        for x, e in zip(xis, etas):
            conv = tp_add(conv, tp_mul(x, e))
    else:
        conv = tp_dot(xis, etas)
    F = tp_mul_el(conv, ring.neg(inv_s))
    G = tp_mul_el(conv, s)
    for j in range(1, n):
        wj = prior.orders[j].omega
        if ring.is_zero(wj):
            continue
        coef = ring.neg(ring.mul(inv_s, wj))
        F = tp_add(F, tp_mul_el(tp_diff(prior.orders[n - j].xi), coef))
        G = tp_add(G, tp_mul_el(tp_diff(prior.orders[n - j].eta), coef))
    # omega_n * (-1/s) (xi_0', eta_0') = omega_n * ((1/s) sin, -cos)
    unit = VectorTrigPoly(tp_term(ring, "sin", 1, inv_s),
                          tp_term(ring, "cos", 1, ring.neg(ring.one())))
    return ForcingWithUnknown(VectorTrigPoly(F, G), unit)


def remove_secular(n: int, forcing: ForcingWithUnknown):
    """Choose omega_n so the first harmonic of F' - G/s vanishes (the
    resonant part of the equivalent second-order equation), then return
    (omega_n, resolved forcing).

    The unknown enters only the cos projection; the sin projection must
    vanish on its own, and a nonzero value would mean no single omega_n
    satisfies both equations."""
    ring = forcing.const.xi.ring
    inv_s = ring.s(-1)

    def first_harmonic_of_s(vec: VectorTrigPoly):
        S = tp_add(tp_diff(vec.xi), tp_mul_el(vec.eta, ring.neg(inv_s)))
        return harmonic(S, 1)

    c_sin, c_cos = first_harmonic_of_s(forcing.const)
    u_sin, u_cos = first_harmonic_of_s(forcing.unit)
    if not ring.is_zero(u_sin):
        # does not happen for this model's unit forcing
        raise SecularInconsistencyError("unit forcing leaks into the sin projection")
    if ring.is_zero(u_cos):
        raise SecularInconsistencyError("degenerate secular system")
    omega_n = ring.neg(ring.div(c_cos, u_cos))
    if not ring.is_zero(c_sin):
        raise SecularInconsistencyError(
            f"order {n}: sin projection of the resonant forcing is nonzero")
    resolved = VectorTrigPoly(
        tp_add(forcing.const.xi, tp_mul_el(forcing.unit.xi, omega_n)),
        tp_add(forcing.const.eta, tp_mul_el(forcing.unit.eta, omega_n)))
    return omega_n, resolved


def solve_linear_anchored(particular: VectorTrigPoly, phase_ring: PhaseRing):
    """Shift a particular solution so W(0) = (0, 0); the one way a
    solution is anchored to an initial condition."""
    v1 = phase_ring.neg(evaluate_at_zero(particular.xi, phase_ring))
    v2 = phase_ring.neg(evaluate_at_zero(particular.eta, phase_ring))
    if phase_ring.is_zero(v1) and phase_ring.is_zero(v2):
        return particular
    hom = exp_tk_vector(phase_ring, v1, v2)
    return VectorTrigPoly(tp_add(particular.xi, hom.xi),
                          tp_add(particular.eta, hom.eta))


def _check_order(n: int, gauge: str, forcing: VectorTrigPoly, w: VectorTrigPoly):
    ring = w.xi.ring
    res = residual(forcing, w)
    if any([res.xi.sin, res.xi.cos, res.eta.sin, res.eta.cos]):
        raise AssertionError(f"order {n}: nonzero residual")
    if max(max_harmonic(w.xi), max_harmonic(w.eta)) > n + 1:
        raise AssertionError(f"order {n}: harmonic above n+1")
    if gauge != GAUGE_ZERO_INITIAL:
        want = (n + 1) % 2
        for tp in (w.xi, w.eta):
            for j in list(tp.sin) + list(tp.cos):
                if j % 2 != want:
                    raise AssertionError(f"order {n}: parity-violating harmonic {j}")


def run(N: int, alpha="symbolic", gauge: str = GAUGE_SIMPLIFIED_XI,
        zero_initial_order_cap: int = DEFAULT_ZERO_INITIAL_CAP) -> PerturbationSeries:
    """Compute the perturbation series through order N (A = 1).

    ``alpha`` is ``"symbolic"`` or a positive rational.  The zero-initial
    gauge is capped at ``zero_initial_order_cap`` because its phase-ring
    coefficients grow fast; pass a larger cap explicitly to go higher.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if gauge not in GAUGES:
        raise ValueError(f"unknown gauge {gauge!r}; expected one of {GAUGES}")
    if gauge == GAUGE_ZERO_INITIAL and N > zero_initial_order_cap:
        raise ValueError(
            f"zero-initial gauge capped at order {zero_initial_order_cap}; "
            "raise zero_initial_order_cap to override")
    base, alpha_tag = _base_ring_for(alpha)
    phase = PhaseRing(base)
    coeff = phase if gauge == GAUGE_ZERO_INITIAL else base
    series = PerturbationSeries(alpha=alpha_tag, gauge=gauge, orders=[],
                                base_ring=base, phase_ring=phase, coeff_ring=coeff)
    series.orders.append(_zeroth_in(coeff, phase))
    absorb = "eta" if gauge == GAUGE_SIMPLIFIED_ETA else "xi"
    for n in range(1, N + 1):
        fw = build_forcing(n, series)
        omega_n, forcing = remove_secular(n, fw)
        part = particular_solution(forcing, absorb=absorb)
        if gauge == GAUGE_ZERO_INITIAL:
            gc = (coeff.zero(), coeff.zero())
            w = solve_linear_anchored(part, coeff)
        else:
            # the absorb choice already zeroes the first harmonic of xi_n
            # (simplified-xi) or eta_n (simplified-eta)
            w = part
            gc = (evaluate_at_zero(w.xi, phase), evaluate_at_zero(w.eta, phase))
        _check_order(n, gauge, forcing, w)
        series.orders.append(OrderSolution(n, omega_n, w.xi, w.eta, gc))
    return series


def evaluate_solution(series: PerturbationSeries, a, A=1.0, phi=0.0,
                      tau_grid=None, alpha=None, order: Optional[int] = None):
    """Numeric partial sums of the series at expansion parameter a = eps*A.

    Returns (xi, eta, omega): xi, eta sampled on tau_grid (numpy arrays),
    omega a float.  The stored series uses A = 1; the amplitude identity
    xi(tau, eps, A) = A xi(tau, A eps, 1) supplies general A, so xi and
    eta are A * (partial sum in a) while omega is the partial sum in a
    alone.  ``alpha`` must be given for a symbolic-alpha series.
    """
    import numpy as np

    if tau_grid is None:
        tau_grid = np.linspace(0.0, 2.0 * math.pi, 257)
    tau = np.asarray(tau_grid, dtype=float)
    ring = series.coeff_ring
    if series.alpha == "symbolic":
        if alpha is None:
            raise ValueError("alpha required to evaluate a symbolic series")
        alpha_val = QQ(alpha)
    else:
        if alpha is not None and QQ(alpha) != series.alpha:
            raise ValueError("alpha disagrees with the series")
        alpha_val = None  # fixed by the ring
    N = series.order if order is None else min(order, series.order)
    a = float(a)
    A = float(A)
    phi = float(phi)

    def coeff_value(el):
        return float(evaluate_numeric(ring, el, alpha=alpha_val, phi=phi, dps=50))

    sin_acc: dict = {}
    cos_acc: dict = {}
    omega = 0.0
    ap = 1.0
    for n in range(N + 1):
        sol = series.orders[n]
        omega += coeff_value(sol.omega) * ap
        for j, v in sol.xi.sin.items():
            sin_acc[("xi", j)] = sin_acc.get(("xi", j), 0.0) + coeff_value(v) * ap
        for j, v in sol.xi.cos.items():
            cos_acc[("xi", j)] = cos_acc.get(("xi", j), 0.0) + coeff_value(v) * ap
        for j, v in sol.eta.sin.items():
            sin_acc[("eta", j)] = sin_acc.get(("eta", j), 0.0) + coeff_value(v) * ap
        for j, v in sol.eta.cos.items():
            cos_acc[("eta", j)] = cos_acc.get(("eta", j), 0.0) + coeff_value(v) * ap
        ap *= a
    theta = tau + phi
    xi = np.zeros_like(tau)
    eta = np.zeros_like(tau)
    for (comp, j), c in sin_acc.items():
        target = xi if comp == "xi" else eta
        target += c * np.sin(j * theta)
    for (comp, j), c in cos_acc.items():
        target = xi if comp == "xi" else eta
        target += c * np.cos(j * theta) if j else np.full_like(tau, c)
    return A * xi, A * eta, omega
