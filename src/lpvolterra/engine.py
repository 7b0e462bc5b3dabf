"""Order-by-order Lindstedt-Poincare recursion for the reduced
predator-prey oscillator

    dx/dt = x - x y,    dy/dt = alpha (-y + x y),

expanded about the center (1, 1) as x = 1 + eps*xi, y = 1 + eps*eta with
stretched time tau = omega t.  Each order n yields a trigonometric
polynomial pair (xi_n, eta_n) and a frequency correction omega_n chosen
to kill resonant forcing.  All arithmetic is exact.

Each order step runs on the integer forms of :mod:`lpvolterra.trigpoly`
(integer numerators over one denominator) and builds no rational but
omega_n.  The Cauchy product and the frequency sums
sum_j omega_j xi_{n-j} and sum_j omega_j eta_{n-j} are one
:func:`dot_form` each; the forcing is assembled from them with integer
scalings, shifts of the s-exponent and a derivative.  omega_n comes in
closed form from the forcing's first harmonic; the harmonic solve,
anchored to W_n(0) = 0 on its numerators in the zero-initial gauge,
returns (xi_n, eta_n) as reduced integer forms, the ones later orders
multiply; and the self-check W' - K W - R = 0 folds the integer residual
of those forms to zero.  The rationals of xi_n and eta_n are built only
when their dicts are read, so neither the radius scan nor the printed
series, whose strings and gauge constants come from the forms, builds them.

Amplitude convention: the series is computed with A = 1.  The scaling
identity xi(tau, eps, A) = A xi(tau, A eps, 1) recovers general A: the
expansion parameter is a = eps*A, and xi and eta scale by A while omega
does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .algebra import QQ, SYMBOLIC, evaluate_numeric, numeric_ring
# tp_mul is not called here: it stays importable because the benchmark
# tracer wraps engine.tp_mul by name
from .trigpoly import (PhaseRing, TrigPoly, VectorTrigPoly, combine,
                       derivative, dot_form, evaluate_at_zero, int_form,
                       particular_solution, resonance,
                       solve_linear_anchored, tp_mul, tp_term, vanishes)

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
        """(xi_n(0), eta_n(0)) as phase-ring elements, read off the forms."""
        return evaluate_at_zero(self.xi), evaluate_at_zero(self.eta)

    @cached_property
    def _frequency_operand(self) -> TrigPoly:
        """omega_n / s as a constant TrigPoly: the operand of the frequency
        sums of every later order, built once so it is encoded once."""
        ring = self.xi.ring
        return tp_term(ring, "cos", 0, ring.mul(ring.s(-1), self.omega))


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
    is one :func:`dot_form` over constant omega_j / s operands,
    differentiated once.  F and G are returned as TrigPolys of their
    integer forms (:func:`combine`), which build no rational unless their
    dicts are read.  The j = n terms carry the still-unknown omega_n;
    :func:`remove_secular` adds them."""
    if n < 1:
        raise ValueError("forcing is defined for orders n >= 1")
    if len(prior.orders) < n:
        raise ValueError(f"prior series incomplete: need orders 0..{n-1}")
    ring = prior.coeff_ring
    orders = prior.orders
    conv = dot_form([orders[j].xi for j in range(n)],
                    [orders[n - 1 - j].eta for j in range(n)])
    js = [j for j in range(1, n) if not ring.is_zero(orders[j].omega)]
    ws = [orders[j]._frequency_operand for j in js]
    sum_xi = derivative(dot_form(ws, [orders[n - j].xi for j in js]))
    sum_eta = derivative(dot_form(ws, [orders[n - j].eta for j in js]))
    F = combine([(conv, -1, -1), (sum_xi, -1, 0)])
    G = combine([(conv, 1, 1), (sum_eta, -1, 0)])
    return VectorTrigPoly(TrigPoly(ring, enc=F), TrigPoly(ring, enc=G))


def remove_secular(n: int, forcing: VectorTrigPoly):
    """Choose omega_n so the first harmonic of F' - G/s vanishes (the
    resonant part of the equivalent second-order equation), then return
    (omega_n, resolved forcing).

    omega_n enters as omega_n ((1/s) sin theta, -cos theta).  With H the
    first harmonic of G - s F' (:func:`resonance`), whose sin and cos
    parts are g_s + s f_c and g_c - s f_s for the first harmonics (f_s,
    f_c) and (g_s, g_c) of F and G, the sin part must vanish on its own
    and omega_n = (g_c - s f_s)/2.  Then omega_n cos theta = H/2 and
    omega_n sin theta = -(H/2)', so the resolved forcing is
    (F - (1/s)(H/2)', G - H/2), on integer forms over twice the lcm of
    F's and G's denominators; only omega_n is built as rationals."""
    F, G = forcing
    ring = F.ring
    f, g = int_form(F), int_form(G)
    h = resonance(f, g)
    half = h._replace(den=2 * h.den)
    H = TrigPoly(ring, enc=half)
    if H.sin:
        raise SecularInconsistencyError(
            f"order {n}: sin projection of the resonant forcing is nonzero")
    omega_n = H.cos.get(1, ring.zero())
    resolved = VectorTrigPoly(
        TrigPoly(ring, enc=combine([(f, 1, 0), (derivative(half), -1, -1)])),
        TrigPoly(ring, enc=combine([(g, 1, 0), (half, -1, 0)])))
    return omega_n, resolved


def check_harmonics(gauge: str, sol: OrderSolution):
    """Raise AssertionError unless order n = sol.n carries no harmonic
    above n + 1, in the simplified gauges only harmonics of the parity of
    n + 1, and the s-parity of (omega_n, xi_n, eta_n).

    The s-parity follows from the freedom to pick the other square root,
    (s, theta, phi) -> (-s, -theta, -phi), with s = sqrt(alpha): in the
    integer forms, every sin wave of a theta + c phi has an odd exponent
    of s and every cos wave an even one, and so does omega_n / s as a
    constant.  Phase-free, the coefficients of sin(j theta) and omega_n
    are odd in s and those of cos(j theta) even; over the phase ring
    (zero-initial) each sine among the phi factors flips that parity.
    For a square alpha s is rational and the ring folds every exponent to
    0, so the s-parity is not checked there."""
    n, xi, eta = sol.n, sol.xi, sol.eta
    # theta harmonics, read off the integer forms' angle sums (a, c)
    harmonics = {a for tp in (xi, eta) for pair in int_form(tp).terms.values()
                 for store in pair for a, _ in store}
    if max(harmonics, default=0) > n + 1:
        raise AssertionError(f"{gauge}: order {n} contains a harmonic above {n + 1}")
    if gauge != GAUGE_ZERO_INITIAL:
        want = (n + 1) % 2
        for j in sorted(harmonics):
            if j % 2 != want:
                raise AssertionError(
                    f"{gauge}: order {n}: harmonic {j} breaks the parity pattern")
    ring = xi.ring
    base = ring.base if ring.has_phase else ring
    if 1 not in base.s(1):       # s is rational: a square alpha
        return
    for name, tp in (("omega", sol._frequency_operand), ("xi", xi), ("eta", eta)):
        for e, waves in int_form(tp).terms.items():
            if waves[e % 2]:          # (sin, cos): cos at odd e, sin at even e
                raise AssertionError(f"{gauge}: order {n}: {name} has a "
                                     f"{('sin', 'cos')[e % 2]} wave at s^{e}, "
                                     "breaking the sqrt(alpha) parity")


def _check_order(gauge: str, forcing: VectorTrigPoly, sol: OrderSolution):
    """Raise AssertionError unless W = (sol.xi, sol.eta) solves
    W' = K W + R for the forcing R exactly, and the order passes
    :func:`check_harmonics`.

    The residual xi' + eta/s - F and eta' - s xi - G is formed on integer
    forms and folded to zero.  W's form is the one the solve returned and
    later orders multiply; the rationals built from it on first read are
    not checked here (tests/test_engine.py holds them to the form)."""
    ring = forcing.xi.ring
    xi, eta, f, g = (int_form(p) for p in (sol.xi, sol.eta, *forcing))
    for res in ([(derivative(xi), 1, 0), (eta, 1, -1), (f, -1, 0)],
                [(derivative(eta), 1, 0), (xi, -1, 1), (g, -1, 0)]):
        if not vanishes(ring, combine(res)):
            raise AssertionError(f"order {sol.n}: nonzero residual")
    check_harmonics(gauge, sol)


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
        w = (solve_linear_anchored(forcing) if gauge == GAUGE_ZERO_INITIAL
             else particular_solution(forcing, absorb=absorb))
        sol = OrderSolution(n, omega_n, w.xi, w.eta)
        _check_order(gauge, forcing, sol)
        series.orders.append(sol)
    return series


def evaluate_solution(series: PerturbationSeries, a, phi=0.0, tau_grid=None,
                      alpha=None):
    """Numeric partial sums of the series at expansion parameter a.

    Returns (xi, eta, omega): xi, eta sampled on tau_grid (numpy arrays),
    omega a float, each the partial sum in a over every order of the
    series.  ``alpha`` goes to :func:`evaluate_numeric`, so it is required
    for a symbolic-alpha series and must match a numeric one.
    """
    import numpy as np

    if tau_grid is None:
        tau_grid = np.linspace(0.0, 2.0 * math.pi, 257)
    tau = np.asarray(tau_grid, dtype=float)
    ring = series.coeff_ring
    a = float(a)
    phi = float(phi)

    # {kind: {(component, harmonic): partial sum}}; each array adds its sin
    # terms, then its cos terms, each in order of first appearance
    acc: dict = {"sin": {}, "cos": {}}
    # one evaluate_numeric call for every coefficient, in the order read below
    elements = [el for sol in series.orders
                for el in (sol.omega, *sol.xi.sin.values(), *sol.xi.cos.values(),
                           *sol.eta.sin.values(), *sol.eta.cos.values())]
    values = iter(evaluate_numeric(ring, elements, alpha=alpha, phi=phi, dps=50))
    omega = 0.0
    ap = 1.0
    for sol in series.orders:
        omega += float(next(values)) * ap
        for comp in ("xi", "eta"):
            for kind, sums in acc.items():
                for j in getattr(getattr(sol, comp), kind):
                    sums[comp, j] = sums.get((comp, j), 0.0) + float(next(values)) * ap
        ap *= a
    theta = tau + phi
    out = {"xi": np.zeros_like(tau), "eta": np.zeros_like(tau)}
    for kind, sums in acc.items():
        waves = {}     # xi and eta share each wave, kept until its second use
        for (comp, j), c in sums.items():
            wave = waves.pop(j, None)
            if wave is None:
                wave = getattr(np, kind)(j * theta)
                if ("eta" if comp == "xi" else "xi", j) in sums:
                    waves[j] = wave
            out[comp] += c * wave
    return out["xi"], out["eta"], omega
