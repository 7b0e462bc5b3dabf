"""Series orbit against direct integration at small amplitude.

Runs the classic comparison: alpha = 1, amplitude a = 0.1, starting
phase pi/4.  The zeroth-order orbit is the linearized ellipse; adding
the first two corrections shrinks the worst deviation from the true
orbit by a factor of about four hundred, and the corrected frequency
already agrees with the measured one to parts per million.  (What is
left is series truncation, not integrator error: taking the frequency
sum to order 44 instead pushes the gap below 1e-11.)
"""

import math

import numpy as np

from lpvolterra import GAUGE_SIMPLIFIED_XI, QQ, run
from lpvolterra.engine import evaluate_solution
from lpvolterra.verify import (IntegratorConfig, compare_orbit, integrate,
                               measure_frequency)

ALPHA = 1
AMPLITUDE = 0.1
PHASE = math.pi / 4
POINTS = 513


def gap_for_order(order):
    series = run(order, QQ(ALPHA), GAUGE_SIMPLIFIED_XI)
    tau = np.linspace(0.0, 2 * math.pi, POINTS)
    xi, eta, omega = evaluate_solution(series, AMPLITUDE, phi=PHASE,
                                       tau_grid=tau)
    x0 = 1 + AMPLITUDE * float(xi[0])
    y0 = 1 + AMPLITUDE * float(eta[0])
    t_eval = tau / omega
    orbit = integrate(float(ALPHA), x0, y0,
                      IntegratorConfig(max_time=float(t_eval[-1])),
                      t_eval=t_eval)
    return omega, orbit, compare_orbit(xi, eta, orbit, AMPLITUDE)


def main():
    print(f"alpha = {ALPHA}, a = {AMPLITUDE}, phi = pi/4, one period\n")
    for order in (0, 1, 2):
        omega, orbit, gaps = gap_for_order(order)
        print(f"order {order}: omega = {omega:.10f}   "
              f"max gap = {gaps.max_gap:.3e}   rms = {gaps.rms_gap:.3e}")

    omega, orbit, _ = gap_for_order(2)
    long_orbit = integrate(float(ALPHA), orbit.x_values[0], orbit.y_values[0],
                           IntegratorConfig(max_time=16 * math.pi / omega))
    measured = measure_frequency(long_orbit)
    print(f"\nmeasured frequency over eight periods: {measured:.10f}")
    print(f"series frequency, order 2:             {omega:.10f}")
    print(f"relative difference: {abs(measured - omega) / omega:.2e}")
    print(f"energy-like drift of the integrator: {long_orbit.conserved_drift:.2e}")


if __name__ == "__main__":
    main()
