"""Print the exact frequency corrections, then watch the numeric series.

The cycle frequency only picks up even corrections, so the series in the
amplitude a is really a series in z = a^2.  Two things are worth seeing
at alpha = 1: the sign pattern of the coefficients never settles into a
fixed period (the nearest singularity is a complex pair, not a point on
the real axis), and the root test |d_j|^(-1/j) creeps toward the radius
only logarithmically.  Both are the reason the package estimates the
radius through approximants instead.
"""

import math

from lpvolterra import GAUGE_SIMPLIFIED_XI, QQ, format_element, run
from lpvolterra.analysis import (FAMILY_HERMITE_PADE, series_from_engine,
                                 stable_singularity)

SYMBOLIC_ORDER = 8
NUMERIC_ORDER = 44


def main():
    series = run(SYMBOLIC_ORDER, "symbolic", GAUGE_SIMPLIFIED_XI)
    ring = series.coeff_ring
    print("exact frequency corrections (A = amplitude):")
    print("  omega_0 = sqrt(alpha)")
    for n in range(2, SYMBOLIC_ORDER + 1, 2):
        print(f"  omega_{n} = {format_element(ring, series.orders[n].omega, n)}")

    numeric = run(NUMERIC_ORDER, QQ(1), GAUGE_SIMPLIFIED_XI)
    ps = series_from_engine(numeric)
    print(f"\nalpha = 1, coefficients d_j of omega/omega_0 = sum d_j z^j:")
    print(f"  {'j':>2}  {'d_j':>13}  {'sign':>4}  {'|d_j|^(-1/j)':>12}")
    for j in range(1, len(ps)):
        d = float(ps.coeffs[j])
        root = abs(d) ** (-1.0 / j) if d else math.inf
        print(f"  {j:>2}  {d:>13.4e}  {'+' if d > 0 else '-':>4}  {root:>12.4f}")

    est = stable_singularity(ps, FAMILY_HERMITE_PADE, threshold=5e-2)
    print(f"\nthe root test above is still far from converged; the stable")
    print(f"branch-point estimate from the same coefficients gives")
    print(f"  z_s = {est.location:.6f}   |z_s| = {est.radius:.6f}")
    print(f"so the series converges for a^2 < {est.radius:.3f},"
          f" i.e. a < {math.sqrt(est.radius):.3f}")


if __name__ == "__main__":
    main()
