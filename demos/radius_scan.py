"""How far the series reaches as the predator/prey rate ratio varies.

Scans the convergence radius of the frequency series over a grid of
alpha values at order 44.  The radius shrinks steadily as alpha grows,
so the expansion is most useful when the prey dynamics are slow against
the predator dynamics.  The nearest singularity is a complex-conjugate
pair in z = a^2; its location is printed for alpha = 1.
"""

from lpvolterra import QQ
from lpvolterra.analysis import (FAMILY_HERMITE_PADE, FAMILY_PADE,
                                 radius_scan, series_from_engine,
                                 stable_singularity)
from lpvolterra.engine import GAUGE_SIMPLIFIED_XI, run

GRID = [QQ(1, 4), QQ(1, 2), QQ(1), QQ(2), QQ(4)]
ORDER = 44


def main():
    print(f"convergence radius in z = a^2, series order {ORDER}\n")
    print(f"  {'alpha':>6}  {'branch-point':>12}  {'pole':>10}")
    for row in radius_scan(GRID, ORDER):
        rc = {family: f"{est.radius:.6f}" for family, est in row.estimates.items()}
        branch, pole = rc.get(FAMILY_HERMITE_PADE, "-"), rc.get(FAMILY_PADE, "-")
        print(f"  {str(row.alpha):>6}  {branch:>12}  {pole:>10}")
        if row.error:
            print(f"          ({row.error})")

    ps = series_from_engine(run(ORDER, QQ(1), GAUGE_SIMPLIFIED_XI))
    est = stable_singularity(ps, FAMILY_HERMITE_PADE, threshold=5e-2)
    print(f"\nat alpha = 1 the nearest singularity sits at "
          f"z = {est.location:.6f}")
    print("(off the real axis: the series is oscillation-limited, not "
          "blocked by a real blow-up)")


if __name__ == "__main__":
    main()
