"""Exact Lindstedt-Poincare series for the Lotka-Volterra oscillator,
with convergence-radius estimation and numeric cross-validation."""

from .algebra import (QQ, SYMBOLIC, ExactDivisionError, NumericRing,
                      SymbolicRing, alpha_polynomial, canonical,
                      evaluate_numeric, format_element, numeric_ring,
                      parse_element, rational_sqrt)
from .trigpoly import (PhaseRing, ResonantForcingError, TrigPoly,
                       VectorTrigPoly, particular_solution,
                       solve_linear_anchored, to_triples)
from .reference import residual
from .engine import (GAUGE_SIMPLIFIED_ETA, GAUGE_SIMPLIFIED_XI,
                     GAUGE_ZERO_INITIAL, GAUGES, OrderSolution,
                     PerturbationSeries, SecularInconsistencyError,
                     build_forcing, evaluate_solution, remove_secular, run)
from .analysis import (FAMILIES, FAMILY_HERMITE_PADE, FAMILY_PADE,
                       DegenerateApproximantError, NoStableRootError,
                       PadeApprox, PowerSeries, QuadHermitePade, ScanRow,
                       SingularityEstimate, default_orders, discriminant,
                       discriminant_roots, hermite_pade_fit, pade_fit,
                       pade_poles, radius_scan, series_from_engine,
                       stable_singularity)
from .verify import (IntegratorConfig, OrbitComparison, OrbitSample,
                     compare_orbit, first_integral, integrate, lv_rhs,
                     measure_frequency)
from .checks import (CheckResult, check_names, equation_residuals,
                     iter_checks, load_golden)

__version__ = "0.1.0"
