"""Exact Lindstedt-Poincare series for the Lotka-Volterra oscillator,
with convergence-radius estimation and numeric cross-validation.

The public names below and the submodules load on first access (PEP 562),
so importing the package, or running one command of its CLI, loads only
the modules that are used."""

import importlib

# the public names, by the submodule that defines them
_EXPORTS = {
    "algebra": ("QQ", "SYMBOLIC", "NumericRing", "SymbolicRing",
                "alpha_polynomial", "evaluate_numeric", "format_element",
                "numeric_ring", "rational_sqrt"),
    "trigpoly": ("PhaseRing", "ResonantForcingError", "TrigPoly",
                 "VectorTrigPoly", "particular_solution",
                 "solve_linear_anchored", "to_triples"),
    "reference": ("residual",),
    "engine": ("GAUGE_SIMPLIFIED_ETA", "GAUGE_SIMPLIFIED_XI",
               "GAUGE_ZERO_INITIAL", "GAUGES", "OrderSolution",
               "PerturbationSeries", "SecularInconsistencyError",
               "build_forcing", "evaluate_solution", "remove_secular", "run"),
    "analysis": ("FAMILIES", "FAMILY_HERMITE_PADE", "FAMILY_PADE",
                 "DegenerateApproximantError", "NoConvergenceError",
                 "NoStableRootError",
                 "PadeApprox", "PowerSeries", "QuadHermitePade", "ScanRow",
                 "SingularityEstimate", "default_orders", "discriminant",
                 "discriminant_roots", "hermite_pade_fit", "pade_fit",
                 "pade_poles", "radius_scan", "series_from_engine",
                 "stable_singularity"),
    "verify": ("IntegratorConfig", "OrbitComparison", "OrbitSample",
               "compare_orbit", "first_integral", "integrate", "lv_rhs",
               "measure_frequency"),
    "checks": ("CheckResult", "check_names", "equation_residuals",
               "iter_checks", "load_golden"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "constants")

__all__ = [*_EXPORTS, *_HOME]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
