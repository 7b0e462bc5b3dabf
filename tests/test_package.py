"""The package's public names and the CLI's patch points, which both
resolve on first use: every name ``lpvolterra`` has always re-exported is
the object its module defines, and a name patched on ``lpvolterra.cli``
before any command loads its module is the one the command calls."""

import importlib
import subprocess
import sys

import pytest

import lpvolterra

# every name lpvolterra re-exports, by the module that defines it
EXPORTS = {
    "algebra": ["QQ", "SYMBOLIC", "NumericRing", "SymbolicRing",
                "alpha_polynomial", "evaluate_numeric", "format_element",
                "numeric_ring", "rational_sqrt"],
    "trigpoly": ["PhaseRing", "ResonantForcingError", "TrigPoly",
                 "VectorTrigPoly", "particular_solution",
                 "solve_linear_anchored", "to_triples"],
    "reference": ["residual"],
    "engine": ["GAUGE_SIMPLIFIED_ETA", "GAUGE_SIMPLIFIED_XI",
               "GAUGE_ZERO_INITIAL", "GAUGES", "OrderSolution",
               "PerturbationSeries", "SecularInconsistencyError",
               "build_forcing", "evaluate_solution", "remove_secular", "run"],
    "analysis": ["FAMILIES", "FAMILY_HERMITE_PADE", "FAMILY_PADE",
                 "DegenerateApproximantError", "NoConvergenceError",
                 "NoStableRootError",
                 "PadeApprox", "PowerSeries", "QuadHermitePade", "ScanRow",
                 "SingularityEstimate", "default_orders", "discriminant",
                 "discriminant_roots", "hermite_pade_fit", "pade_fit",
                 "pade_poles", "radius_scan", "series_from_engine",
                 "stable_singularity"],
    "verify": ["IntegratorConfig", "OrbitComparison", "OrbitSample",
               "compare_orbit", "first_integral", "integrate", "lv_rhs",
               "measure_frequency"],
    "checks": ["CheckResult", "check_names", "equation_residuals",
               "iter_checks", "load_golden"],
}


@pytest.mark.parametrize("module", list(EXPORTS))
def test_every_reexport_is_the_modules_object(module):
    defined = importlib.import_module(f"lpvolterra.{module}")
    listed = dir(lpvolterra)
    assert getattr(lpvolterra, module) is defined
    assert module in listed
    for name in EXPORTS[module]:
        imported = {}
        exec(f"from lpvolterra import {name}", imported)
        assert getattr(lpvolterra, name) is getattr(defined, name), name
        assert imported[name] is getattr(defined, name), name
        assert name in listed, name


def test_unknown_names_raise_attribute_error():
    for module in (lpvolterra, lpvolterra.cli):
        with pytest.raises(AttributeError):
            module.no_such_name
    assert lpvolterra.__version__ == "0.1.0"


def fresh(script, child_env, tmp_path):
    """stdout and stderr of ``script`` run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=child_env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def test_importing_the_package_loads_no_submodule(child_env, tmp_path):
    out, _ = fresh("import sys, lpvolterra\n"
                   "print(sorted(m for m in sys.modules if m.startswith('lpvolterra.')))",
                   child_env, tmp_path)
    assert out == "[]\n"


PATCHED_FIRST = """
import lpvolterra.cli as cli

def intercept(name):
    def call(*args, **kwargs):
        raise ValueError(name + " intercepted")
    return call

cli.radius_scan = intercept("radius_scan")
cli.integrate = intercept("integrate")
print(cli.main(["radius", "--alpha", "1", "--order", "8"]),
      cli.main(["orbit", "--a", "0.1", "--order", "2", "--points", "16",
                "--no-radius-check"]))
"""


def test_names_patched_before_the_first_command_are_called(child_env, tmp_path):
    # a patch set before the command loads analysis or verify survives the
    # load, so a test's forbid still catches the call
    out, err = fresh(PATCHED_FIRST, child_env, tmp_path)
    assert out == "1 1\n"
    assert err == "error: radius_scan intercepted\nerror: integrate intercepted\n"
