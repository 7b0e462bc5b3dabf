"""The oracles of lpvolterra.reference never reach the integer kernel they
check: they run with dot_form and tp_dot disabled, and the module imports
only the dict side of trigpoly."""

import ast
import pathlib

import pytest

import lpvolterra.trigpoly as trigpoly
from lpvolterra.algebra import QQ
from lpvolterra.engine import (GAUGE_SIMPLIFIED_XI, GAUGE_ZERO_INITIAL,
                               build_forcing, remove_secular, run)
from lpvolterra.reference import at_zero, equation_residuals, residual
from lpvolterra.trigpoly import PhaseRing, VectorTrigPoly, evaluate_at_zero

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "lpvolterra" / "reference.py"

ALLOWED = {".algebra": {"QQ"},
           ".trigpoly": {"TrigPoly", "VectorTrigPoly", "tp_add", "tp_sub", "tp_mul"}}


def _kernel_reached(*args, **kwargs):
    raise AssertionError("the integer kernel was reached")


@pytest.mark.parametrize("alpha,N", [("symbolic", 6), (2, 8)])
def test_oracles_never_reach_the_kernel(alpha, N, monkeypatch):
    series = run(N, alpha, GAUGE_ZERO_INITIAL)
    assert isinstance(series.coeff_ring, PhaseRing)
    forcings = [remove_secular(n, build_forcing(n, series))[1] for n in range(1, N + 1)]
    for f in forcings:
        f.xi.sin, f.eta.sin     # build the dicts while the kernel still runs
    monkeypatch.setattr(trigpoly, "dot_form", _kernel_reached)
    monkeypatch.setattr(trigpoly, "tp_dot", _kernel_reached)
    assert equation_residuals(series) == []
    for n, forcing in enumerate(forcings, start=1):
        sol = series.orders[n]
        res = residual(forcing, VectorTrigPoly(sol.xi, sol.eta))
        assert not (res.xi.sin or res.xi.cos or res.eta.sin or res.eta.cos), n
        assert series.coeff_ring.is_zero(at_zero(sol.xi)), n
        assert series.coeff_ring.is_zero(at_zero(sol.eta)), n


@pytest.mark.parametrize("alpha,N,gauge", [("symbolic", 6, GAUGE_ZERO_INITIAL),
                                           (2, 8, GAUGE_ZERO_INITIAL),
                                           (QQ(9, 4), 6, GAUGE_ZERO_INITIAL),
                                           ("symbolic", 8, GAUGE_SIMPLIFIED_XI)])
def test_at_zero_agrees_with_evaluate_at_zero(alpha, N, gauge):
    # the integer at-zero map, which the anchor shares, against the dict
    # oracle that the gauge-conditions check reads W(0) with
    series = run(N, alpha, gauge)
    for sol in series.orders:
        for p in (sol.xi, sol.eta):
            assert evaluate_at_zero(p) == at_zero(p), sol.n


def test_the_poisoned_kernel_is_detected(monkeypatch):
    # the patch reaches every call made inside trigpoly: the zero-initial
    # anchor, which calls dot_form there, now fails
    monkeypatch.setattr(trigpoly, "dot_form", _kernel_reached)
    with pytest.raises(AssertionError, match="kernel was reached"):
        run(2, "symbolic", GAUGE_ZERO_INITIAL)


def test_reference_imports_only_the_dict_side():
    imports = {}
    for node in ast.walk(ast.parse(SOURCE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imports.setdefault(None, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imports.setdefault(module, set()).update(a.name for a in node.names)
    assert imports == ALLOWED
