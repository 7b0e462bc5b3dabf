"""The self-test suites must pass on a healthy tree, catch corruption,
and the residual oracle must actually reject wrong series."""

import json

import pytest

from lpvolterra.checks import (CheckResult, check_names, equation_residuals,
                               iter_checks, load_golden)
from lpvolterra.engine import (GAUGE_SIMPLIFIED_XI, GAUGE_ZERO_INITIAL,
                               OrderSolution, run)
from lpvolterra.trigpoly import tp_add, tp_term


@pytest.fixture(scope="module")
def sym6():
    return run(6, "symbolic", GAUGE_SIMPLIFIED_XI)


class TestEquationResiduals:
    def test_clean_simplified_xi(self, sym6):
        assert equation_residuals(sym6) == []

    def test_clean_zero_initial(self):
        series = run(5, "symbolic", GAUGE_ZERO_INITIAL)
        assert equation_residuals(series) == []

    def test_clean_numeric_alpha(self):
        assert equation_residuals(run(8, 2, GAUGE_SIMPLIFIED_XI)) == []

    def test_upto_restricts_orders(self, sym6):
        assert equation_residuals(sym6, upto=3) == []

    def test_tampered_solution_is_rejected(self):
        series = run(4, "symbolic", GAUGE_SIMPLIFIED_XI)
        ring = series.coeff_ring
        sol = series.orders[2]
        dirty = tp_add(sol.xi, tp_term(ring, "cos", 2, ring.one()))
        series.orders[2] = OrderSolution(2, sol.omega, dirty, sol.eta)
        failures = equation_residuals(series)
        assert (2, "x") in failures
        assert (2, "y") in failures

    def test_tampered_frequency_is_rejected(self):
        series = run(4, "symbolic", GAUGE_SIMPLIFIED_XI)
        ring = series.coeff_ring
        sol = series.orders[2]
        series.orders[2] = OrderSolution(2, ring.add(sol.omega, ring.one()),
                                         sol.xi, sol.eta)
        assert equation_residuals(series) != []


class TestGoldenData:
    def test_package_copy_loads(self):
        golden = load_golden()
        assert set(golden["omega"]) == {"2", "4", "6", "8"}
        assert "xi1" in golden["solutions"]
        assert set(golden["frequency_ratios"]) == {"1", "2", "3", "4"}

    def test_explicit_path_wins(self, tmp_path):
        path = tmp_path / "explicit.json"
        path.write_text(json.dumps({"ok": 1}), encoding="utf-8")
        assert load_golden(str(path)) == {"ok": 1}

    def test_corruption_fails_named_check(self):
        golden = load_golden()
        golden["omega"]["4"] = golden["omega"]["4"].replace("6912", "6913")
        results = list(iter_checks("quick", names=["golden-strings"],
                                   golden=golden))
        assert len(results) == 1
        assert results[0].name == "golden-strings"
        assert not results[0].passed
        assert "omega_4" in results[0].detail

    @pytest.mark.parametrize("golden", [{}, [], {"omega": None}])
    def test_malformed_data_fails_not_raises(self, golden):
        results = list(iter_checks("quick", names=["golden-strings"],
                                   golden=golden))
        assert not results[0].passed


class TestSuite:
    def test_quick_suite_all_pass(self):
        results = list(iter_checks("quick"))
        failed = [r for r in results if not r.passed]
        assert failed == [], [f"{r.name}: {r.detail}" for r in failed]
        assert [r.name for r in results] == check_names("quick")
        assert all(isinstance(r, CheckResult) and r.detail for r in results)
        assert all(r.elapsed >= 0 for r in results)

    def test_full_level_adds_slow_checks(self):
        quick = set(check_names("quick"))
        full = set(check_names("full"))
        assert {"family-agreement", "frequency-consistency"} <= full - quick
        assert {"equation-residual", "odd-vanishing", "golden-strings"} <= quick & full

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            list(iter_checks("exhaustive"))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown check"):
            list(iter_checks("quick", names=["no-such-check"]))

    def test_iter_streams_incrementally(self):
        it = iter_checks("quick", names=["ring-axioms"])
        first = next(it)
        assert first.name == "ring-axioms" and first.passed
        assert list(it) == []
