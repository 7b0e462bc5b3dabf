"""The self-test suites must pass on a healthy tree, catch corruption,
and the residual oracle must actually reject wrong series."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpvolterra.algebra import QQ, SYMBOLIC, format_element
from lpvolterra.checks import (CheckResult, _denotes, check_names,
                               equation_residuals, iter_checks, load_golden)
from lpvolterra.engine import (GAUGE_SIMPLIFIED_XI, GAUGE_ZERO_INITIAL,
                               OrderSolution, run)
from lpvolterra.trigpoly import PhaseRing, tp_add, tp_term


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

    def test_evaluator_rejects_a_changed_character(self):
        golden = load_golden()["omega"]["4"]
        omega4 = run(4, "symbolic", GAUGE_SIMPLIFIED_XI).orders[4].omega
        assert _denotes(SYMBOLIC, omega4, golden, 4)
        assert not _denotes(SYMBOLIC, omega4, golden.replace("/6912", "/6913"), 4)

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


small_elements = st.dictionaries(
    st.integers(min_value=-3, max_value=4),
    st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool),
    max_size=3).map(lambda d: {k: QQ(v) for k, v in d.items()})


@given(small_elements, small_elements, st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=3), st.booleans())
@settings(max_examples=80, deadline=None)
def test_evaluator_decides_equality(x, y, amp_x, amp_y, same):
    # a string denotes exactly one element and one amplitude power
    if same:
        x = y
    text = format_element(SYMBOLIC, y, amp_y)
    assert _denotes(SYMBOLIC, x, text, amp_x) == (x == y and (amp_x == amp_y or not x))


@pytest.mark.parametrize("text", ["alpha**2", "alpha//2", "0x10", "1_0", "alpha^x",
                                  "(alpha+1)^2", "alpha/(alpha+1)", "alpha/A",
                                  "A^-1", "sin(phi*2)", "sin(A)", "phi", "+alpha",
                                  "1e5", "1.5", "sqrt(A)", "alpha^2^2", "alpha^+2",
                                  "alpha.real", "[alpha]", "alpha if A else 1",
                                  '__import__("os")', "True", "+-alpha^2",
                                  "alpha- -2^2"])
def test_evaluator_rejects_other_syntax(text):
    with pytest.raises(ValueError, match="not element syntax"):
        _denotes(SYMBOLIC, {}, text)


@pytest.mark.parametrize("text", ["", " ", "2alpha", "1)+(2", "007"])
def test_evaluator_rejects_non_expressions(text):
    with pytest.raises(SyntaxError):
        _denotes(SYMBOLIC, {}, text)


@pytest.mark.parametrize("ring, text, want, amp", [
    (SYMBOLIC, "2*-alpha^2", {4: QQ(-2)}, 0),
    (SYMBOLIC, "1+-alpha^2", {0: QQ(1), 4: QQ(-1)}, 0),
    (SYMBOLIC, "A*-A^2", {0: QQ(-1)}, 3),
    (PhaseRing(SYMBOLIC), "sin(phi)*-cos(2*phi)", None, 0),
])
def test_evaluator_reads_unary_minus(ring, text, want, amp):
    # unary minus binds looser than ^, and after an operator negates its operand
    if want is None:
        want = ring.neg(ring.mul(ring.sin_phi(1), ring.cos_phi(2)))
    assert _denotes(ring, want, text, amp)
    assert not _denotes(ring, ring.neg(want), text, amp)
