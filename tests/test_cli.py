"""Command-line surface: argument handling, output files, manifests,
exit codes.  Everything runs in-process through main(argv)."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings

from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import lpvolterra.cli
from lpvolterra.analysis import NoConvergenceError, NoStableRootError
from lpvolterra.checks import load_golden
from lpvolterra.cli import (BadArguments, fmt_sig, main, parse_alpha,
                            parse_angle, parse_rational)
from lpvolterra.engine import GAUGES
from lpvolterra.trigpoly import TrigPoly


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    # every command writes into the cwd by default
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def forbid(monkeypatch, name):
    """Make lpvolterra.cli.<name> fail the test if the command calls it."""
    def called(*args, **kwargs):
        raise AssertionError(f"{name} ran before the arguments were checked")
    monkeypatch.setattr(lpvolterra.cli, name, called)


def write_params(path, command, params):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"command": command, "parameters": params}, fh)


def read_metrics(prefix="orbit"):
    rows = read_csv(f"{prefix}_metrics.csv")
    assert rows[0] == ["metric", "value"]
    return dict(rows[1:])


class TestParsers:
    def test_rational_accepts_decimals_exactly(self):
        assert parse_rational("0.25") == parse_rational("1/4")

    def test_alpha_symbolic_passthrough(self):
        assert parse_alpha("symbolic") == "symbolic"

    @pytest.mark.parametrize("text", ["1_0", "1_0/3", "1.5_0", "1e1_0"])
    @pytest.mark.parametrize("command,argv", [
        ("series", ["--order", "2"]),
        ("radius", ["--order", "12"]),
        ("orbit", ["--a", "0.1", "--order", "2", "--no-radius-check"])])
    def test_rational_refuses_underscores(self, text, command, argv, capsys,
                                          monkeypatch):
        # Fraction reads "1_0" as 10 on Python 3.11 and refuses it on 3.10
        forbid(monkeypatch, MANIFEST_PARAMS[command][1])
        assert main([command, "--alpha", text, *argv]) == 2
        assert capsys.readouterr().err == f"error: not a rational number: {text!r}\n"
        assert os.listdir() == []

    def test_alpha_must_be_positive(self):
        with pytest.raises(BadArguments):
            parse_alpha("0")
        with pytest.raises(BadArguments):
            parse_alpha("-3")

    @pytest.mark.parametrize("text,value", [
        ("pi/4", math.pi / 4),
        ("-3*pi/8", -3 * math.pi / 8),
        ("2pi", 2 * math.pi),
        ("0.5", 0.5),
        ("0", 0.0),
    ])
    def test_angle_literals(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=1e-15)

    def test_angle_garbage_rejected(self):
        with pytest.raises(BadArguments):
            parse_angle("quarter turn")

    def test_fmt_sig(self):
        assert fmt_sig(3.5372542339336586, 10) == "3.537254234"
        assert fmt_sig(None, 10) == ""


class TestSeriesCommand:
    def test_symbolic_order8(self, capsys):
        assert main(["series", "--order", "8", "--output", "s.json"]) == 0
        out = capsys.readouterr().out
        assert ("omega_4 = -(A^4*sqrt(alpha)*(5*alpha^2+34*alpha+29))/6912"
                in out)
        assert "omega_8 = " in out

        with open("s.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["alpha"] == "symbolic"
        assert len(doc["orders"]) == 9
        assert doc["orders"][2]["omega"] == "-(A^2*sqrt(alpha)*(alpha+1))/24"
        # odd frequency corrections vanish in this gauge
        assert all(doc["orders"][n]["omega"] == "0" for n in (1, 3, 5, 7))

        with open("s.json.manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "series"
        assert manifest["parameters"]["order"] == 8
        assert manifest["outputs"] == ["s.json"]

    def test_order0_prints_base_frequency_only(self, capsys):
        assert main(["series", "--order", "0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["omega_0 = sqrt(alpha)"]

    def test_zero_initial_gauge_has_odd_corrections(self, capsys):
        assert main(["series", "--order", "3", "--gauge", "zero-initial"]) == 0
        out = capsys.readouterr().out
        assert "omega_3 = " in out

    def test_alpha_past_the_float_range(self, capsys):
        # series writes exact strings, so any positive rational is fine
        assert main(["series", "--order", "2", "--alpha", "1e400"]) == 0
        with open("series.json", encoding="utf-8") as fh:
            assert json.load(fh)["alpha"] == str(10**400)

    @pytest.mark.parametrize("text, written", [(" Symbolic ", "symbolic"),
                                               ("SYMBOLIC", "symbolic"),
                                               ("4/2", "2")])
    def test_alpha_written_canonically(self, capsys, text, written):
        assert main(["series", "--order", "2", "--alpha", text]) == 0
        with open("series.json", encoding="utf-8") as fh:
            assert json.load(fh)["alpha"] == written

    def test_numeric_alpha(self, capsys):
        assert main(["series", "--order", "2", "--alpha", "9/4"]) == 0
        out = capsys.readouterr().out
        assert "omega_0 = 3/2" in out

    @pytest.mark.parametrize("gauge", ["simplified-xi", "zero-initial"])
    def test_printing_builds_no_rationals(self, gauge, capsys, monkeypatch):
        # every string is formatted from the solved orders' integer forms:
        # the dicts of xi_n and eta_n (n >= 1), built on first read, stay unbuilt
        runs, run = [], lpvolterra.cli.run

        def recording_run(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(lpvolterra.cli, "run", recording_run)
        assert main(["series", "--order", "6", "--gauge", gauge]) == 0
        (series,) = runs
        built = []
        for sol in series.orders[1:]:
            for name, tp in (("xi", sol.xi), ("eta", sol.eta)):
                for slot in ("sin", "cos"):
                    try:
                        getattr(TrigPoly, slot).__get__(tp)   # no lazy build
                        built.append(f"{name}_{sol.n}.{slot}")
                    except AttributeError:
                        pass
        assert len(series.orders) == 7 and built == []

    def test_missing_order_is_usage_error(self, capsys):
        assert main(["series"]) == 2
        assert "series needs --order" in capsys.readouterr().err


class TestRadiusCommand:
    def test_alpha1_order44(self, capsys):
        assert main(["radius", "--alpha", "1", "--order", "44"]) == 0
        rows = read_csv("radius.csv")
        assert rows[0] == ["alpha", "order", "rc_pade", "rc_hermite_pade",
                           "spread_pade", "spread_hp"]
        assert rows[1][:2] == ["1", "44"]
        assert float(rows[1][2]) == pytest.approx(3.5372542339, abs=1e-9)
        assert float(rows[1][3]) == pytest.approx(3.4640026617, abs=1e-9)
        # both families land within 5% of each other here
        assert abs(float(rows[1][2]) - float(rows[1][3])) < 0.05 * float(rows[1][3])

    def test_order44_scan_is_byte_identical(self, capsys):
        assert main(["radius", "--alpha", "1/2,1,2", "--order", "44"]) == 0
        assert capsys.readouterr().err == ""
        with open("radius.csv", encoding="utf-8", newline="") as fh:
            assert fh.read() == (
                "alpha,order,rc_pade,rc_hermite_pade,spread_pade,spread_hp\n"
                "0.5,44,3.868763633,3.797006947,0.04867425725,0.02192984522\n"
                "1,44,3.537254234,3.464002662,0.03997972715,0.01953851336\n"
                "2,44,2.708410266,2.635363113,0.04086875839,0.002896582345\n")

    @pytest.mark.parametrize("alpha", ["1e400", "1e-400"])
    def test_alpha_outside_float_range_rejected(self, alpha, capsys, monkeypatch):
        # the CSV writes alpha as a float: 1e400 overflows, 1e-400 reads 0
        forbid(monkeypatch, "radius_scan")
        want = f"error: alpha {alpha} is outside the float range\n"
        assert main(["radius", "--alpha", f"1, {alpha}", "--order", "8"]) == 2
        assert capsys.readouterr().err == want
        write_params("m.json", "radius", dict(MANIFEST_PARAMS["radius"][0], alpha=alpha))
        assert main(["radius", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == want
        assert sorted(os.listdir()) == ["m.json"]

    @pytest.mark.parametrize("order", [-1, 0, 1, 7])
    def test_too_low_order_fails_cleanly(self, order, capsys, monkeypatch):
        # below MIN_RADIUS_ORDER no two-point chain can form: bad input
        forbid(monkeypatch, "radius_scan")
        want = f"error: order must be >= 8; got {order}\n"
        assert main(["radius", "--alpha", "1", "--order", str(order)]) == 2
        assert capsys.readouterr().err == want
        write_params("m.json", "radius", dict(MANIFEST_PARAMS["radius"][0], order=order))
        assert main(["radius", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == want
        assert sorted(os.listdir()) == ["m.json"]

    @pytest.mark.parametrize("families", ["pade,pade",
                                          "hermite-pade,pade, hermite-pade"])
    def test_family_given_twice_rejected(self, families, capsys, monkeypatch):
        forbid(monkeypatch, "radius_scan")
        want = f"error: family {families.split(',')[0]!r} given twice\n"
        assert main(["radius", "--alpha", "1", "--order", "12",
                     "--families", families]) == 2
        assert capsys.readouterr().err == want
        write_params("m.json", "radius",
                     dict(MANIFEST_PARAMS["radius"][0], families=families))
        assert main(["radius", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == want
        assert sorted(os.listdir()) == ["m.json"]

    @pytest.mark.parametrize("alphas,shown", [("1,2/2", "1"),
                                              ("9/4, 2, 2.25", "9/4")])
    def test_alpha_given_twice_rejected(self, alphas, shown, capsys, monkeypatch):
        # equal values, however written, would repeat the scan's work and row
        forbid(monkeypatch, "radius_scan")
        want = f"error: alpha {shown} given twice\n"
        assert main(["radius", "--alpha", alphas, "--order", "12"]) == 2
        assert capsys.readouterr().err == want
        write_params("m.json", "radius", dict(MANIFEST_PARAMS["radius"][0], alpha=alphas))
        assert main(["radius", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == want
        assert sorted(os.listdir()) == ["m.json"]

    def test_unstable_family_leaves_field_empty(self, capsys):
        # at alpha = 1/4 the plain-ratio family does not settle at this order
        assert main(["radius", "--alpha", "1/4", "--order", "44"]) == 0
        captured = capsys.readouterr()
        rows = read_csv("radius.csv")
        assert rows[1][2] == ""                      # no pade estimate
        assert float(rows[1][3]) == pytest.approx(4.0237, abs=2e-3)
        assert "pade" in captured.err                # the failure is reported

    def test_manifest_rerun_is_byte_identical(self, tmp_path):
        assert main(["radius", "--alpha", "1", "--order", "44",
                     "--output", "r.csv"]) == 0
        first = (tmp_path / "r.csv").read_bytes()
        digest = hashlib.sha256(first).hexdigest()
        (tmp_path / "r.csv").unlink()
        assert main(["radius", "--from-manifest", "r.csv.manifest.json"]) == 0
        second = (tmp_path / "r.csv").read_bytes()
        assert hashlib.sha256(second).hexdigest() == digest

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_threshold_must_be_finite_and_positive(self, value, capsys):
        assert main(["radius", "--alpha", "1", "--order", "12",
                     "--threshold", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: threshold must be finite and > 0")
        assert err.count("\n") == 1
        assert not os.path.exists("radius.csv")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_digits_must_be_positive(self, value, capsys, monkeypatch):
        forbid(monkeypatch, "radius_scan")
        assert main(["radius", "--alpha", "1", "--order", "12",
                     "--digits", value]) == 2
        assert capsys.readouterr().err == f"error: digits must be >= 1; got {value}\n"
        assert not os.path.exists("radius.csv")

    @pytest.mark.parametrize("value", [0, -1])
    def test_digits_checked_from_manifest(self, value, capsys, monkeypatch):
        forbid(monkeypatch, "radius_scan")
        write_params("m.json", "radius",
                     {"alpha": "1", "order": 12, "families": "pade,hermite-pade",
                      "threshold": 0.05, "digits": value, "output": "radius.csv"})
        assert main(["radius", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == f"error: digits must be >= 1; got {value}\n"

    def test_manifest_for_other_command_rejected(self, capsys):
        assert main(["series", "--order", "0", "--output", "s.json"]) == 0
        assert main(["radius", "--from-manifest", "s.json.manifest.json"]) == 2
        assert "manifest" in capsys.readouterr().err


class TestOrbitCommand:
    def test_small_amplitude_comparison(self, capsys):
        assert main(["orbit", "--alpha", "1", "--a", "0.1", "--phi", "pi/4",
                     "--order", "2"]) == 0
        metrics = read_metrics()
        assert float(metrics["omega_series"]) == pytest.approx(0.9991666667, abs=1e-9)
        assert float(metrics["max_gap"]) < 1e-3
        assert abs(float(metrics["conserved_drift"])) < 1e-9
        assert float(metrics["radius_estimate"]) == pytest.approx(3.464, abs=2e-3)
        rows = read_csv("orbit_comparison.csv")
        assert rows[0] == ["tau", "xi_series", "eta_series",
                           "xi_numeric", "eta_numeric"]
        assert len(rows) == 513

    def test_negative_pi_literal_in_equals_form(self, capsys):
        # "--phi -pi/4" reads as a flag with no value, so the help text and
        # README give the "=" form; it must be the same phase as the number
        common = ["orbit", "--a", "0.1", "--order", "2", "--points", "64",
                  "--no-radius-check"]
        assert main([*common, "--phi=-pi/4", "--output", "lit"]) == 0
        assert main([*common, "--phi", "-0.7853981633974483", "--output", "num"]) == 0
        with open("lit_orbit.csv", "rb") as lit, open("num_orbit.csv", "rb") as num:
            assert lit.read() == num.read()
        with pytest.raises(SystemExit) as exc:
            main([*common, "--phi", "-pi/4"])
        assert exc.value.code == 2

    def test_higher_order_shrinks_gap(self):
        assert main(["orbit", "--alpha", "1", "--a", "0.1", "--order", "0",
                     "--no-radius-check", "--output", "o0"]) == 0
        assert main(["orbit", "--alpha", "1", "--a", "0.1", "--order", "2",
                     "--no-radius-check", "--output", "o2"]) == 0
        gap0 = float(read_metrics("o0")["max_gap"])
        gap2 = float(read_metrics("o2")["max_gap"])
        assert gap2 < gap0 / 10

    def test_zero_amplitude_is_exact(self):
        assert main(["orbit", "--alpha", "1", "--a", "0", "--order", "4",
                     "--output", "flat"]) == 0
        metrics = read_metrics("flat")
        assert metrics["max_gap"] == "0"
        assert metrics["rms_gap"] == "0"

    def test_amplitude_beyond_radius_warns_but_runs(self, capsys):
        assert main(["orbit", "--alpha", "1", "--a", "2.0", "--order", "2",
                     "--output", "big"]) == 0
        err = capsys.readouterr().err
        assert "exceeds the estimated convergence radius" in err
        assert float(read_metrics("big")["max_gap"]) > 0.1

    @pytest.mark.parametrize("argv,omega", [
        (["--a", "1e160", "--no-radius-check"], "-inf"),
        (["--a", "5"], "-1.083")])
    def test_series_frequency_must_be_finite_and_positive(self, argv, omega,
                                                          capsys, monkeypatch):
        forbid(monkeypatch, "_estimate_radius")
        assert main(["orbit", "--alpha", "1", "--order", "2", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the order-2 series frequency at a = ")
        assert f" is {omega}, " in err and err.count("\n") == 1
        assert os.listdir(".") == []

    def test_series_curve_must_be_finite(self, capsys, monkeypatch):
        forbid(monkeypatch, "_estimate_radius")
        monkeypatch.setattr(lpvolterra.cli, "evaluate_solution",
                            lambda series, a, phi, tau_grid: (tau_grid * math.nan,
                                                              tau_grid, 1.0))
        assert main(["orbit", "--a", "0.1", "--order", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: the order-2 series curve at a = 0.1 is not finite; lower a\n")
        assert os.listdir(".") == []

    @pytest.mark.parametrize("argv,shown", [
        (["--a", "2", "--phi", "pi", "--order", "2"], "a = 2 (x0 = -1, y0 = 1)"),
        (["--a", "-1.5", "--order", "0", "--no-radius-check"],
         "a = -1.5 (x0 = -0.5, y0 = 1)")])
    def test_unphysical_zeroth_order_point_rejected(self, argv, shown, capsys,
                                                    monkeypatch):
        # the series point is unphysical, and so is the zeroth-order point
        # the orbit would fall back to: no note, no radius estimate
        forbid(monkeypatch, "_estimate_radius")
        forbid(monkeypatch, "integrate")
        assert main(["orbit", *argv]) == 2
        assert capsys.readouterr().err == (
            "error: the zeroth-order orbit at " + shown + " is outside the "
            "positive quadrant; lower |a|\n")
        assert os.listdir(".") == []

    def test_unphysical_zeroth_order_point_rejected_from_manifest(self, capsys,
                                                                  monkeypatch):
        forbid(monkeypatch, "_estimate_radius")
        forbid(monkeypatch, "integrate")
        params, _ = MANIFEST_PARAMS["orbit"]
        write_params("m.json", "orbit",
                     dict(params, a=2.0, phi=math.pi, radius_check=True))
        assert main(["orbit", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == (
            "error: the zeroth-order orbit at a = 2 (x0 = -1, y0 = 1) is outside "
            "the positive quadrant; lower |a|\n")
        assert os.listdir(".") == ["m.json"]

    @pytest.mark.parametrize("option", ["periods", "tolerance"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_positive_options_must_be_finite_and_positive(self, option, value,
                                                          capsys):
        assert main(["orbit", "--a", "0.1", "--order", "2", "--no-radius-check",
                     f"--{option}", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option} must be finite and > 0")
        assert err.count("\n") == 1
        assert not os.path.exists("orbit_metrics.csv")

    def test_tolerance_below_the_error_floor_rejected(self, capsys, monkeypatch):
        # the stepper floors its error estimate at 1e-15 of the state's
        # scale, so a smaller tolerance accepts no step
        with monkeypatch.context() as patched:
            forbid(patched, "run")
            assert main(["orbit", "--a", "0.1", "--order", "2",
                         "--tolerance", "9.9e-16"]) == 2
        assert capsys.readouterr().err == \
            "error: tolerance must be >= 1e-15; got 9.9e-16\n"
        assert os.listdir() == []
        assert main(["orbit", "--a", "0.1", "--order", "2", "--points", "16",
                     "--tolerance", "1e-15", "--no-radius-check"]) == 0

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_digits_must_be_positive(self, value, capsys, monkeypatch):
        forbid(monkeypatch, "run")
        assert main(["orbit", "--a", "0.1", "--order", "2", "--digits", value]) == 2
        assert capsys.readouterr().err == f"error: digits must be >= 1; got {value}\n"
        assert not os.path.exists("orbit_metrics.csv")

    @pytest.mark.parametrize("value", [0, -1])
    def test_digits_checked_from_manifest(self, value, capsys, monkeypatch):
        forbid(monkeypatch, "run")
        write_params("m.json", "orbit",
                     {"alpha": "1", "a": 0.1, "phi": 0.0, "order": 2, "periods": 1.0,
                      "points": 16, "tolerance": 1e-12, "digits": value,
                      "radius_check": False, "output": "orbit"})
        assert main(["orbit", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == f"error: digits must be >= 1; got {value}\n"

    @pytest.mark.parametrize("exc,propagates", [
        (NoStableRootError("unstable"), False),
        (NoConvergenceError("slow"), False),
        (TypeError("a bug"), True)])
    def test_radius_estimate_catches_only_estimate_errors(self, exc, propagates,
                                                          monkeypatch):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(lpvolterra.cli, "run", lambda *args: None)
        monkeypatch.setattr(lpvolterra.cli, "series_from_engine", lambda s: (1,) * 45)
        monkeypatch.setattr(lpvolterra.cli, "stable_singularity", fail)
        if propagates:
            with pytest.raises(type(exc)):
                lpvolterra.cli._estimate_radius(1)
        else:
            assert lpvolterra.cli._estimate_radius(1) is None

    @pytest.mark.parametrize("option", ["a", "phi"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_amplitude_and_phase_must_be_finite(self, option, value, capsys):
        args = {"a": "0.1", "phi": "0"}
        args[option] = value
        assert main(["orbit", "--a", args["a"], "--phi", args["phi"],
                     "--order", "2", "--no-radius-check"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option} must be finite")
        assert err.count("\n") == 1
        assert not os.path.exists("orbit_metrics.csv")

    @pytest.mark.parametrize("option", ["a", "phi"])
    def test_negative_amplitude_and_phase_accepted(self, option):
        args = {"a": "0.1", "phi": "0"}
        args[option] = "-1"
        assert main(["orbit", "--a", args["a"], "--phi", args["phi"],
                     "--order", "2", "--points", "16",
                     "--no-radius-check"]) == 0
        assert read_metrics()["n_points"] == "16"

    @pytest.mark.parametrize("alpha,periods", [("1e-30", "1"), ("1", "1e4")])
    def test_span_beyond_step_cap_rejected(self, alpha, periods, capsys,
                                           monkeypatch):
        forbid(monkeypatch, "integrate")
        assert main(["orbit", "--alpha", alpha, "--a", "0.1", "--order", "2",
                     "--periods", periods, "--no-radius-check"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the orbit spans t = ")
        assert err.count("\n") == 1
        assert not os.path.exists("orbit_metrics.csv")

    @pytest.mark.parametrize("a", ["0.1", "0"])
    def test_periods_whose_span_overflows_rejected(self, a, capsys, monkeypatch):
        # periods * 2 pi is inf: the fault is periods, not the amplitude
        forbid(monkeypatch, "run")
        want = "error: periods * 2 pi overflows a float; got periods = 1e+308\n"
        assert main(["orbit", "--a", a, "--order", "2", "--periods", "1e308"]) == 2
        assert capsys.readouterr().err == want
        write_params("m.json", "orbit",
                     dict(MANIFEST_PARAMS["orbit"][0], a=float(a), periods=1e308))
        assert main(["orbit", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == want
        assert sorted(os.listdir()) == ["m.json"]

    def test_periods_whose_harmonics_overflow_rejected(self, capsys, monkeypatch):
        # periods * 2 pi is finite but j * theta overflows for harmonics
        # j >= 2: the step cap names periods before the curve blames a
        forbid(monkeypatch, "integrate")
        assert main(["orbit", "--a", "0.1", "--order", "2",
                     "--periods", "2.8e307", "--no-radius-check"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the orbit spans t = ")
        assert err.endswith(f"more than {lpvolterra.cli.MAX_ORBIT_STEPS} integrator "
                            "steps; lower periods or raise alpha\n")
        assert err.count("\n") == 1
        assert os.listdir() == []

    def test_time_that_overflows_rejected_without_a_warning(self, capsys, monkeypatch):
        # the span is finite but t = span / omega overflows (omega < 1 here):
        # the step cap names it before numpy divides and warns
        forbid(monkeypatch, "integrate")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["orbit", "--alpha", "1", "--a", "3.3", "--order", "2",
                         "--periods", "2e307", "--points", "2",
                         "--no-radius-check"]) == 2
        assert capsys.readouterr().err == (
            "error: the orbit spans t = inf, more than "
            f"{lpvolterra.cli.MAX_ORBIT_STEPS} integrator steps; "
            "lower periods or raise alpha\n")
        assert os.listdir() == []

    def test_points_beyond_step_cap_rejected(self, capsys, monkeypatch):
        forbid(monkeypatch, "run")
        points = lpvolterra.cli.MAX_ORBIT_STEPS + 1
        want = f"error: points must be <= {points - 1}; got {points}\n"
        assert main(["orbit", "--a", "0.1", "--order", "2",
                     "--points", str(points)]) == 2
        assert capsys.readouterr().err == want
        write_params("m.json", "orbit",
                     {"alpha": "1", "a": 0.1, "phi": 0.0, "order": 2, "periods": 1.0,
                      "points": points, "tolerance": 1e-12, "digits": 10,
                      "radius_check": False, "output": "orbit"})
        assert main(["orbit", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == want
        assert not os.path.exists("orbit_metrics.csv")

    def test_symbolic_alpha_rejected(self, capsys):
        assert main(["orbit", "--alpha", "symbolic", "--a", "0.1",
                     "--order", "2"]) == 2

    @pytest.mark.parametrize("alpha", ["1e400", "1e-400"])
    def test_alpha_outside_float_range_rejected(self, alpha, capsys, monkeypatch):
        # the integrator runs on a float alpha: 1e400 overflows, 1e-400 reads 0
        forbid(monkeypatch, "run")
        want = f"error: alpha {alpha} is outside the float range\n"
        assert main(["orbit", "--alpha", alpha, "--a", "0.1", "--order", "2",
                     "--no-radius-check"]) == 2
        assert capsys.readouterr().err == want
        write_params("m.json", "orbit", dict(MANIFEST_PARAMS["orbit"][0], alpha=alpha))
        assert main(["orbit", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == want
        assert sorted(os.listdir()) == ["m.json"]


# a valid manifest parameter set per command, and the call that does the
# command's work (a test forbids it to show that a check came first)
MANIFEST_PARAMS = {
    "series": ({"order": 2, "alpha": "1", "gauge": "simplified-xi",
                "output": "s.json"}, "run"),
    "radius": ({"alpha": "1", "order": 12, "families": "pade,hermite-pade",
                "threshold": 0.05, "digits": 10, "output": "radius.csv"},
               "radius_scan"),
    "orbit": ({"alpha": "1", "a": 0.1, "phi": 0.0, "order": 2, "periods": 1.0,
               "points": 16, "tolerance": 1e-12, "digits": 10,
               "radius_check": False, "output": "orbit"}, "run"),
    "check": ({"level": "quick", "golden": None, "output": None},
              "iter_checks"),
}


class TestIntegerParameters:
    @pytest.mark.parametrize("command,key", [
        ("series", "order"), ("radius", "order"), ("radius", "digits"),
        ("orbit", "order"), ("orbit", "points"), ("orbit", "digits")])
    @pytest.mark.parametrize("value,shown", [
        (2.9, "2.9"), (-1.5, "-1.5"), (True, "True"), (False, "False"),
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
        ("8", "'8'"), ("1_0", "'1_0'")])
    def test_non_integers_rejected_from_manifest(self, command, key, value,
                                                 shown, capsys, monkeypatch):
        params, work = MANIFEST_PARAMS[command]
        forbid(monkeypatch, work)
        write_params("m.json", command, dict(params, **{key: value}))
        assert main([command, "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == f"error: bad value for {key}: {shown}\n"

    @pytest.mark.parametrize("command,argv", [
        ("radius", ["--alpha", "1", "--order", "12"]),
        ("orbit", ["--a", "0.1", "--order", "2"])])
    def test_digits_beyond_format_precision_rejected(self, command, argv,
                                                     capsys, monkeypatch):
        params, work = MANIFEST_PARAMS[command]
        forbid(monkeypatch, work)
        want = "error: digits must be <= 2147483647; got 2147483648\n"
        assert main([command, *argv, "--digits", str(2**31)]) == 2
        assert capsys.readouterr().err == want
        write_params("m.json", command, dict(params, digits=2**31))
        assert main([command, "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == want
        assert sorted(os.listdir()) == ["m.json"]

    def test_digits_bound_is_the_format_limit(self):
        assert format(0.1, f".{lpvolterra.cli.MAX_DIGITS}g") == format(0.1, ".60g")
        with pytest.raises(ValueError, match="precision too big"):
            format(0.1, f".{lpvolterra.cli.MAX_DIGITS + 1}g")

    def test_integral_float_is_an_integer(self):
        params, _ = MANIFEST_PARAMS["series"]
        write_params("m.json", "series", dict(params, order=2.0))
        assert main(["series", "--from-manifest", "m.json"]) == 0
        with open("s.json", encoding="utf-8") as fh:
            assert len(json.load(fh)["orders"]) == 3


class TestFloatParameters:
    @pytest.mark.parametrize("command,key", [
        ("radius", "threshold"), ("orbit", "a"), ("orbit", "phi"),
        ("orbit", "periods"), ("orbit", "tolerance")])
    @pytest.mark.parametrize("value,shown", [
        (True, "True"), (False, "False"), ("0.5", "'0.5'")])
    def test_non_numbers_rejected_from_manifest(self, command, key, value,
                                                shown, capsys, monkeypatch):
        params, work = MANIFEST_PARAMS[command]
        forbid(monkeypatch, work)
        write_params("m.json", command, dict(params, **{key: value}))
        assert main([command, "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == f"error: bad value for {key}: {shown}\n"

    @pytest.mark.parametrize("value,shown", [
        ("false", "'false'"), ("true", "'true'"), (0, "0"), (1, "1"),
        (None, "None")])
    def test_radius_check_must_be_a_boolean(self, value, shown, capsys,
                                            monkeypatch):
        params, work = MANIFEST_PARAMS["orbit"]
        forbid(monkeypatch, work)
        write_params("m.json", "orbit", dict(params, radius_check=value))
        assert main(["orbit", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == f"error: bad value for radius_check: {shown}\n"

    @pytest.mark.parametrize("command,key", [
        ("radius", "threshold"), ("orbit", "a"), ("orbit", "phi"),
        ("orbit", "periods"), ("orbit", "tolerance")])
    @pytest.mark.parametrize("value", [10**400, -10**400], ids=["1e400", "-1e400"])
    def test_integers_past_the_float_range_rejected(self, command, key, value,
                                                    capsys, monkeypatch):
        params, work = MANIFEST_PARAMS[command]
        forbid(monkeypatch, work)
        write_params("m.json", command, dict(params, **{key: value}))
        assert main([command, "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == f"error: bad value for {key}: {value}\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter reads integers of any length")
    def test_integer_literal_past_the_digit_limit_rejected(self, capsys,
                                                           monkeypatch):
        params, work = MANIFEST_PARAMS["orbit"]
        forbid(monkeypatch, work)
        text = json.dumps({"command": "orbit", "parameters": dict(params, a=7)})
        with open("m.json", "w", encoding="utf-8") as fh:
            fh.write(text.replace('"a": 7', '"a": ' + "1" * 5000))
        assert main(["orbit", "--from-manifest", "m.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read manifest m.json: Exceeds the limit")
        assert err.count("\n") == 1

    def test_integers_are_numbers(self):
        params, _ = MANIFEST_PARAMS["orbit"]
        write_params("m.json", "orbit", dict(params, a=0, phi=1, periods=1))
        assert main(["orbit", "--from-manifest", "m.json"]) == 0
        assert read_metrics()["max_gap"] == "0"


class TestStringParameters:
    @pytest.mark.parametrize("command,key", [
        ("series", "alpha"), ("series", "gauge"), ("series", "output"),
        ("radius", "alpha"), ("radius", "families"), ("radius", "output"),
        ("orbit", "alpha"), ("orbit", "output"), ("check", "level")])
    @pytest.mark.parametrize("value,shown", [
        (None, "None"), (["x"], "['x']"), (True, "True"), (9, "9")])
    def test_non_strings_rejected_from_manifest(self, command, key, value,
                                                shown, capsys, monkeypatch):
        params, work = MANIFEST_PARAMS[command]
        forbid(monkeypatch, work)
        write_params("m.json", command, dict(params, **{key: value}))
        assert main([command, "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == f"error: bad value for {key}: {shown}\n"
        assert sorted(os.listdir()) == ["m.json"]

    @pytest.mark.parametrize("key", ["golden", "output"])
    @pytest.mark.parametrize("value,shown", [
        (["x"], "['x']"), (True, "True"), (9, "9"), ({}, "{}")])
    def test_check_paths_are_strings_or_null(self, key, value, shown, capsys,
                                             monkeypatch):
        params, work = MANIFEST_PARAMS["check"]
        forbid(monkeypatch, work)
        write_params("m.json", "check", dict(params, **{key: value}))
        assert main(["check", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == f"error: bad value for {key}: {shown}\n"

    def test_check_paths_may_be_null(self, capsys, monkeypatch):
        params, _ = MANIFEST_PARAMS["check"]
        seen = {}

        def no_checks(level, golden=None):
            seen["golden"] = golden
            return iter(())
        monkeypatch.setattr(lpvolterra.cli, "iter_checks", no_checks)
        write_params("m.json", "check", params)
        assert main(["check", "--from-manifest", "m.json"]) == 0
        assert capsys.readouterr().out == "0 of 0 checks passed\n"
        assert seen == {"golden": None}
        assert sorted(os.listdir()) == ["m.json"]


class TestOutputPaths:
    @pytest.mark.parametrize("command,argv", [
        ("series", ["--order", "2"]),
        ("radius", ["--alpha", "1,2", "--order", "8"]),
        ("orbit", ["--a", "0.1", "--order", "2", "--no-radius-check"]),
        ("check", ["--level", "quick"])])
    @pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
    def test_unwritable_output_rejected_before_work(self, command, argv, where,
                                                    capsys, monkeypatch):
        for work in ("run", "radius_scan", "integrate", "iter_checks"):
            forbid(monkeypatch, work)
        # orbit's --output is a prefix; its first file is <prefix>_orbit.csv
        suffix = "_orbit.csv" if command == "orbit" else ""
        if where == "empty":
            # an empty prefix would write _orbit.csv and a hidden .manifest.json
            output = ""
            want = "error: the output path is empty\n"
        elif where == "directory":
            output = "out"
            os.mkdir(output + suffix)
            want = f"error: cannot write {output + suffix}: it is a directory\n"
        else:
            output = os.path.join("missing", "out")
            want = f"error: cannot write {output + suffix}: no directory missing\n"
        listed = sorted(os.listdir())
        assert main([command, *argv, "--output", output]) == 2
        assert capsys.readouterr().err == want
        write_params("m.json", command,
                     dict(MANIFEST_PARAMS[command][0], output=output))
        assert main([command, "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == want
        assert sorted(os.listdir()) == sorted(listed + ["m.json"])


def reference_orbit_csvs(tau, xi, eta, omega, x0, y0, orbit, gaps, a, digits):
    """The three orbit CSVs, written row by row through fmt_sig."""
    texts = []
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["t", "x", "y"])
    for t, x, y in zip(orbit.times, orbit.x_values, orbit.y_values):
        writer.writerow([fmt_sig(t, digits), fmt_sig(x, digits), fmt_sig(y, digits)])
    texts.append(fh.getvalue())

    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["tau", "xi_series", "eta_series", "xi_numeric", "eta_numeric"])
    for k in range(len(tau)):
        xi_num = (float(orbit.x_values[k]) - 1) / a if a else 0.0
        eta_num = (float(orbit.y_values[k]) - 1) / a if a else 0.0
        writer.writerow([fmt_sig(tau[k], digits),
                         fmt_sig(float(xi[k]), digits),
                         fmt_sig(float(eta[k]), digits),
                         fmt_sig(xi_num, digits), fmt_sig(eta_num, digits)])
    texts.append(fh.getvalue())

    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["metric", "value"])
    writer.writerow(["omega_series", fmt_sig(omega, digits)])
    writer.writerow(["x0", fmt_sig(x0, digits)])
    writer.writerow(["y0", fmt_sig(y0, digits)])
    writer.writerow(["max_gap", fmt_sig(gaps.max_gap, digits)])
    writer.writerow(["rms_gap", fmt_sig(gaps.rms_gap, digits)])
    writer.writerow(["n_points", gaps.n_points])
    writer.writerow(["conserved_drift", fmt_sig(orbit.conserved_drift, digits)])
    writer.writerow(["radius_estimate", fmt_sig(None, digits)])
    texts.append(fh.getvalue())
    return texts


# floats whose text is special: nan, the infinities, a negative zero,
# subnormals and the top of the range
SPECIAL_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                     -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308]))


class TestOrbitCsv:
    @pytest.mark.parametrize("a", ["0", "-0.15", "0.2"])
    @pytest.mark.parametrize("digits", [1, 4, 17])
    def test_csvs_match_row_by_row_writer(self, a, digits, monkeypatch):
        self.check_csvs(a, digits, 64, monkeypatch)

    @pytest.mark.parametrize("a", ["0", "0.2"])
    def test_csvs_match_across_a_block_boundary(self, a, monkeypatch):
        self.check_csvs(a, 17, lpvolterra.cli.CSV_BLOCK_ROWS + 1, monkeypatch)

    @staticmethod
    def check_csvs(a, digits, points, monkeypatch):
        seen = {}

        def recording(name):
            call = getattr(lpvolterra.cli, name)

            def wrapped(*args, **kwargs):
                seen[name] = (args, kwargs, call(*args, **kwargs))
                return seen[name][2]
            monkeypatch.setattr(lpvolterra.cli, name, wrapped)

        for name in ("evaluate_solution", "integrate", "compare_orbit"):
            recording(name)
        assert main(["orbit", "--alpha", "9/4", "--a", a, "--phi", "1",
                     "--order", "4", "--periods", "1.5", "--points", str(points),
                     "--digits", str(digits), "--no-radius-check"]) == 0
        _, kwargs, (xi, eta, omega) = seen["evaluate_solution"]
        (_, x0, y0, _), _, orbit = seen["integrate"]
        gaps = seen["compare_orbit"][2]
        expected = reference_orbit_csvs(kwargs["tau_grid"], xi, eta, omega,
                                        x0, y0, orbit, gaps, float(a), digits)
        for part, text in zip(("orbit", "comparison", "metrics"), expected):
            with open(f"orbit_{part}.csv", "rb") as fh:
                assert fh.read() == text.encode("utf-8")
        if a == "0":
            assert {row[3] for row in read_csv("orbit_comparison.csv")[1:]} == {"0"}

    @settings(max_examples=200, deadline=None)
    @given(table=st.integers(1, 5).flatmap(
               lambda width: st.lists(st.lists(SPECIAL_FLOATS, min_size=width,
                                               max_size=width), max_size=12)),
           digits=st.integers(1, 25), block=st.integers(1, 5))
    def test_table_writer_matches_csv_writer(self, table, digits, block):
        # small blocks, so that most draws cross one or more boundaries
        width = len(table[0]) if table else 3
        header = [f"c{j}" for j in range(width)]
        columns = [np.array([row[j] for row in table], dtype=float)
                   for j in range(width)]
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format(v, f".{digits}g") for v in row] for row in table)
        got = io.StringIO()
        with mock.patch.object(lpvolterra.cli, "CSV_BLOCK_ROWS", block):
            lpvolterra.cli.write_table(got, header, columns, digits)
        assert got.getvalue() == want.getvalue()


# manifest values of every kind, each small enough that no draw starts a
# long run (an alpha near 0 meets the orbit's step cap)
MANIFEST_VALUES = st.one_of(
    st.integers(-1, 4),
    st.floats(-2.5, 2.5).map(lambda v: v + 0.5 if v.is_integer() else v),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.booleans(),
    st.sampled_from(["1", "1/4", "9/4", "symbolic", "pi/4", "", "x"] + list(GAUGES)),
    st.text(max_size=4),
    st.none(),
    st.lists(st.integers(0, 4), max_size=2),
)
_MISSING = object()


def perturbed_params(command):
    """The command's valid parameters with any of them replaced or
    dropped; ``output`` stays a plain file name in the working directory."""
    params, _ = MANIFEST_PARAMS[command]
    keys = sorted(k for k in params if k != "output")
    values = {k: MANIFEST_VALUES | st.just(_MISSING) for k in keys}
    if "points" in values:
        values["points"] |= st.integers(2, 16)
    # half the draws change at most two keys, so valid runs are common
    chosen = st.lists(st.sampled_from(keys), unique=True, max_size=2) \
        | st.lists(st.sampled_from(keys), unique=True)
    changes = chosen.flatmap(
        lambda ks: st.fixed_dictionaries({k: values[k] for k in ks}))

    def apply(change):
        out = dict(params, **change)
        return {k: v for k, v in out.items() if v is not _MISSING}
    return changes.map(apply)


class TestExitCodes:
    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["series", "orbit"]), data=st.data())
    def test_any_manifest_exits_0_1_or_2(self, command, data):
        params = data.draw(perturbed_params(command))
        write_params("m.json", command, params)
        # a truthy radius_check would add an order-44 radius estimate to
        # every draw; its failure modes have their own tests
        with mock.patch.object(lpvolterra.cli, "_estimate_radius",
                               return_value=None), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--from-manifest", "m.json"])
        event(f"{command} exit {code}")
        assert code in (0, 1, 2)


class TestManifestKeys:
    @pytest.mark.parametrize("command,argv,manifest", [
        ("series", ["--order", "0"], "series.json.manifest.json"),
        ("radius", ["--alpha", "1", "--order", "8"], "radius.csv.manifest.json"),
        ("orbit", ["--a", "0", "--order", "0", "--points", "2",
                   "--no-radius-check"], "orbit.manifest.json"),
        ("check", ["--output", "report.txt"], "report.txt.manifest.json")])
    def test_argv_manifest_holds_exactly_the_parameters(self, command, argv,
                                                        manifest, monkeypatch):
        # the parameter set is vars(args) less two keys, so a new flag
        # shows up here before it can leak into manifests
        monkeypatch.setattr(lpvolterra.cli, "iter_checks",
                            lambda level, golden=None: iter(()))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main([command, *argv])
        with open(manifest, encoding="utf-8") as fh:
            params = json.load(fh)["parameters"]
        assert sorted(params) == sorted(MANIFEST_PARAMS[command][0])
        if command == "orbit":
            assert params["radius_check"] is False


class TestCheckCommand:
    def test_quick_level_passes(self, capsys):
        assert main(["check", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        total = out.strip().splitlines()[-1]
        assert total.endswith("checks passed")

    def test_corrupted_golden_detected(self, tmp_path, capsys):
        golden = load_golden()
        golden["omega"]["4"] = golden["omega"]["4"].replace("6912", "6913")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(golden), encoding="utf-8")
        assert main(["check", "--level", "quick", "--golden", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL golden-strings" in out
        assert "omega_4" in out

    @pytest.mark.parametrize("name,content", [
        ("missing.json", None), ("broken.json", b"{not json"),
        ("binary.json", b"\xff\xfe"), ("folder", "dir"), ("list.json", b"[1, 2]"),
        ("partial.json", b'{"omega": {}}'),
        # the layout before the zero-initial values were frozen
        ("no_zero_initial.json", json.dumps({key: value for key, value in load_golden().items()
                                             if key != "zero_initial_solutions"}).encode())])
    def test_unreadable_golden_rejected_before_checks(self, name, content,
                                                      capsys, monkeypatch):
        forbid(monkeypatch, "iter_checks")
        if content == "dir":
            os.mkdir(name)
        elif content is not None:
            with open(name, "wb") as fh:
                fh.write(content)
        want = f"error: cannot read golden file {name}: "
        assert main(["check", "--golden", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith(want) and err.count("\n") == 1
        params, _ = MANIFEST_PARAMS["check"]
        write_params("m.json", "check", dict(params, golden=name))
        assert main(["check", "--from-manifest", "m.json"]) == 2
        assert capsys.readouterr().err == err

    def test_report_file(self, tmp_path, capsys):
        assert main(["check", "--level", "quick", "--output", "report.txt"]) == 0
        report = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert report.strip().endswith("checks passed")
        with open("report.txt.manifest.json", encoding="utf-8") as fh:
            assert json.load(fh)["command"] == "check"


class TestEntryPoints:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"lpvolterra {lpvolterra.cli.tool_version()}\n"

    def test_module_invocation(self, child_env):
        proc = subprocess.run([sys.executable, "-m", "lpvolterra.cli",
                               "series", "--order", "0"],
                              capture_output=True, text=True, timeout=120,
                              env=child_env)
        assert proc.returncode == 0
        assert "omega_0 = sqrt(alpha)" in proc.stdout

    def test_one_parser_serves_every_call(self, child_env):
        # main() builds its parser once per process: a refused argv (at
        # argparse and after it) followed by a good one gives what fresh
        # processes give
        argvs = [["orbit", "--points", "many"],
                 ["orbit", "--a", "0.1", "--order", "2", "--digits", "0"],
                 ["orbit", "--a", "0.1", "--order", "2", "--points", "16",
                  "--no-radius-check"]]

        def outcome(run_argv):
            out = []
            for argv in argvs:
                code, stdout = run_argv(argv)
                files = {}
                for name in sorted(os.listdir()):
                    if not name.endswith(".manifest.json"):
                        with open(name, "rb") as fh:
                            files[name] = fh.read()
                        os.remove(name)
                out.append((code, stdout, files))
            return out

        def fresh(argv):
            proc = subprocess.run([sys.executable, "-m", "lpvolterra.cli", *argv],
                                  capture_output=True, text=True, timeout=120,
                                  env=child_env)
            return proc.returncode, proc.stdout

        def in_process(argv):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, stdout.getvalue()

        want = outcome(fresh)
        assert [code for code, _, _ in want] == [2, 2, 0]
        assert outcome(in_process) == want
        assert lpvolterra.cli.build_parser() is lpvolterra.cli.build_parser()

    def test_console_script(self):
        exe = shutil.which("lpvolterra")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--version"], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0


# a fresh interpreter runs one main(argv) and prints, on its last line,
# the exit code and which of the given modules it loaded
COLD_START = """
import sys
import lpvolterra
import lpvolterra.cli
try:
    code = lpvolterra.cli.main({argv!r})
except SystemExit as exc:
    code = exc.code
print()
print(code, [name for name in {unloaded!r} if name in sys.modules])
"""

# the modules that only fits, checks and orbits need
LIBRARY = ("mpmath", "lpvolterra.analysis", "lpvolterra.checks",
           "lpvolterra.verify", "numpy")
# and importlib.metadata, which only --version and manifests need
QUIET = (*LIBRARY, "importlib.metadata")


class TestColdStart:
    """Each command loads only the modules it runs: one that integrates no
    orbit and samples no curve never loads numpy, `radius` fits
    approximants and finds their roots without it or mpmath, and neither
    `series` nor a refused argument loads mpmath or the modules behind the
    other commands.  Each runs in a fresh process, because this one imported
    them all with the tests."""

    @pytest.mark.parametrize("argv, code, unloaded", [
        (["series", "--order", "4", "--output", "cold.json"], 0, LIBRARY),
        # too short for a stable chain (exit code 1), but every row finds roots
        (["radius", "--alpha", "1,2", "--order", "8", "--output", "cold_radius.csv"], 1,
         ("mpmath", "lpvolterra.checks", "lpvolterra.verify", "numpy")),
        (["orbit", "--a", "0.1", "--order", "2", "--points", "16",
          "--no-radius-check", "--output", "cold"], 0,
         ("lpvolterra.analysis", "lpvolterra.checks")),
        (["--help"], 0, QUIET),
        (["orbit", "--points", "many"], 2, QUIET),
        (["orbit", "--a", "0.1", "--order", "2", "--digits", "0"], 2, QUIET),
    ], ids=["series", "radius", "orbit", "help", "argparse-error", "argument-error"])
    def test_unused_modules_stay_unloaded(self, argv, code, unloaded, child_env,
                                          tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START.format(argv=argv, unloaded=unloaded)],
            capture_output=True, text=True, timeout=120, env=child_env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{code} []"
        if "--output" in argv:
            # every command writes its manifest last, beside its outputs
            output = argv[argv.index("--output") + 1]
            assert (tmp_path / f"{output}.manifest.json").is_file()
