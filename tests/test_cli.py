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

from unittest import mock

import mpmath
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import lpvolterra
import lpvolterra.cli
from lpvolterra.analysis import NoStableRootError
from lpvolterra.checks import load_golden
from lpvolterra.cli import (BadArguments, fmt_sig, main, parse_alpha,
                            parse_angle, parse_rational)
from lpvolterra.engine import GAUGES


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

    def test_numeric_alpha(self, capsys):
        assert main(["series", "--order", "2", "--alpha", "9/4"]) == 0
        out = capsys.readouterr().out
        assert "omega_0 = 3/2" in out

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

    def test_too_low_order_fails_cleanly(self, capsys):
        assert main(["radius", "--alpha", "1", "--order", "0"]) == 1
        assert "insufficient coefficients" in capsys.readouterr().err

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
        (mpmath.libmp.NoConvergence("slow"), False),
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


class TestOrbitCsv:
    @pytest.mark.parametrize("a", ["0", "-0.15", "0.2"])
    @pytest.mark.parametrize("digits", [1, 4, 17])
    def test_csvs_match_row_by_row_writer(self, a, digits, monkeypatch):
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
                     "--order", "4", "--periods", "1.5", "--points", "64",
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
        ("binary.json", b"\xff\xfe"), ("folder", "dir")])
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
        assert capsys.readouterr().out.startswith("lpvolterra ")

    def test_module_invocation(self):
        # The child runs in tmp_path, where a relative PYTHONPATH no longer
        # resolves; put the directory holding the package under test first.
        root = os.path.dirname(os.path.dirname(lpvolterra.__file__))
        entries = [root] + [p for p in os.environ.get("PYTHONPATH", "")
                            .split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(entries))
        proc = subprocess.run([sys.executable, "-m", "lpvolterra.cli",
                               "series", "--order", "0"],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == 0
        assert "omega_0 = sqrt(alpha)" in proc.stdout

    def test_console_script(self):
        exe = shutil.which("lpvolterra")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--version"], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0
