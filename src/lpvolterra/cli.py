"""Command-line front end.

Four subcommands: ``series`` dumps a perturbation series as JSON,
``radius`` writes the convergence-radius scan as CSV, ``orbit`` emits
plot-ready curve comparisons, and ``check`` runs the invariant suites.

Every command that writes files also writes a ``<output>.manifest.json``
recording the command, the fully resolved parameter set, the tool
version, a timestamp, and the output paths.  Outputs are deterministic
functions of the parameter set, so re-running with ``--from-manifest``
reproduces them byte for byte; only the manifest's timestamp moves.
"""

import argparse
import csv
import datetime
import functools
import importlib
import json
import math
import os
import re
import sys
from fractions import Fraction

from .algebra import QQ, format_element
from .constants import (ERROR_FLOOR, FAMILIES, FAMILY_HERMITE_PADE,
                        FAMILY_PADE, LEVELS, SCAN_THRESHOLD)
from .engine import GAUGE_SIMPLIFIED_XI, GAUGES, evaluate_solution, run
from .trigpoly import to_triples

PROG = "lpvolterra"

# smallest radius scan that can form a two-point chain: [1/1] and [2/2]
# Pade fits need five series coefficients, i.e. engine order 8
MIN_RADIUS_ORDER = 8

# the orbit's time span is periods * 2 pi / omega, so an alpha near 0
# asks for ever more integrator steps (past 2^53 of them the remaining
# span stops shrinking and the integration never ends); cap their number,
# and the number of output grid points with it
MAX_ORBIT_STEPS = 10**6

# the largest precision format() accepts; past it the CSV writers fail
MAX_DIGITS = 2**31 - 1

# rows per formatting pass of the orbit CSVs, so that the text held at
# once does not grow with --points
CSV_BLOCK_ROWS = 4096

# what the commands call from analysis, checks and verify: a command loads
# the module on its first use (_load), and a name set on this module before
# then, as a test's or a tracer's patch, stays the one the command calls
_LAZY = {"analysis": ("ESTIMATE_ERRORS", "radius_scan", "series_from_engine",
                      "stable_singularity"),
         "checks": ("iter_checks", "load_golden"),
         "verify": ("IntegratorConfig", "compare_orbit", "integrate")}


def _load(module):
    loaded = importlib.import_module(f".{module}", __package__)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(loaded, name))


def __getattr__(name):
    # PEP 562: reading a name of _LAZY off this module loads its module
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class BadArguments(ValueError):
    pass


@functools.cache
def tool_version():
    # importlib.metadata scans the installed distributions on every call;
    # --version and the manifest share one lookup
    try:
        from importlib.metadata import version
        return version("lpvolterra")
    except Exception:
        return "unknown"


class _VersionAction(argparse._VersionAction):
    """--version, which looks the version up only when it is given."""

    def __call__(self, parser, namespace, values, option_string=None):
        self.version = f"{PROG} {tool_version()}"
        super().__call__(parser, namespace, values, option_string)


# ---------------------------------------------------------------------------
# argument parsing helpers

def parse_rational(text):
    # Fraction takes digit-group underscores ("1_0") from Python 3.11 on
    # and refuses them before; refuse them on every Python
    try:
        if "_" in text:
            raise ValueError(text)
        return QQ(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        raise BadArguments(f"not a rational number: {text!r}")


def parse_alpha(text):
    if text.strip().lower() == "symbolic":
        return "symbolic"
    value = parse_rational(text)
    if value <= 0:
        raise BadArguments("alpha must be positive")
    return value


def _check_float_range(text, alpha):
    """The radius CSV and the orbit integrator use alpha as a float."""
    if alpha > sys.float_info.max or float(alpha) == 0:
        raise BadArguments(f"alpha {text.strip()} is outside the float range")


_PI_LITERAL = re.compile(r"([+-]?)(\d+(?:\.\d*)?)?\*?pi(?:/(\d+(?:\.\d*)?))?")


def parse_angle(text):
    """Radians as a decimal, or a pi-multiple literal like "pi/4"."""
    t = text.strip().lower().replace(" ", "")
    m = _PI_LITERAL.fullmatch(t)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0:
            raise BadArguments(f"bad angle {text!r}")
        return sign * num * math.pi / den
    try:
        return float(t)
    except ValueError:
        raise BadArguments(f"bad angle {text!r}; use radians or a literal like pi/4")


def _check_outputs(*paths):
    """Refuse, before any work, an output path that cannot be opened for
    writing because its directory is missing or it names a directory."""
    for path in paths:
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise BadArguments(f"cannot write {path}: no directory {directory}")
        if os.path.isdir(path):
            raise BadArguments(f"cannot write {path}: it is a directory")


def fmt_sig(value, digits):
    if value is None:
        return ""
    return f"{float(value):.{digits}g}"


def write_table(fh, header, columns, digits):
    """CSV of a header row and float columns, each entry as ``fmt_sig``
    writes it.  ``%`` formats a float as ``format`` does, and csv would
    quote no such field, so one ``%`` pass writes each block of rows."""
    import numpy as np
    fh.write(",".join(header) + "\n")
    row = ",".join([f"%.{digits}g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns])
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# manifests

def write_manifest(command, params, outputs, path):
    doc = {
        "command": command,
        "parameters": params,
        "tool_version": tool_version(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
                     .isoformat(timespec="seconds"),
        "outputs": list(outputs),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_manifest_params(path, command):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: bad JSON or a huge int
        raise BadArguments(f"cannot read manifest {path}: {exc}")
    if doc.get("command") != command:
        raise BadArguments(
            f"manifest {path} was written by {doc.get('command')!r}, not {command!r}")
    params = doc.get("parameters")
    if not isinstance(params, dict):
        raise BadArguments(f"manifest {path} has no parameter set")
    return params


# the JSON types each kind of parameter takes; _need keeps bool apart from int
_JSON_TYPES = {str: str, bool: bool, int: (int, float), float: (int, float)}


def _need(params, key, kind, optional=False, positive=False, low=None, high=None):
    """Read parameter ``key`` as ``kind``: str, bool, int or float.

    Nothing is coerced across JSON types: an int takes an integral float
    but no string, and a float takes an int.  A float must be finite (and
    > 0 if ``positive``); ``low`` and ``high`` are inclusive bounds.  An
    ``optional`` parameter that is missing or null reads as None.
    """
    value = params.get(key)
    if optional and value is None:
        return None
    if key not in params:
        raise BadArguments(f"missing parameter: {key}")
    if (not isinstance(value, _JSON_TYPES[kind])
            or isinstance(value, bool) != (kind is bool)
            or kind is int and isinstance(value, float) and not value.is_integer()
            or kind is float and isinstance(value, int)
            and abs(value) > sys.float_info.max):
        raise BadArguments(f"bad value for {key}: {value!r}")
    value = kind(value)
    if kind is float and not (math.isfinite(value) and (value > 0 or not positive)):
        bound = "finite and > 0" if positive else "finite"
        raise BadArguments(f"{key} must be {bound}; got {value!r}")
    if low is not None and value < low:
        raise BadArguments(f"{key} must be >= {low}; got {value!r}")
    if high is not None and value > high:
        raise BadArguments(f"{key} must be <= {high}; got {value!r}")
    return value


# ---------------------------------------------------------------------------
# series

def cmd_series(params):
    order = _need(params, "order", int, low=0)
    alpha = parse_alpha(_need(params, "alpha", str))
    gauge = _need(params, "gauge", str)
    if gauge not in GAUGES:
        raise BadArguments(f"unknown gauge {gauge!r}; expected one of {GAUGES}")
    output = _need(params, "output", str)
    _check_outputs(output, output + ".manifest.json")

    series = run(order, alpha, gauge)
    ring = series.coeff_ring

    doc = {"alpha": str(alpha),
           "gauge": gauge,
           "orders": []}
    for sol in series.orders:
        doc["orders"].append({
            "n": sol.n,
            "omega": format_element(ring, sol.omega, sol.n),
            "xi": to_triples(sol.xi, sol.n + 1),
            "eta": to_triples(sol.eta, sol.n + 1),
            "gauge_constants": [format_element(series.phase_ring, c, sol.n + 1)
                                for c in sol.gauge_constants],
        })
    with open(output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    for sol in series.orders:
        if sol.n == 0 or not ring.is_zero(sol.omega):
            print(f"omega_{sol.n} = {format_element(ring, sol.omega, sol.n)}")
    write_manifest("series", params, [output], output + ".manifest.json")
    return 0


# ---------------------------------------------------------------------------
# radius

def cmd_radius(params):
    alpha_texts = [t for t in _need(params, "alpha", str).split(",") if t.strip()]
    if not alpha_texts:
        raise BadArguments("no alpha values given")
    alphas = [parse_alpha(t) for t in alpha_texts]
    if "symbolic" in alphas:
        raise BadArguments("the radius scan needs numeric alpha values")
    for i, (text, value) in enumerate(zip(alpha_texts, alphas)):
        _check_float_range(text, value)
        if value in alphas[:i]:
            raise BadArguments(f"alpha {value} given twice")
    order = _need(params, "order", int, low=MIN_RADIUS_ORDER)
    families = tuple(t.strip() for t in _need(params, "families", str).split(","))
    for i, t in enumerate(families):
        if t not in FAMILIES:
            raise BadArguments(f"unknown family {t!r}; expected {', '.join(FAMILIES)}")
        if t in families[:i]:
            raise BadArguments(f"family {t!r} given twice")
    threshold = _need(params, "threshold", float, positive=True)
    digits = _need(params, "digits", int, low=1, high=MAX_DIGITS)
    output = _need(params, "output", str)
    _check_outputs(output, output + ".manifest.json")

    _load("analysis")
    rows = radius_scan(alphas, order, families=families, threshold=threshold)

    succeeded = 0
    with open(output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alpha", "order", "rc_pade", "rc_hermite_pade",
                         "spread_pade", "spread_hp"])
        for row in rows:
            ests = [row.estimates.get(family) for family in FAMILIES]
            writer.writerow([fmt_sig(row.alpha, digits), order,
                             *(fmt_sig(e and e.radius, digits) for e in ests),
                             *(fmt_sig(e and e.stability_spread, digits) for e in ests)])
            succeeded += bool(row.estimates)
            if row.error:
                print(f"alpha {row.alpha}: {row.error}", file=sys.stderr)
    write_manifest("radius", params, [output], output + ".manifest.json")
    if succeeded == 0:
        print("error: no alpha value produced a radius estimate", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# orbit

def _estimate_radius(alpha):
    """Best-effort convergence radius at this alpha for the divergence warning."""
    _load("analysis")
    series = run(44, alpha, GAUGE_SIMPLIFIED_XI)
    ps = series_from_engine(series)
    for family in (FAMILY_HERMITE_PADE, FAMILY_PADE):
        try:
            return stable_singularity(ps, family, threshold=SCAN_THRESHOLD).radius
        except ESTIMATE_ERRORS:
            continue
    return None


def cmd_orbit(params):
    alpha = parse_alpha(_need(params, "alpha", str))
    if alpha == "symbolic":
        raise BadArguments("orbit integration needs a numeric alpha")
    _check_float_range(params["alpha"], alpha)
    a = _need(params, "a", float)
    phi = _need(params, "phi", float)
    order = _need(params, "order", int, low=0)
    periods = _need(params, "periods", float, positive=True)
    span = periods * 2 * math.pi
    if math.isinf(span):
        raise BadArguments(f"periods * 2 pi overflows a float; got periods = {periods!r}")
    # past the high bound np.linspace below would fail with a MemoryError
    points = _need(params, "points", int, low=2, high=MAX_ORBIT_STEPS)
    tolerance = _need(params, "tolerance", float, positive=True, low=ERROR_FLOOR)
    digits = _need(params, "digits", int, low=1, high=MAX_DIGITS)
    # a manifest without the key runs the check, as the flag's absence does
    radius_check = _need({"radius_check": True, **params}, "radius_check", bool)
    prefix = _need(params, "output", str)
    outputs = [f"{prefix}_{name}.csv" for name in ("orbit", "comparison", "metrics")]
    _check_outputs(*outputs, f"{prefix}.manifest.json")

    import numpy as np
    _load("verify")
    series = run(order, alpha, GAUGE_SIMPLIFIED_XI)
    tau = np.linspace(0.0, span, points)
    with np.errstate(all="ignore"):
        xi, eta, omega = evaluate_solution(series, a, phi=phi, tau_grid=tau)
    if not (math.isfinite(omega) and omega > 0):
        raise BadArguments(
            f"the order-{order} series frequency at a = {a:.4g} is {omega:.4g}, "
            "but the orbit needs a finite positive frequency; lower a")
    # the step cap, checked first on Python floats (inf, no numpy warning):
    # a span whose harmonics j * theta overflow is blamed on periods, not a
    max_time = span / float(omega)
    if abs(max_time) > MAX_ORBIT_STEPS * IntegratorConfig.step:
        raise BadArguments(
            f"the orbit spans t = {max_time:.4g}, more than "
            f"{MAX_ORBIT_STEPS} integrator steps; lower periods or raise alpha")
    t_eval = tau / omega
    config = IntegratorConfig(tolerance=tolerance, max_time=max_time)
    if not (np.isfinite(xi).all() and np.isfinite(eta).all()):
        raise BadArguments(
            f"the order-{order} series curve at a = {a:.4g} is not finite; lower a")
    x0 = 1 + a * float(xi[0])
    y0 = 1 + a * float(eta[0])
    if x0 <= 0 or y0 <= 0:
        # far outside convergence the truncation can leave the physical
        # quadrant; anchor the reference orbit at the zeroth-order point,
        # unless that point is unphysical too
        x00 = 1 + a * math.cos(phi)
        y00 = 1 + a * math.sqrt(float(alpha)) * math.sin(phi)
        if x00 <= 0 or y00 <= 0:
            raise BadArguments(
                f"the zeroth-order orbit at a = {a:.4g} (x0 = {x00:.4g}, "
                f"y0 = {y00:.4g}) is outside the positive quadrant; lower |a|")
        print(f"note: the order-{order} series gives an unphysical initial "
              f"point (x0 = {x0:.4g}, y0 = {y0:.4g}); starting the numeric "
              "orbit from the zeroth-order point instead", file=sys.stderr)
        x0, y0 = x00, y00

    radius = None
    if radius_check and a != 0:
        radius = _estimate_radius(alpha)
        if radius is None:
            print("note: convergence radius could not be estimated at this alpha",
                  file=sys.stderr)
        elif a * a > radius:
            print(f"warning: a^2 = {a * a:.4g} exceeds the estimated convergence "
                  f"radius {radius:.4g}; the series curve may diverge",
                  file=sys.stderr)

    orbit = integrate(float(alpha), x0, y0, config, t_eval=t_eval)
    gaps = compare_orbit(xi, eta, orbit, a)

    orbit_path, comparison_path, metrics_path = outputs
    with open(orbit_path, "w", encoding="utf-8", newline="") as fh:
        write_table(fh, ["t", "x", "y"],
                    [orbit.times, orbit.x_values, orbit.y_values], digits)

    with open(comparison_path, "w", encoding="utf-8", newline="") as fh:
        if a:
            xi_num = (orbit.x_values - 1) / a
            eta_num = (orbit.y_values - 1) / a
        else:
            # scaled coordinates are undefined at a = 0; the deviation is zero there
            xi_num = eta_num = np.zeros(points)
        write_table(fh, ["tau", "xi_series", "eta_series", "xi_numeric", "eta_numeric"],
                    [tau, xi, eta, xi_num, eta_num], digits)

    with open(metrics_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "value"])
        writer.writerow(["omega_series", fmt_sig(omega, digits)])
        writer.writerow(["x0", fmt_sig(x0, digits)])
        writer.writerow(["y0", fmt_sig(y0, digits)])
        writer.writerow(["max_gap", fmt_sig(gaps.max_gap, digits)])
        writer.writerow(["rms_gap", fmt_sig(gaps.rms_gap, digits)])
        writer.writerow(["n_points", gaps.n_points])
        writer.writerow(["conserved_drift", fmt_sig(orbit.conserved_drift, digits)])
        writer.writerow(["radius_estimate", fmt_sig(radius, digits)])

    write_manifest("orbit", params, outputs, f"{prefix}.manifest.json")
    print(f"max gap {fmt_sig(gaps.max_gap, 4)}, rms gap {fmt_sig(gaps.rms_gap, 4)} "
          f"over {gaps.n_points} points")
    return 0


# ---------------------------------------------------------------------------
# check

def cmd_check(params):
    level = _need(params, "level", str)
    if level not in LEVELS:
        raise BadArguments(f"unknown level {level!r}; expected one of {LEVELS}")
    golden_path = _need(params, "golden", str, optional=True)
    output = _need(params, "output", str, optional=True)
    if output:
        _check_outputs(output, output + ".manifest.json")
    _load("checks")
    golden = None
    if golden_path:
        try:
            golden = load_golden(golden_path)
            if not (isinstance(golden, dict) and all(isinstance(golden.get(key), dict)
                    for key in ("omega", "solutions", "zero_initial_solutions",
                                "gauge_constants", "frequency_ratios"))):
                raise ValueError("expected an object whose omega, solutions, zero_initial_"
                                 "solutions, gauge_constants and frequency_ratios are objects")
        except (OSError, ValueError) as exc:
            raise BadArguments(f"cannot read golden file {golden_path}: {exc}")

    lines = []
    failed = 0
    total = 0
    for result in iter_checks(level, golden=golden):
        total += 1
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failed += 1
        line = f"{status} {result.name} ({result.elapsed:.2f}s): {result.detail}"
        print(line, flush=True)
        lines.append(line)
    summary = f"{total - failed} of {total} checks passed"
    print(summary)
    lines.append(summary)

    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        write_manifest("check", params, [output], output + ".manifest.json")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# wiring

@functools.cache   # parsing never mutates the parser: one serves every main()
def build_parser():
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact perturbation series for the predator-prey cycle, "
                    "convergence-radius estimates, and numerical cross-checks.")
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="compute a perturbation series and dump JSON")
    p.add_argument("--order", type=int, help="highest perturbation order")
    p.add_argument("--alpha", default="symbolic",
                   help='"symbolic" or a positive rational like 1, 0.25, 9/4')
    p.add_argument("--gauge", default=GAUGE_SIMPLIFIED_XI, choices=GAUGES)
    p.add_argument("--output", default="series.json")
    p.add_argument("--from-manifest", metavar="PATH")

    p = sub.add_parser("radius", help="scan the convergence radius over alpha")
    p.add_argument("--alpha", help="comma-separated positive rationals")
    p.add_argument("--order", type=int, help="series order fed to the approximants")
    p.add_argument("--families", default="pade,hermite-pade")
    p.add_argument("--threshold", type=float, default=SCAN_THRESHOLD,
                   help="stability spread threshold (default 0.05)")
    p.add_argument("--digits", type=int, default=10)
    p.add_argument("--output", default="radius.csv")
    p.add_argument("--from-manifest", metavar="PATH")

    p = sub.add_parser("orbit", help="compare a series orbit against integration")
    p.add_argument("--alpha", default="1")
    p.add_argument("--a", type=float, help="orbit amplitude (z = a^2)")
    p.add_argument("--phi", default="0", help='phase in radians; literals like "pi/4" '
                   'work, a negative one as --phi=-pi/4 (argparse reads -pi/4 as a flag)')
    p.add_argument("--order", type=int, help="series truncation order")
    p.add_argument("--periods", type=float, default=1.0)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--digits", type=int, default=10)
    p.add_argument("--no-radius-check", dest="radius_check", action="store_false",
                   help="skip the internal convergence-radius estimate")
    p.add_argument("--output", default="orbit", help="output file prefix")
    p.add_argument("--from-manifest", metavar="PATH")

    p = sub.add_parser("check", help="run the invariant suites")
    p.add_argument("--level", default="quick", choices=LEVELS)
    p.add_argument("--golden", help="alternate golden reference file")
    p.add_argument("--output", help="optional report file")
    p.add_argument("--from-manifest", metavar="PATH")

    return parser


# the flags a command cannot run without
REQUIRED = {"series": ("order",), "radius": ("alpha", "order"), "orbit": ("a", "order")}


def _collect_params(args):
    """Resolve argparse output into the JSON-safe parameter set: every
    argument of the subcommand but ``--from-manifest``."""
    if args.from_manifest:
        return load_manifest_params(args.from_manifest, args.command)
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "from_manifest")}
    required = REQUIRED.get(args.command, ())
    if any(params[k] is None for k in required):
        flags = " and ".join(f"--{k}" for k in required)
        raise BadArguments(f"{args.command} needs {flags}")
    if args.command == "orbit":
        params["phi"] = parse_angle(params["phi"])
    return params


_DISPATCH = {"series": cmd_series, "radius": cmd_radius,
             "orbit": cmd_orbit, "check": cmd_check}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        params = _collect_params(args)
        if params.get("output") == "":     # a path, or orbit's prefix
            raise BadArguments("the output path is empty")
        return _DISPATCH[args.command](params)
    except BadArguments as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
