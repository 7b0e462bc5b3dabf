"""The four workloads of the lpvolterra benchmark: their inputs, how a pass
runs them, and how their outputs are checked.

Each workload draws its inputs from ``--seed`` out of a frozen pool whose
reference outputs were recorded on the seed commit (``record.py``), so
every seed is checkable: an output is correct when it is byte-identical to
the recorded one (``fits``: exact coefficients, locations within 1e-10).
Pools are stratified where the cost of an input varies, so that two seeds
cost about the same and a change in ``wall_s`` comes from the program, not
from the draw.
"""

import hashlib
import io
import itertools
import json
import math
import os
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA_DIR = os.path.join(HERE, "data")

SERIES_ORDER = 20
SERIES_ZERO_INITIAL_ORDER = 8

RADIUS_ORDER = 32
# alpha = 1 (rational root) and alpha = 2 (quadratic) run in every radius
# pass, and alpha = 1 in every fits pass, beside the seeded draw: the cost
# of one alpha varies by +-20% from one alpha to the next, and a fixed core
# keeps two seeds within a few percent of each other
RADIUS_ANCHORS = ("1", "2")
FITS_ANCHORS = ("1",)

FITS_ORDER = 62
FITS_THRESHOLD = 1e-2          # the family-agreement check's spread
FITS_SQUARES = ("1/4", "4/9", "9/4", "4")
FITS_NONSQUARES = ("1/2", "2/3", "3/2", "2", "5/2", "3")
FITS_POOL = FITS_ANCHORS + FITS_SQUARES + FITS_NONSQUARES
FITS_REL_TOL = 1e-10

# orbit: one command per (alpha, points, periods) cell, so every pass runs
# the same mix of step counts; the seed picks one of ORBIT_VARIANTS
# (amplitude, phase, order) draws per cell
ORBIT_ALPHAS = ("1/4", "1/2", "1", "2", "4")
ORBIT_POINTS = (512, 1024, 2048)
ORBIT_PERIODS = (4, 5, 6, 8)
ORBIT_VARIANTS = 10


def is_square(q):
    return (math.isqrt(q.numerator) ** 2 == q.numerator
            and math.isqrt(q.denominator) ** 2 == q.denominator)


def import_package():
    """Import lpvolterra from the src/ directory beside the benchmark,
    whatever the working directory."""
    if not os.path.isfile(os.path.join(SRC, "lpvolterra", "__init__.py")):
        raise ImportError(f"no lpvolterra package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import lpvolterra
    import lpvolterra.cli
    found = os.path.dirname(os.path.abspath(lpvolterra.__file__))
    if found != os.path.join(SRC, "lpvolterra"):
        raise ImportError(f"imported lpvolterra from {found}, not from {SRC}")
    return lpvolterra


def digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:32]


def load_json(name):
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def draw(workload, seed, strata):
    """One value from each stratum.  The combinations are dealt in a fixed
    shuffled order, so seeds that differ modulo their number differ."""
    combos = list(itertools.product(*strata))
    random.Random(f"lpvolterra-bench:{workload}").shuffle(combos)
    return combos[seed % len(combos)]


# ---------------------------------------------------------------------------
# running CLI commands in-process

class CliItem:
    def __init__(self, item_id, argv, files, manifest):
        self.id = item_id
        self.argv = list(argv)
        self.files = list(files)
        self.manifest = manifest


def run_cli(pkg, argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = pkg.cli.main(argv)
        except Exception as exc:     # reported as a mismatch, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def read_manifest(path):
    """The manifest without its timestamp, the only field that may move."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    doc.pop("timestamp", None)
    return doc


def collect_cli(item, result):
    """Outputs of a finished CLI item, read back from the working directory."""
    files = {}
    for name in item.files:
        try:
            with open(name, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            files[name] = {"digest": None, "bytes": 0}
            continue
        files[name] = {"digest": digest(data), "bytes": len(data)}
    out = dict(result)
    out["files"] = files
    out["manifest"] = read_manifest(item.manifest)
    return out


def cli_record(item, outputs):
    return {"argv": item.argv, "code": outputs["code"], "stdout": outputs["stdout"],
            "stderr": outputs["stderr"],
            "files": {k: v["digest"] for k, v in outputs["files"].items()},
            "manifest": digest(json.dumps(outputs["manifest"], sort_keys=True))}


class Checker:
    """Counts output checks and keeps every mismatch with its location."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.mismatches = []

    def expect(self, item, path, got, want, how="differs"):
        self.attempted += 1
        if got != want:
            self.mismatches.append(
                f"workload={self.workload} item={item} path={path}: {how}: "
                f"got {_short(got)}, expected {_short(want)}")

    def fail(self, item, path, message):
        self.attempted += 1
        self.mismatches.append(
            f"workload={self.workload} item={item} path={path}: {message}")


def _short(value, limit=160):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def check_cli(checker, item, outputs, ref):
    if ref is None:
        checker.fail(item.id, "-", "no reference output recorded")
        return
    if ref["argv"] != item.argv:
        checker.fail(item.id, "argv", f"reference was recorded for {ref['argv']}")
        return
    checker.expect(item.id, "exit-code", outputs["code"], ref["code"])
    checker.expect(item.id, "stdout", outputs["stdout"], ref["stdout"])
    checker.expect(item.id, "stderr", outputs["stderr"], ref["stderr"])
    for name, want in ref["files"].items():
        got = outputs["files"].get(name, {}).get("digest")
        checker.expect(item.id, name, got, want, "sha256 differs")
    checker.expect(item.id, item.manifest,
                   digest(json.dumps(outputs["manifest"], sort_keys=True)),
                   ref["manifest"], "manifest (timestamp aside) differs")


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    why = ""

    def __init__(self, pkg):
        self.pkg = pkg
        self.refs = None

    def load(self):
        self.refs = load_json(f"ref_{self.name}.json")

    def prepare(self, items):
        """Turn drawn items into program inputs; part of set-up."""

    def items(self, seed):
        raise NotImplementedError

    def warmup_items(self):
        raise NotImplementedError

    def run_pass(self, items):
        return [run_cli(self.pkg, item.argv) for item in items]

    def collect(self, items, results):
        return [collect_cli(item, r) for item, r in zip(items, results)]

    def check(self, checker, items, outputs, final=False):
        for item, out in zip(items, outputs):
            check_cli(checker, item, out, self.refs["items"].get(item.id))

    def bytes_written(self, outputs):
        return sum(f["bytes"] for out in outputs for f in out["files"].values())

    def record(self, items):
        refs = {}
        for item in items:
            t0 = time.perf_counter()
            out = collect_cli(item, run_cli(self.pkg, item.argv))
            refs[item.id] = cli_record(item, out)
            for name in item.files + [item.manifest]:
                os.remove(name)
            print(f"{self.name} {item.id}: {time.perf_counter() - t0:.3f} s",
                  file=sys.stderr, flush=True)
        return refs


def _series_item(item_id, order, gauge=None):
    output = f"series_{item_id}.json"
    argv = ["series", "--order", str(order)]
    if gauge:
        argv += ["--gauge", gauge]
    argv += ["--output", output]
    return CliItem(item_id, argv, [output], output + ".manifest.json")


class SeriesWorkload(Workload):
    name = "series"
    why = ('symbolic and phase-ring series: engine and trigpoly do ~97% of the '
           'work, the tp_mul convolution ~68%; the seed varies nothing')

    def items(self, seed):
        return [_series_item(f"xi{SERIES_ORDER}", SERIES_ORDER),
                _series_item(f"zi{SERIES_ZERO_INITIAL_ORDER}",
                             SERIES_ZERO_INITIAL_ORDER, "zero-initial")]

    def warmup_items(self):
        return [_series_item("warmup-xi4", 4),
                _series_item("warmup-zi2", 2, "zero-initial")]

    def pool(self):
        return self.items(0) + self.warmup_items()


def radius_pool():
    values = {Fraction(p, q) for p in range(1, 10) for q in range(1, 10)
              if Fraction(1, 4) <= Fraction(p, q) <= 4}
    ordered = sorted(values)
    return ([str(v) for v in ordered if is_square(v)],
            [str(v) for v in ordered if not is_square(v)])


def _split_alpha(manifest):
    """(alpha list, digest of the rest) of a radius manifest: a scan's
    manifest differs from a single-alpha one only in the alpha list."""
    rest = dict(manifest, parameters=dict(manifest["parameters"]))
    alpha = rest["parameters"].pop("alpha", None)
    return alpha, digest(json.dumps(rest, sort_keys=True))


def _radius_item(item_id, alphas, order):
    argv = ["radius", "--alpha", ",".join(alphas), "--order", str(order),
            "--output", "radius.csv"]
    item = CliItem(item_id, argv, ["radius.csv"], "radius.csv.manifest.json")
    item.alphas = list(alphas)
    item.order = order
    return item


class RadiusWorkload(Workload):
    """The expected output of a multi-alpha scan is assembled from
    single-alpha references: every CSV row and stderr line belongs to
    one alpha."""

    name = "radius"
    why = ("the paper's radius scan, at order 32, on rational-root and quadratic "
           'alphas: engine ~80% (convolution ~64%), analysis ~20%')

    def items(self, seed):
        squares, others = radius_pool()
        strata = [[a for a in group if a not in RADIUS_ANCHORS]
                  for group in (squares, others)]
        alphas = list(RADIUS_ANCHORS) + list(draw(self.name, seed, strata))
        return [_radius_item("scan:" + ",".join(alphas), alphas, RADIUS_ORDER)]

    def warmup_items(self):
        return [_radius_item("warmup", ["1", "2"], 16)]

    def check(self, checker, items, outputs, final=False):
        for item, out in zip(items, outputs):
            refs = self.refs["orders"].get(str(item.order), {})
            rows = [refs.get(a) for a in item.alphas]
            missing = [a for a, r in zip(item.alphas, rows) if r is None]
            if missing:
                checker.fail(item.id, "-", f"no reference for alpha {missing}")
                continue
            csv_text = self.refs["header"] + "".join(r["row"] for r in rows)
            estimated = any(r["estimated"] for r in rows)
            stderr = "".join(r["stderr"] for r in rows)
            if not estimated:
                stderr += refs["no_estimate"]
            checker.expect(item.id, "exit-code", out["code"], 0 if estimated else 1)
            checker.expect(item.id, "stdout", out["stdout"], "")
            checker.expect(item.id, "stderr", out["stderr"], stderr)
            checker.expect(item.id, "radius.csv", out["files"]["radius.csv"]["digest"],
                           digest(csv_text), "sha256 differs")
            if out["manifest"] is None:
                checker.fail(item.id, item.manifest, "manifest missing")
                continue
            got_alpha, rest = _split_alpha(out["manifest"])
            checker.expect(item.id, item.manifest, got_alpha, ",".join(item.alphas),
                           "manifest alpha differs")
            checker.expect(item.id, item.manifest, rest, refs["manifest"],
                           "manifest (timestamp, alpha aside) differs")

    def record(self, items):
        """Single-alpha runs of every alpha the items name."""
        header = None
        orders = {}
        for item in items:
            for alpha in item.alphas:
                single = _radius_item(alpha, [alpha], item.order)
                t0 = time.perf_counter()
                result = run_cli(self.pkg, single.argv)
                out = collect_cli(single, result)
                with open("radius.csv", encoding="utf-8", newline="") as fh:
                    lines = fh.read().splitlines(keepends=True)
                header = lines[0]
                entry = orders.setdefault(str(item.order), {})
                entry["manifest"] = _split_alpha(out["manifest"])[1]
                # a scan's stderr is one line per failed alpha, then a last
                # line if no alpha gave an estimate at all
                own = result["stderr"].splitlines(keepends=True)
                if result["code"] != 0:
                    entry["no_estimate"] = own.pop()
                entry[alpha] = {"row": "".join(lines[1:]), "stderr": "".join(own),
                                "estimated": result["code"] == 0}
                print(f"radius alpha {alpha} order {item.order}: "
                      f"{time.perf_counter() - t0:.3f} s", file=sys.stderr, flush=True)
        return header, orders

    def pool(self):
        squares, others = radius_pool()
        return [_radius_item("pool", squares + others, RADIUS_ORDER)] + self.warmup_items()


def orbit_pool():
    """Every orbit command the benchmark can draw, as {cell: [item, ...]}."""
    rng = random.Random("lpvolterra-bench:orbit-pool")
    cells = {}
    for alpha in ORBIT_ALPHAS:
        for points in ORBIT_POINTS:
            for periods in ORBIT_PERIODS:
                cell = f"{alpha}|{points}|{periods}"
                variants = []
                for v in range(ORBIT_VARIANTS):
                    a = f"{rng.uniform(0.02, 0.3):.3f}"
                    phi = f"{rng.uniform(0.0, 2 * math.pi):.4f}"
                    order = rng.randint(4, 8)
                    item_id = f"a{alpha.replace('/', 'o')}-n{points}-p{periods}-v{v}"
                    variants.append(_orbit_item(item_id, alpha, a, phi, order,
                                                periods, points))
                cells[cell] = variants
    return cells


def _orbit_item(item_id, alpha, a, phi, order, periods, points):
    prefix = f"orbit_{item_id}"
    argv = ["orbit", "--alpha", alpha, "--a", a, "--phi", phi, "--order", str(order),
            "--periods", str(periods), "--points", str(points), "--no-radius-check",
            "--output", prefix]
    files = [f"{prefix}_{part}.csv" for part in ("orbit", "comparison", "metrics")]
    return CliItem(item_id, argv, files, prefix + ".manifest.json")


class OrbitWorkload(Workload):
    name = "orbit"
    why = ('60 small orbit commands, the only integrator workload: RK4 ~60%, CLI '
           'CSV output ~17%, small engine runs the rest')

    def items(self, seed):
        rng = random.Random(f"lpvolterra-bench:{self.name}:{seed}")
        return [variants[rng.randrange(len(variants))]
                for variants in orbit_pool().values()]

    def warmup_items(self):
        return [_orbit_item("warmup", "1", "0.1", "0.5", 4, 1, 64)]

    def pool(self):
        return [item for variants in orbit_pool().values() for item in variants] \
            + self.warmup_items()


class FitsItem:
    def __init__(self, alpha, n_coeffs):
        self.id = f"alpha={alpha}" + ("" if n_coeffs is None else f":n={n_coeffs}")
        self.alpha = alpha
        self.n_coeffs = n_coeffs
        self.series = None


def _complex_pair(z):
    return [z.real, z.imag]


def _close(a, b):
    return abs(a - b) <= FITS_REL_TOL * max(abs(a), abs(b), 1e-300)


class FitsWorkload(Workload):
    """stable_singularity for both families on frozen order-62 series.

    The pass calls the library directly; there is no CLI command for a
    fit on a stored series."""

    name = "fits"
    why = ('Pade and Hermite-Pade chains on frozen order-62 series: analysis '
           '~100% (roots ~65%, Gauss-Jordan ~32%), engine none')

    def load(self):
        super().load()
        self.frozen = load_json("fits_series.json")

    def prepare(self, items):
        pkg = self.pkg
        for item in items:
            coeffs = [pkg.QQ(Fraction(c)) for c in self.frozen["series"][item.alpha]]
            if item.n_coeffs is not None:
                coeffs = coeffs[:item.n_coeffs]
            item.series = pkg.analysis.PowerSeries(tuple(coeffs),
                                                   alpha=pkg.QQ(Fraction(item.alpha)))

    def items(self, seed):
        alphas = FITS_ANCHORS + draw(self.name, seed, [FITS_SQUARES, FITS_NONSQUARES])
        return [FitsItem(a, None) for a in alphas]

    def warmup_items(self):
        return [FitsItem("1", 17), FitsItem("2", 17)]

    def families(self):
        an = self.pkg.analysis
        return (an.FAMILY_PADE, an.FAMILY_HERMITE_PADE)

    def run_pass(self, items):
        an = self.pkg.analysis
        results = []
        for item in items:
            per_family = {}
            for family in self.families():
                orders = an.default_orders(family, len(item.series))
                try:
                    est = an.stable_singularity(item.series, family, orders,
                                                threshold=FITS_THRESHOLD)
                except an.NoStableRootError as exc:
                    per_family[family] = {"error": f"NoStableRootError: {exc}"}
                    continue
                per_family[family] = {
                    "orders": list(est.orders), "radius": est.radius,
                    "spread": est.stability_spread,
                    "location": _complex_pair(est.location),
                    "trail": [_complex_pair(z) for z in est.trail]}
            results.append(per_family)
        return results

    def collect(self, items, results):
        return results

    def bytes_written(self, outputs):
        return 0

    def fit_digests(self, item):
        """Exact P/Q/R of every fit the chains use, as digests."""
        an = self.pkg.analysis
        out = {}
        for family in self.families():
            for m in an.default_orders(family, len(item.series)):
                try:
                    if family == an.FAMILY_PADE:
                        fit = an.pade_fit(item.series, m, m)
                        polys = [fit.P, fit.Q]
                    else:
                        fit = an.hermite_pade_fit(item.series, m, m, m)
                        polys = [fit.P, fit.Q, fit.R]
                    text = json.dumps([[str(c) for c in p] for p in polys])
                except an.DegenerateApproximantError as exc:
                    text = f"DegenerateApproximantError: {exc}"
                out[f"{family}:{m}"] = digest(text)
        return out

    def check(self, checker, items, outputs, final=False):
        for item, got in zip(items, outputs):
            ref = self.refs["items"].get(item.id)
            if ref is None:
                checker.fail(item.id, "-", "no reference output recorded")
                continue
            for family, want in ref["families"].items():
                self._check_estimate(checker, item.id, family, got.get(family), want)
            if final:
                fits = self.fit_digests(item)
                for key, want in ref["fits"].items():
                    checker.expect(item.id, f"{key}:PQR", fits.get(key), want,
                                   "exact coefficients differ")

    def _check_estimate(self, checker, item_id, family, got, want):
        if got is None or "error" in want or "error" in got:
            checker.expect(item_id, family, got, want)
            return
        ok = (got["orders"] == want["orders"]
              and len(got["trail"]) == len(want["trail"])
              and all(_close(complex(*g), complex(*w))
                      for g, w in zip(got["trail"] + [got["location"]],
                                      want["trail"] + [want["location"]]))
              and _close(got["radius"], want["radius"])
              and _close(got["spread"], want["spread"]))
        if ok:
            checker.expect(item_id, family, True, True)
        else:
            checker.fail(item_id, family,
                         f"estimate differs beyond {FITS_REL_TOL:g} relative: "
                         f"got {_short(got)}, expected {_short(want)}")

    def pool(self):
        return [FitsItem(a, None) for a in FITS_POOL] + self.warmup_items()

    def record(self, items):
        self.prepare(items)
        refs = {}
        for item in items:
            t0 = time.perf_counter()
            res = self.run_pass([item])[0]
            print(f"fits {item.id}: {time.perf_counter() - t0:.3f} s",
                  file=sys.stderr, flush=True)
            refs[item.id] = {"families": res, "fits": self.fit_digests(item)}
        return refs


WORKLOADS = {w.name: w for w in (SeriesWorkload, RadiusWorkload, FitsWorkload,
                                 OrbitWorkload)}


def make(name, pkg):
    return WORKLOADS[name](pkg)


def record_workload(name, pkg):
    """(file name, document) of a workload's reference outputs, run on the
    pool of inputs a seed can draw.  Writes into the working directory."""
    wl = make(name, pkg)
    if name == "fits":
        wl.frozen = load_json("fits_series.json")
    items = wl.pool()
    if name == "radius":
        header, orders = wl.record(items)
        return f"ref_{name}.json", {"header": header, "orders": orders}
    return f"ref_{name}.json", {"items": wl.record(items)}
