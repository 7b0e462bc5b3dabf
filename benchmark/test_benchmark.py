"""Self-tests of the benchmark.  Run from any directory with

    python3 -m pytest -q <checkout>/benchmark/test_benchmark.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC_PATH = os.path.join(workloads.ROOT, "BENCHMARK.json")


@pytest.fixture(scope="module")
def pkg():
    return workloads.import_package()


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def spec():
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def ready(pkg, name, items):
    wl = workloads.make(name, pkg)
    wl.load()
    wl.prepare(items)
    return wl


def check_outputs(wl, items, outputs, final=True):
    checker = workloads.Checker(wl.name)
    wl.check(checker, items, outputs, final=final)
    return checker


def fingerprint(outputs):
    return json.dumps(outputs, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# inputs

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(pkg, name):
    a = [it.id for it in workloads.make(name, pkg).items(7)]
    b = [it.id for it in workloads.make(name, pkg).items(7)]
    assert a == b


@pytest.mark.parametrize("name", ["radius", "fits", "orbit"])
def test_different_seeds_different_inputs(pkg, name):
    wl = workloads.make(name, pkg)
    drawn = {tuple(it.id for it in wl.items(seed)) for seed in range(10)}
    assert len(drawn) == 10


def test_every_pool_input_has_a_reference(pkg):
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, pkg)
        wl.load()
        for seed in range(40):
            for item in wl.items(seed):
                if name == "radius":
                    refs = wl.refs["orders"][str(item.order)]
                    assert all(a in refs for a in item.alphas)
                else:
                    assert wl.refs["items"][item.id]


# ---------------------------------------------------------------------------
# metric names

def test_metric_names_are_well_formed():
    doc = spec()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_end_to_end_names_match_spec():
    assert {m["name"] for m in spec()["end_to_end"]} == set(bench_run.END_TO_END)


def test_workloads_match_spec():
    assert [w["name"] for w in spec()["workloads"]] == list(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# the smoke-sized (warm-up) pass of every workload, traced and untraced

def wrapped_sites(pkg):
    sites = [s for _, _, group in tracer.SPANS for s in group]
    sites += [s for _, group in tracer.COUNTED for s in group]
    return {(mod, attr): getattr(getattr(pkg, mod), attr) for mod, attr in sites}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_matches_references(pkg, name, in_tmp):
    wl = workloads.make(name, pkg)
    items = wl.warmup_items()
    wl = ready(pkg, name, items)
    t0 = time.perf_counter()
    outputs = wl.collect(items, wl.run_pass(items))
    assert time.perf_counter() - t0 < 10
    checker = check_outputs(wl, items, outputs)
    assert checker.attempted > 0
    assert checker.mismatches == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_is_identical_and_restores(pkg, name, in_tmp):
    wl = workloads.make(name, pkg)
    items = wl.warmup_items()
    wl = ready(pkg, name, items)
    before = wrapped_sites(pkg)
    plain = wl.collect(items, wl.run_pass(items))
    with tracer.Tracer(pkg) as tr:
        assert all(wrapped_sites(pkg)[k] is not v for k, v in before.items())
        t0 = time.perf_counter()
        traced = wl.collect(items, wl.run_pass(items))
        wall = time.perf_counter() - t0
    after = wrapped_sites(pkg)
    assert all(after[k] is v for k, v in before.items())
    assert fingerprint(traced) == fingerprint(plain)
    assert tr.spans
    metrics = tr.metrics(wall)
    layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    assert layer_sum + metrics["bench.self_s"][0] == pytest.approx(wall, rel=1e-9)


def test_per_layer_names_match_spec(pkg, in_tmp):
    wl = workloads.make("orbit", pkg)
    items = wl.warmup_items()
    wl = ready(pkg, "orbit", items)
    with tracer.Tracer(pkg) as tr:
        outputs = wl.collect(items, wl.run_pass(items))
    names = set(tr.metrics(1.0)) | set(bench_run.TRACE_EXTRA)
    assert names == {m["name"] for m in spec()["per_layer"]}
    assert outputs


def test_counts_repeat(pkg, in_tmp):
    counts = []
    for _ in range(2):
        wl = workloads.make("radius", pkg)
        items = wl.warmup_items()
        wl = ready(pkg, "radius", items)
        with tracer.Tracer(pkg) as tr:
            wl.run_pass(items)
        m = tr.metrics(1.0)
        counts.append({k: v for k, (v, unit) in m.items() if unit != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["trigpoly.mul_term_pairs"] > 0


# ---------------------------------------------------------------------------
# the frozen fits inputs

def test_frozen_series_start_like_the_golden_ratios():
    frozen = workloads.load_json("fits_series.json")
    with open(os.path.join(workloads.SRC, "lpvolterra", "data", "golden.json"),
              encoding="utf-8") as fh:
        golden = json.load(fh)["frequency_ratios"]
    d = [Fraction(c) for c in frozen["series"]["1"]]
    assert d[0] == 1
    assert len(d) == workloads.FITS_ORDER // 2 + 1
    for j in range(1, 5):
        assert d[j] == Fraction(golden[str(j)])
    for coeffs in frozen["series"].values():
        assert Fraction(coeffs[0]) == 1


def test_frozen_series_regenerates_exactly(pkg):
    frozen = workloads.load_json("fits_series.json")
    series = pkg.series_from_engine(pkg.run(workloads.FITS_ORDER, pkg.QQ(1)))
    assert [str(c) for c in series.coeffs] == frozen["series"]["1"]


# ---------------------------------------------------------------------------
# the command itself

def test_runs_from_any_directory(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "orbit",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench_run.END_TO_END)
    env = json.loads(proc.stdout.splitlines()[-2])["environment"]
    assert env["backend"] in ("gmpy2", "fractions")


def test_fails_without_the_program(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    for path in spec()["paths"]:
        shutil.copytree(os.path.join(workloads.ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = spec()["command"] + ["--workload", "series", "--seed", "1",
                               "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
