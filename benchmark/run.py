"""Run one workload of the lpvolterra benchmark and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Works from any directory: the package is imported from the ``src/`` beside
this file.  The load is a closed loop with one caller: commands run one
after another in this process through ``lpvolterra.cli.main(argv)`` (or,
for ``fits``, through ``lpvolterra.analysis``), writing into a scratch
directory under the checkout that is removed at exit.

Set-up (imports, drawing the inputs from the seed, one small warm-up pass)
is timed in ``PROBES`` child processes, from their start until they are
ready for the first timed call.  ``--trace 0`` then repeats the workload's
pass until ``--seconds`` is spent and reports the median pass.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one.  Every pass's outputs are checked
against the references recorded on the seed commit; each mismatch is
printed to stderr with its workload, item and path.

The last line of stdout is the result as one JSON object; the line before
it is the environment block.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PROBES = 5
PROBE_TIMEOUT = 120
WORK_ROOT = os.path.join(workloads.ROOT, ".bench_work")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# traced-run metrics measured here rather than by the tracer
TRACE_EXTRA = {"cli.bytes_written": "bytes", "bench.cpu_s": "s", "trace.overhead_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Run:
    """One workload at one seed, set up and ready for timed passes."""

    def __init__(self, name, seed):
        self.pkg = workloads.import_package()
        self.workload = workloads.make(name, self.pkg)
        self.workload.load()
        self.items = self.workload.items(seed)
        warm = self.workload.warmup_items()
        self.workload.prepare(self.items + warm)
        self.workload.run_pass(warm)
        self.checker = workloads.Checker(name)

    def timed_pass(self, final=False):
        """Run the items once; return (seconds, outputs), outputs checked."""
        t0 = time.perf_counter()
        results = self.workload.run_pass(self.items)
        seconds = time.perf_counter() - t0
        outputs = self.workload.collect(self.items, results)
        self.workload.check(self.checker, self.items, outputs, final=final)
        return seconds, outputs


def probe_setup(args):
    """Seconds from the start of a fresh benchmark process until it is
    ready for its first timed call (it exits right there)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=PROBE_TIMEOUT)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return seconds


def measure(run, args):
    setups = [probe_setup(args) for _ in range(PROBES)]
    passes = []
    t0 = time.perf_counter()
    while True:
        seconds, _ = run.timed_pass(final=not passes)
        passes.append(seconds)
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(passes) > args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{len(passes)} timed passes: " + " ".join(f"{p:.3f}" for p in passes)
          + "; set-up probes: " + " ".join(f"{s:.3f}" for s in setups), file=sys.stderr)
    return {"wall_s": statistics.median(passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_kb / 1024.0}


def measure_traced(run):
    from tracer import Tracer
    untraced, _ = run.timed_pass(final=True)
    with Tracer(run.pkg) as tracer:
        traced, outputs = run.timed_pass()
    metrics = tracer.metrics(traced)
    times = os.times()
    values = {"cli.bytes_written": run.workload.bytes_written(outputs),
              "bench.cpu_s": (times.user + times.system + times.children_user
                              + times.children_system),
              "trace.overhead_s": traced - untraced}
    metrics.update({k: (v, TRACE_EXTRA[k]) for k, v in values.items()})
    return metrics


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(pkg):
    qq_type = type(pkg.QQ(1))
    return {"python": platform.python_version(),
            "backend": "gmpy2" if qq_type.__module__.startswith("gmpy2") else "fractions",
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "cpu": cpu_model(), "commit": git_commit(workloads.ROOT)}


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        try:
            run = Run(args.workload, args.seed)
        except (ImportError, OSError) as exc:
            print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
            return 2
        if args.setup_probe:
            return 0
        print(f"set-up in this process: {time.perf_counter() - START:.3f} s",
              file=sys.stderr)
        if args.trace:
            metrics = measure_traced(run)
        else:
            metrics = {k: (v, END_TO_END[k]) for k, v in measure(run, args).items()}
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    checker = run.checker
    for line in checker.mismatches[:50]:
        print("MISMATCH " + line, file=sys.stderr)
    failed = len(checker.mismatches)
    print(f"checks: {checker.attempted} attempted, {failed} failed "
          f"(fail_frac {failed / max(checker.attempted, 1):g})", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({"environment": environment(run.pkg)}))
    print(json.dumps({"correct": failed == 0 and checker.attempted > 0,
                      "attempted": checker.attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
