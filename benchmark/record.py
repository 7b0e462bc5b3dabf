"""Regenerate the benchmark's frozen inputs and reference outputs.

    python3 benchmark/record.py fits-series            # order-62 series, fits pool
    python3 benchmark/record.py references [WORKLOAD]  # reference outputs

Run it on the commit whose outputs later commits must reproduce; the files
land in benchmark/data/.  ``references`` for fits needs the frozen series.
"""

import json
import os
import shutil
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def write_json(name, doc):
    path = os.path.join(workloads.DATA_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def record_fits_series(pkg):
    """Series already on file are kept; only missing alphas are computed."""
    try:
        out = workloads.load_json("fits_series.json")["series"]
    except OSError:
        out = {}
    for text in workloads.FITS_POOL:
        if text in out:
            continue
        t0 = time.perf_counter()
        alpha = pkg.QQ(Fraction(text))
        ps = pkg.series_from_engine(pkg.run(workloads.FITS_ORDER, alpha))
        out[text] = [str(c) for c in ps.coeffs]
        print(f"alpha {text}: {time.perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)
    write_json("fits_series.json", {"order": workloads.FITS_ORDER, "series": out})


def main(argv):
    pkg = workloads.import_package()
    if argv == ["fits-series"]:
        record_fits_series(pkg)
        return 0
    if not argv or argv[0] != "references" or len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    names = argv[1:] or list(workloads.WORKLOADS)
    work_root = os.path.join(workloads.ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=work_root)
    cwd = os.getcwd()
    try:
        os.chdir(work)
        for name in names:
            write_json(*workloads.record_workload(name, pkg))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
