"""Replay the Tier-1 workflow's steps on this checkout.

Runs every ``run:`` block of ``.github/workflows/tier1.yml`` after the
Install step, in order, the way the workflow's runner would: under
``bash -e`` (``-o pipefail`` too for a step that sets ``shell: bash``),
from the checkout, with ``RUNNER_TEMP`` a fresh temporary directory,
``GITHUB_WORKSPACE`` the checkout and ``PYTHONPATH`` its ``src``, with
this interpreter first on ``PATH``.  A step without ``if: always()`` is
skipped once a step has failed.  Prints each step's name, result and wall
time, the failing test ids of pytest steps and the tail of a failing
step's output; exits 1 if any step failed.  Steps, expected files and
tests are read, never changed.

    python tools/ci_local.py
"""

import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def steps():
    """(name, script, shell flags, always) of each run step after Install."""
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    out, after_install = [], False
    for step in (s for job in jobs.values() for s in job["steps"]):
        if after_install and "run" in step:
            flags = ["-eo", "pipefail"] if step.get("shell") == "bash" else ["-e"]
            out.append((step.get("name", step["run"]), step["run"], flags,
                        "always()" in str(step.get("if", ""))))
        after_install = after_install or step.get("name") == "Install"
    return out


def main():
    rows, failed = [], False
    with tempfile.TemporaryDirectory(prefix="ci_local_") as temp:
        env = dict(os.environ, RUNNER_TEMP=temp, GITHUB_WORKSPACE=str(ROOT),
                   PYTHONPATH=str(ROOT / "src"),
                   PATH=os.path.dirname(sys.executable) + os.pathsep + os.environ["PATH"])
        for name, script, flags, always in steps():
            if failed and not always:
                rows.append((name, "skipped", 0.0, []))
                continue
            start = time.perf_counter()
            proc = subprocess.run(["bash", "--noprofile", "--norc", *flags, "-c", script],
                                  cwd=ROOT, env=env, capture_output=True, text=True)
            wall = time.perf_counter() - start
            output = proc.stdout + proc.stderr
            tests = re.findall(r"^(?:FAILED|ERROR) (\S+)", output, re.M) if "pytest" in script else []
            rows.append((name, "pass" if proc.returncode == 0 else "FAIL", wall, tests))
            if proc.returncode:
                failed = True
                print(f"--- {name}: exit {proc.returncode}, last lines of output", flush=True)
                print("\n".join(output.rstrip().splitlines()[-15:]), flush=True)
    width = max(len(name) for name, *_ in rows)
    print(f"\n{'step':<{width}}  result   wall_s")
    for name, result, wall, tests in rows:
        print(f"{name:<{width}}  {result:<7}  {wall:6.1f}")
        for test in tests:
            print(f"{'':<{width}}    failed: {test}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
