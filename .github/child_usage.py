"""Run the hypergroups CLI in a child process and report its usage.

    PYTHONPATH=src python .github/child_usage.py LABEL TARGET_MB OUT [ARG ...]

runs `python -m hypergroups.cli ARG ...` with its stdout written to OUT,
then prints one line, also appended to the run summary
($GITHUB_STEP_SUMMARY) when there is one: LABEL, the exit code, the wall
time and the peak RSS, the child's own rusage from os.wait4, against
TARGET_MB, reported, not gated. The exit code is the child's. A step that
runs several calls imports run and summarize instead.
"""

import os
import subprocess
import sys
import time


def run(label: str, args: list[str], out_path: str, target_mb: float) -> tuple[int, float]:
    """Run the CLI on args with its stdout in out_path, summarize its
    line, and return its exit code and wall time in seconds."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "hypergroups.cli", *args], stdout=out)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024
    summarize(f"{label}: exit {code}, {wall:.2f} s, peak RSS {peak:.1f} MB"
              f" ({'within' if peak <= target_mb else 'over'} {target_mb:.0f} MB)")
    return code, wall


def summarize(line: str) -> None:
    """Print line and append it to the run summary, if there is one."""
    print(line)
    with open(os.environ.get("GITHUB_STEP_SUMMARY", os.devnull), "a") as summary:
        summary.write(line + "\n")


if __name__ == "__main__":
    label, target_mb, out_path, *args = sys.argv[1:]
    sys.exit(run(label, args, out_path, float(target_mb))[0])
