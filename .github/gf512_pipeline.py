"""Run the GF(512) field pipeline, each CLI call in its own process.

    PYTHONPATH=src python .github/gf512_pipeline.py

runs `field`, `functor field`, `hg verify` and `reconstruct-field` on
GF(512) in a temporary directory, through child_usage.run: each call's
wall time and peak RSS go to stdout and to the run summary, if there is
one, against 75 MB per call, and then the total against 2 s; both
targets are reported, not gated. The exit code is 0 when every call
exits 0 and the field text, the functor file, the hg verify JSON and
the reconstruct-field JSON keep the bytes that the list-based field
code wrote; otherwise the exit message names the calls that changed or
failed.
"""

import hashlib
import os
import sys
import tempfile

from child_usage import run, summarize

FROZEN = {
    "field": "98b17739f86b4b3def54b3de654afaccaeae1dfb0893850292b0110da8708fe9",
    "functor field": "814be0b7f19f34c5896472307bbcbcd608f629ffd6c54fc37c7323730b426006",
    "hg verify": "139bb864f7c85cd5bf3f8c2e086510ee3be9a42b9c935a34d768666c3a0a9627",
    "reconstruct-field": "55e2ede03a9d17583a2efccc3117da23a53b23680ec88f897ca597c6397ae9d7",
}
TARGET_S, TARGET_MB = 2.0, 75.0


def main() -> int | str:
    total, failed = 0.0, []
    with tempfile.TemporaryDirectory() as work:
        ff, out_path = os.path.join(work, "ff512.json"), os.path.join(work, "stdout")
        for name, argv in [
            ("field", ["field", "GF(512)"]),
            ("functor field", ["functor", "field", "GF(512)", "-o", ff]),
            ("hg verify", ["--format", "json", "hg", "verify", ff]),
            ("reconstruct-field", ["--format", "json", "reconstruct-field", ff]),
        ]:
            code, wall = run(f"GF(512) {name}", argv, out_path, TARGET_MB)
            total += wall
            with open(ff if name == "functor field" else out_path, "rb") as out:
                digest = hashlib.sha256(out.read()).hexdigest()
            if code != 0 or digest != FROZEN[name]:
                failed.append(name)
    summarize(f"GF(512) pipeline: {total:.2f} s in all"
              f" ({'within' if total <= TARGET_S else 'over'} {TARGET_S:.0f} s)")
    return f"GF(512) outputs changed or failed: {failed}" if failed else 0


if __name__ == "__main__":
    sys.exit(main())
