"""Checks on the benchmark itself (not on repro).

    python3 perfbench/selfcheck.py

1. Input determinism.  For each workload, three fresh processes build
   the inputs and print their fingerprint (:meth:`inputs.Inputs.
   fingerprint`): seed SEED under ``PYTHONHASHSEED=1``, seed SEED under
   ``PYTHONHASHSEED=2``, and seed SEED+1.  The first two must agree, so
   no input depends on string hashing or process state.  The third must
   differ, so the seed reaches the inputs.
2. Self-time arithmetic.  A hand-built span tree must give the self
   times, coverage and "other" time worked out below.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

#: The seed the determinism check builds (and SEED + 1).
SEED = 1


def fingerprint_in_subprocess(workload: str, seed: int,
                              hashseed: str) -> str:
    code = ("import sys; sys.path[:0] = {paths!r}; "
            "import inputs; "
            "print(inputs.build({w!r}, {s}).fingerprint())"
            ).format(paths=[str(HERE.parent / "src"), str(HERE)],
                     w=workload, s=seed)
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def check_determinism(workloads) -> list[str]:
    failures = []
    for workload in workloads:
        a = fingerprint_in_subprocess(workload, SEED, "1")
        b = fingerprint_in_subprocess(workload, SEED, "2")
        c = fingerprint_in_subprocess(workload, SEED + 1, "1")
        print(f"{workload:<16} seed {SEED}: {a[:16]} / {b[:16]}; "
              f"seed {SEED + 1}: {c[:16]}")
        if a != b:
            failures.append(f"{workload}: the same seed gave two different "
                            f"inputs in two processes")
        if a == c:
            failures.append(f"{workload}: seeds {SEED} and {SEED + 1} gave "
                            f"the same inputs")
    return failures


def check_self_time() -> list[str]:
    """Root (10 s busy) -> child A (4 s) -> grandchild B (1 s); a second
    root C (2 s).  The window is 20 s with 5 s idle, so busy is 15 s and
    the roots cover 12 s of it."""
    from layers import per_layer

    server = {
        "layers": ["server.event_loop", "stream.apply", "trees.apply"],
        "spans": {"layer": [0, 1, 2, 0], "parent": [-1, 0, 1, -1],
                  "start": [1.0, 2.0, 3.0, 12.0],
                  "busy": [10.0, 4.0, 1.0, 2.0],
                  "tag": [0, 1, 0, 0], "call": [1, 1, 1, 1],
                  "trace": [-1, -1, -1, -1]},
        "idle": {"start": [15.0], "busy": [5.0]},
        "waits": {"start": [], "busy": [], "depth": []},
    }
    client = {"layers": [], "spans": {k: [] for k in server["spans"]}}
    got = per_layer(server, client, 0.0, 20.0, requests=2)
    want = {"server.event_loop_s": 4.0, "stream.apply_s": 1.5,
            "trees.apply_s": 0.5, "stream.rejected": 0.5,
            "trace.coverage": 0.8, "trace.other_s": 1.5,
            "server.utilization": 0.75, "stream.apply_s.share": 0.15}
    failures = []
    for name, value in want.items():
        if abs(got[name][0] - value) > 1e-9:
            failures.append(f"self time: {name} = {got[name][0]}, "
                            f"expected {value}")
    print(f"self-time arithmetic: {len(want) - len(failures)}/{len(want)} "
          f"figures as expected")
    return failures


def main() -> int:
    import inputs

    failures = check_self_time()
    failures += check_determinism(inputs.WORKLOADS)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selfcheck:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
