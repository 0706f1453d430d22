"""Do the workloads separate the layers?  Reads the traced runs' output.

    python3 perfbench/run.py --workload W --seed N --seconds 22 --trace 1
        (once per workload; each leaves .perfbench_out/W-trace.json)
    python3 perfbench/separation.py

Checks, on shares of server wall time:

* ``masks.*`` + ``trees.apply_s`` is larger on big-doc-edits than on
  many-small-docs;
* ``framing.*`` + ``protocol.*`` is larger on many-small-docs than on
  big-doc-edits;
* ``journal.fsync_s`` is close to zero (under 2%) on read-mostly, when
  its traced output is there (read-mostly is not in BENCHMARK.json).

Exits 0 when every check made holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"

KERNEL = ("masks.violations_s.share", "masks.fleet_epoch_s.share",
          "trees.apply_s.share")
WIRE = ("framing.read_s.share", "framing.write_s.share",
        "framing.encode_s.share", "protocol.decode_s.share",
        "protocol.encode_s.share")
#: "Close to zero": fsync under this share of server wall time.
FSYNC_NEAR_ZERO = 0.02


def share(table: dict, names) -> float:
    return sum(table[name][0] for name in names)


def main() -> int:
    tables = {}
    for workload in ("big-doc-edits", "many-small-docs", "read-mostly"):
        path = OUT / f"{workload}-trace.json"
        if path.exists():
            tables[workload] = json.loads(path.read_text())["per_layer"]
        elif workload != "read-mostly":
            print(f"missing {path}: run the traced run of {workload} first")
            return 1
    big, small = tables["big-doc-edits"], tables["many-small-docs"]
    checks = [
        ("masks.* + trees.apply_s share, big-doc-edits > many-small-docs",
         share(big, KERNEL), share(small, KERNEL),
         share(big, KERNEL) > share(small, KERNEL)),
        ("framing.* + protocol.* share, many-small-docs > big-doc-edits",
         share(small, WIRE), share(big, WIRE),
         share(small, WIRE) > share(big, WIRE)),
    ]
    if "read-mostly" in tables:
        fsync = tables["read-mostly"]["journal.fsync_s.share"][0]
        checks.append((f"journal.fsync_s share on read-mostly < "
                       f"{FSYNC_NEAR_ZERO}", fsync, FSYNC_NEAR_ZERO,
                       fsync < FSYNC_NEAR_ZERO))
    for label, left, right, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {left:.4f} vs {right:.4f}")
    return 0 if all(ok for *_, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
