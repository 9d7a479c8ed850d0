"""Record the reference verdicts the correctness gate compares against.

Usage, from the root of a checkout:

    python3 perfbench/record_references.py [workload ...]

Runs the named workloads (default: all) once per CLI seed in the pool, untraced, and writes
``perfbench/references/<workload>.json`` with the workload's kind, its
option overrides and each seed's ``verdicts.jsonl`` records.  Record them
only at a commit whose results are the accepted ones: the gate then
holds every later commit to them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCES, WORK, WORKLOADS, run_op

POOL = range(16)


def main() -> int:
    REFERENCES.mkdir(exist_ok=True)
    WORK.mkdir(parents=True, exist_ok=True)
    for workload in sys.argv[1:] or WORKLOADS:
        kind, overrides = WORKLOADS[workload]
        verdicts = {}
        with tempfile.TemporaryDirectory(prefix="record-", dir=WORK) as tmp:
            for seed in POOL:
                op = run_op(workload, seed, traced=False, tmp=Path(tmp))
                if op["error"] is not None:
                    print(f"{workload} seed {seed}: {op['error']}", file=sys.stderr)
                    return 1
                verdicts[str(seed)] = op["verdicts"]
                failed = [v["name"] for v in op["verdicts"] if not v["pass"]]
                print(f"{workload} seed {seed}: {op['wall_s']:.2f} s, failed {failed}",
                      flush=True)
        data = {"kind": kind, "overrides": overrides, "verdicts": verdicts}
        (REFERENCES / f"{workload}.json").write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
