"""Print the sha256 of every artifact of the seven CLI kinds at default configs.

Each kind runs at its default config with seed 0 in a fresh temporary
directory, and every file it writes is listed as ``label/path sha256``, in
sorted order.  The label is the kind.  One more run is listed under
``damped-mode-box``: a ``damped-mode`` run from a box trajectory
(``source=box, t_start=2``), the one path from stored snapshots through
``nonlinear_rhs`` to the Duhamel reconstruction, which no default reaches.
The four workloads of ``perfbench/run.py`` (its ``WORKLOADS``, read from that
file) run at seed 0 under the labels ``bench-<workload>``, so the listing also
shows whether a change moves an output the benchmark's gate compares.
``run_record.json`` holds timestamps and is skipped;
``summary.txt`` names the output directory in its notes, so it is hashed with
that directory removed.  Two commits produce the same outputs exactly when
their listings are equal, which ``diff`` shows:

    python3 tools/output_digests.py > after.txt

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from eulerfourier.cli import run  # noqa: E402
from eulerfourier.config import KINDS, parse_config  # noqa: E402
from run import WORKLOADS  # noqa: E402  (perfbench/run.py)


#: (label, kind, overrides) of every listed run
RUNS = [(kind, kind, {}) for kind in KINDS] + [
    ("damped-mode-box", "damped-mode", {"source": "box", "t_start": 2.0}),
] + [(f"bench-{name}", kind, overrides) for name, (kind, overrides) in WORKLOADS.items()]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for label, kind, overrides in RUNS:
            out = Path(tmp) / label
            run(parse_config(kind=kind, overrides=overrides, seed=0, out_dir=out))
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                if path.name == "run_record.json":
                    continue
                data = path.read_bytes()
                if path.name == "summary.txt":
                    data = data.replace(str(out).encode(), b"")
                print(f"{label}/{path.relative_to(out).as_posix()} {hashlib.sha256(data).hexdigest()}")


if __name__ == "__main__":
    main()
