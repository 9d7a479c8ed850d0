"""Print the traced memory of one experiment, phase by phase.

    python3 tools/memory_phases.py simulate --set dim=3 --set npts=64 \\
        --set length=50.26548245743669 --set t_end=0.8

The run is ``KIND`` at its default config with seed 0, changed by each
``--set key=value``, in a fresh temporary directory, under ``tracemalloc``.
The phases are the calls of ``decay.generate_initial_data`` (initial data),
``solver.Stepper.step_hat`` (each step), the sampler inside
``solver.integrate`` (each sample) and ``solver.save_checkpoint`` (the
checkpoint), caught by a profile hook on their code objects, so nothing is
patched.  Each line gives the bytes traced when the phase starts ("held") and
the most traced inside it ("peak"), in MB, and the last line the run's peak.
tracemalloc sees numpy's arrays and Python's objects, not the interpreter or
the libraries, so these figures sit below the process's resident size.

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from eulerfourier import decay, solver  # noqa: E402
from eulerfourier.cli import _parse_set_flags, run  # noqa: E402
from eulerfourier.config import KINDS, parse_config  # noqa: E402

#: code object of each phase's function -> its label
PHASES = {
    decay.generate_initial_data.__code__: "initial data",
    solver.Stepper.step_hat.__code__: "step",
    solver.save_checkpoint.__code__: "checkpoint",
}
#: the sampler is a closure of ``integrate``: matched by name inside solver.py
SAMPLER = (solver.integrate.__code__.co_filename, "sample")

MB = 1e6


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                        help="override one config option (repeatable)")
    args = parser.parse_args(argv)
    overrides = _parse_set_flags(args.set)

    rows: list[tuple[str, float, float]] = []
    counts: dict[str, int] = {}
    open_phases: dict[int, tuple[str, int]] = {}  # frame id -> (label, held)
    peak_so_far = [0]

    def phase_of(frame) -> str | None:
        code = frame.f_code
        if code in PHASES:
            return PHASES[code]
        if (code.co_filename, code.co_name) == SAMPLER:
            return "sample"
        return None

    def hook(frame, event, arg) -> None:
        if event not in ("call", "return"):
            return
        label = phase_of(frame)
        if label is None:
            return
        held, peak = tracemalloc.get_traced_memory()
        if event == "call":
            peak_so_far[0] = max(peak_so_far[0], peak)
            tracemalloc.reset_peak()
            n = counts.get(label, 0)
            counts[label] = n + 1
            open_phases[id(frame)] = (f"{label} {n}", held)
        elif id(frame) in open_phases:
            name, held0 = open_phases.pop(id(frame))
            peak_so_far[0] = max(peak_so_far[0], peak)
            rows.append((name, held0 / MB, peak / MB))

    with tempfile.TemporaryDirectory() as tmp:
        cfg = parse_config(kind=args.kind, overrides=overrides, seed=0, out_dir=Path(tmp))
        tracemalloc.start()
        sys.setprofile(hook)
        try:
            run(cfg)
        finally:
            sys.setprofile(None)
            peak_so_far[0] = max(peak_so_far[0], tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    print(f"{'phase':<18} {'held_mb':>9} {'peak_mb':>9}")
    for name, held, peak in rows:
        print(f"{name:<18} {held:9.1f} {peak:9.1f}")
    print(f"{'run':<18} {'':>9} {peak_so_far[0] / MB:9.1f}")


if __name__ == "__main__":
    main()
