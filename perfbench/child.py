"""One benchmark operation: a single experiment in a fresh interpreter.

Usage: python3 perfbench/child.py '<json request>'

The request names the checkout's ``src`` directory, the experiment kind,
its option overrides, the CLI seed, the output directory, the result file
and whether to trace.  The experiment goes through the public
``eulerfourier.cli.run(parse_config(...))`` path.  The result file gets
the set-up time (import plus config parse), the wall and CPU time of
``cli.run``, the peak resident memory, any error, and with tracing the
per-layer span totals.  Exit code 3 means the package did not come from
the requested source tree.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _environment() -> dict:
    import numpy
    import scipy

    import eulerfourier

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "eulerfourier": eulerfourier.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main() -> int:
    req = json.loads(sys.argv[1])
    tracer = None
    if req["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import eulerfourier.cli as cli
    from eulerfourier import config

    src = os.path.realpath(req["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"eulerfourier was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    if req.get("environment"):
        with open(req["result"], "w") as fh:
            json.dump(_environment(), fh)
        return 0

    cfg = config.parse_config(kind=req["kind"], overrides=req["overrides"],
                              seed=req["seed"], out_dir=req["out"])
    setup_s = time.perf_counter() - T_START

    error = None
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        cli.run(cfg)
    except Exception as exc:  # noqa: BLE001 - a raising run is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "error": error,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(req["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
