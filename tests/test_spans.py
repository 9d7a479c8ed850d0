"""Every span target of the benchmark tracer still exists in the package,
and the work counters still bind the calls they count."""

import importlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from eulerfourier.grid import PeriodicGrid
from eulerfourier.linear import saturating_profile, semigroup_besov_decay

ROOT = Path(__file__).resolve().parents[1]
SPANS_FILE = ROOT / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # defines SPANS; installs no tracer
    return spans


_SPANS = _spans_module()


@pytest.mark.parametrize("target", [target for target, *_ in _SPANS.SPANS])
def test_span_target_resolves(target):
    # the same lookup the tracer makes: a method must sit in its class's
    # own namespace, any other target must be a module attribute
    modname, _, qualname = target.partition(":")
    module = importlib.import_module(f"eulerfourier.{modname}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        assert owner is not None and attr in vars(owner), f"{target} is gone"
    else:
        assert callable(getattr(module, attr, None)), f"{target} is gone"


def test_mode_evals_counter_binds_a_quadrature_call():
    # the counter reads times, nodes_per_octave, r_range and check_convergence
    # from the bound call: renaming any of them fails here
    args = (saturating_profile(0.5, 1, band=(1e-2, 1.0)), 1, np.array([0.0, 1.0, 10.0]))
    kwargs = {"nodes_per_octave": 16, "r_range": (5e-3, 8.0)}
    out = semigroup_besov_decay(*args, **kwargs)
    counts = Counter()
    _SPANS._mode_evals(counts, inspect.signature(semigroup_besov_decay), args, kwargs, out)
    octaves = math.log2(8.0 / 5e-3)
    nodes = sum(math.ceil(npo * octaves) + 1 for npo in (16, 32))
    assert counts["linear.mode_evals"] == 3 * nodes


def test_fft_counter_binds_band_transforms():
    # the counter reads the field as the first argument after the grid and the
    # result's size: a band forward reads a full field and returns the band,
    # a band inverse the reverse
    grid = PeriodicGrid(dim=2, npts=16, length=2.0 * math.pi)
    f = np.random.default_rng(3).standard_normal((3,) + grid.shape)
    tracer = _SPANS.Tracer()
    forward, inverse = (tracer._wrap(f"grid:PeriodicGrid.{name}", "grid",
                                     getattr(PeriodicGrid, name), _SPANS._fft_count)
                        for name in ("forward", "inverse"))
    band = forward(grid, f, band=True)
    assert band.shape == (3,) + grid.band_shape
    assert tracer.counts["grid.fft_points"] == f.size
    assert tracer.counts["grid.fft_bytes"] == f.nbytes + band.nbytes
    back = inverse(grid, band)
    assert back.shape == f.shape
    assert tracer.counts["grid.fft_points"] == f.size + band.size
    assert tracer.counts["grid.fft_bytes"] == f.nbytes + 2 * band.nbytes + back.nbytes
    assert [tracer.spans[f"grid:PeriodicGrid.{n}"][0] for n in ("forward", "inverse")] == [1, 1]


# runs in a fresh interpreter, since the tracer patches the package in place
_TRACED_RUN = """
import json, sys
from spans import SPANS, Tracer
tracer = Tracer()
tracer.install()
import eulerfourier.cli as cli
from eulerfourier import config
out_dir, workload, kind, overrides = sys.argv[1], sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
cli.run(config.parse_config(kind=kind, overrides=overrides, seed=0, out_dir=out_dir))
print(json.dumps([t for t, _, _, must in SPANS if workload in must and tracer.spans[t][0] == 0]))
"""

#: workload -> a small run of its CLI kind that passes through the same spans
_SMALL_RUNS = {
    _SPANS.LYAP: ("lyapunov", {"t_end": 2.5e-4}),
    _SPANS.BOX: ("simulate", {"dim": 3, "npts": 16, "length": 4.0 * math.pi, "t_end": 0.8}),
}


@pytest.mark.parametrize("workload", sorted(_SMALL_RUNS))
def test_every_workload_span_records_a_call(workload, tmp_path):
    # the benchmark's traced run fails on a silent span; this catches it first
    kind, overrides = _SMALL_RUNS[workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(tmp_path), workload, kind,
                           json.dumps(overrides)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [], "spans recorded no call"
