"""Per-layer spans recorded from outside the package.

:class:`Tracer` wraps the public functions of each ``eulerfourier`` module
listed in :data:`SPANS` and records, per wrapped function and per layer,
the number of calls, the busy time and the self time.  Busy time of a
layer counts only its outermost spans, so a layer function calling
another one of the same layer is not counted twice.  Self time is a
span's duration minus the time its child spans cover, whatever their
layer.  Exact work counts (transform sizes, quadrature nodes, trials,
snapshots) are computed from the call arguments.

A wrapped function is replaced at every module-level binding site in the
package, because ``from .x import f`` copies the binding at import time:
``decay.semigroup_besov_decay``, ``decay.nonlinear_rhs``,
``lyapunov.nonlinear_rhs``, ``inequalities.random_field``/``ball_field``
and ``cli.write_verdicts``/``write_curve``/``validate_verdict_file`` are
such copies.  A listed function that no longer exists raises
:class:`SpanError`.  Spans assume a single thread, which is how
``cli.run`` executes one experiment.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

LINEAR = "linear-quadrature"
BOX = "box-3d"
LYAP = "lyapunov-audit"
INEQ = "inequality-harness"
ALL = (LINEAR, BOX, LYAP, INEQ)


def _arguments(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _fft_count(counts, signature, args, kwargs, out):
    # computed from array sizes: points transformed, bytes read plus written
    field = args[1]  # forward(self, f) / inverse(self, fhat)
    counts["grid.fft_points"] += field.size
    counts["grid.fft_bytes"] += field.nbytes + out.nbytes


def _mode_evals(counts, signature, args, kwargs, out):
    # times x radial nodes, for the base node count and, with the
    # convergence check, for the doubled one (as semigroup_besov_decay does)
    args = _arguments(signature, args, kwargs)
    lo, hi = args["r_range"]
    per_octave = [args["nodes_per_octave"]]
    if args["check_convergence"]:
        per_octave.append(2 * args["nodes_per_octave"])
    nodes = sum(int(math.ceil(npo * math.log2(hi / lo))) + 1 for npo in per_octave)
    counts["linear.mode_evals"] += len(args["times"]) * nodes


def _trials(counts, signature, args, kwargs, out):
    counts["inequalities.trials"] += int(_arguments(signature, args, kwargs)["trials"])


def _snapshots(counts, signature, args, kwargs, out):
    trajectory = _arguments(signature, args, kwargs)["trajectory"]
    counts["lyapunov.snapshots"] += len(trajectory.snapshots)


#: (module:qualified name, layer, work counter, workloads on which it must fire)
SPANS = [
    ("config:parse_config", "config", None, ALL),
    ("grid:PeriodicGrid.forward", "grid", _fft_count, (BOX, LYAP, INEQ)),
    ("grid:PeriodicGrid.inverse", "grid", _fft_count, (BOX, LYAP, INEQ)),
    ("littlewood:LittlewoodPaley.shell_multiplier", "littlewood", None, (BOX, LYAP, INEQ)),
    ("littlewood:LittlewoodPaley.shell_l2_hat", "littlewood", None, (BOX, LYAP, INEQ)),
    ("littlewood:LittlewoodPaley.block", "littlewood", None, (LYAP, INEQ)),
    ("littlewood:LittlewoodPaley.besov_norm", "littlewood", None, (INEQ,)),
    ("randfields:random_field", "randfields", None, (INEQ,)),
    ("randfields:ball_field", "randfields", None, (INEQ,)),
    ("linear:semigroup_besov_decay", "linear", _mode_evals, (LINEAR,)),
    ("solver:Stepper.__init__", "solver", None, (BOX, LYAP)),
    ("solver:Stepper.step_hat", "solver", None, (BOX, LYAP)),
    ("solver:integrate", "solver", None, (BOX, LYAP)),
    ("solver:nonlinear_rhs", "solver", None, (LYAP,)),
    ("solver:save_checkpoint", "solver", None, (BOX,)),
    ("inequalities:check_bernstein", "inequalities", _trials, (INEQ,)),
    ("inequalities:check_interpolation", "inequalities", _trials, (INEQ,)),
    ("inequalities:check_product", "inequalities", _trials, (INEQ,)),
    ("inequalities:check_commutator", "inequalities", _trials, (INEQ,)),
    ("lyapunov:lyapunov_residual", "lyapunov", _snapshots, (LYAP,)),
    ("decay:generate_initial_data", "decay", None, (BOX, LYAP)),
    ("decay:fit_rate", "decay", None, (LINEAR,)),
    ("decay:run_decay_experiment", "decay", None, (LINEAR,)),
    ("reporting:write_verdicts", "reporting", None, ALL),
    ("reporting:validate_verdict_file", "reporting", None, ALL),
    ("reporting:write_curve", "reporting", None, (LINEAR, BOX, LYAP)),
    ("reporting:RunRecord.write", "reporting", None, ALL),
]


class SpanError(RuntimeError):
    """A span target is missing from the package."""


class Tracer:
    """Call counts, busy and self time per wrapped function and per layer."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # target -> [calls, busy_s, self_s]
        self.layers: dict[str, list] = {}  # layer -> [calls, busy_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # child time covered, per open span
        self._depth: Counter = Counter()  # open spans per layer

    def _wrap(self, target: str, layer: str, fn, counter):
        signature = inspect.signature(fn) if counter else None
        span = self.spans.setdefault(target, [0, 0.0, 0.0])
        totals = self.layers.setdefault(layer, [0, 0.0, 0.0])
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - frame[0]
                span[0] += 1
                span[1] += elapsed
                span[2] += own
                totals[0] += 1
                totals[2] += own
                if depth[layer] == 0:
                    totals[1] += elapsed
            if counter is not None:
                counter(self.counts, signature, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in :data:`SPANS` at all of its binding sites."""
        importlib.import_module("eulerfourier")
        importlib.import_module("eulerfourier.cli")  # the package does not import it
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "eulerfourier" or name.startswith("eulerfourier.")]
        for target, layer, counter, _ in SPANS:
            modname, _, qualname = target.partition(":")
            module = importlib.import_module(f"eulerfourier.{modname}")
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or attr not in vars(owner):
                    raise SpanError(f"span target {target} no longer exists")
                setattr(owner, attr, self._wrap(target, layer, vars(owner)[attr], counter))
                continue
            original = getattr(module, attr, None)
            if original is None:
                raise SpanError(f"span target {target} no longer exists")
            wrapped = self._wrap(target, layer, original, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    def report(self) -> dict:
        return {"spans": self.spans, "layers": self.layers, "counts": dict(self.counts)}
