"""Run configuration: plain ``key = value`` files plus flag overrides.

Every theorem-range precondition is checked here, so the experiment
runners receive only valid inputs and error messages always name the
violated admissibility condition rather than failing deep inside a
norm computation.  The ranges themselves are stated once, in
:class:`~eulerfourier.decay.InitialDataSpec` and
:meth:`~eulerfourier.decay.RateTarget.validate`, which this module calls.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .decay import InitialDataSpec, RateTarget
from .reporting import config_hash

KINDS = (
    "lp-inspect",
    "validate",
    "linear-decay",
    "simulate",
    "decay-fit",
    "lyapunov",
    "damped-mode",
)

#: accepted spelling-out alias from older config files
_KIND_ALIASES = {"validate-inequalities": "validate"}

#: per-kind option defaults; parse_config fills these in and rejects
#: unknown keys so config-file typos surface immediately.
KIND_DEFAULTS: dict[str, dict] = {
    "lp-inspect": {
        "dim": 1,
        "npts": 256,
        "length": 16.0 * 3.141592653589793,
        "trials": 100,
        "radii": 10000,
        "partition_tol": 1e-12,
        "telescope_tol": 1e-10,
        "disjoint_tol": 1e-12,
    },
    "validate": {
        "dim": 1,
        "npts": 256,
        "length": 16.0 * 3.141592653589793,
        "trials": 100,
        "budget": 16.0,
    },
    "linear-decay": {
        "dim": 3,
        "sigma1": 1.5,
        "sigma": 0.0,
        "sigma_u": 0.0,
        "with_u": True,
        "amplitude": 1.0,
        "t_start": 1e2,
        "t_end": 1e4,
        "tolerance_state": 0.05,
        "tolerance_u": 0.10,
        "neg_ratio_bound": 4.0,
        "nodes_per_octave": 64,
    },
    "simulate": {
        "dim": 1,
        "npts": 1024,
        "length": 32.0 * 3.141592653589793,
        "sigma1": 0.5,
        "amplitude": 1e-3,
        "t_end": 10.0,
        "dt": 0.0,  # 0 = automatic CFL choice
        "sample_stride": 4,
        "snapshot_stride": 0,  # 0 = the final state only
        "mass_tol": 1e-10,
        "checkpoint": True,
    },
    "decay-fit": {
        "dim": 1,
        "npts": 2048,
        "length": 64.0 * 3.141592653589793,
        "sigma1": 0.5,
        "sigma": 0.5,
        "amplitude": 1e-3,
        "t_start": 5.0,
        "t_end": 0.0,  # 0 = half the box
        "tolerance": 0.15,
        "sample_stride": 4,
    },
    "lyapunov": {
        "dim": 1,
        "npts": 512,
        "length": 8.0 * 3.141592653589793,
        "sigma1": 0.5,
        "amplitude": 1e-3,
        "t_end": 0.02,
        "dt": 5e-5,
        "j_lo": 0,
        "j_hi": 3,
        "eta": 0.1,
        "budget": 16.0,
    },
    "damped-mode": {
        "dim": 2,
        "sigma1": 1.0,
        "sigma": 0.0,
        "source": "linear",  # "linear" (quadrature) or "box" (trajectory)
        "amplitude": 1.0,
        "t_start": 1e2,
        "t_end": 1e4,
        "tolerance": 0.10,
        "npts": 128,
        "length": 16.0 * 3.141592653589793,
        "sample_stride": 4,
        "snapshot_stride": 8,
    },
}

#: the lazily loaded modules each kind's numerics call: ``numpy.fft`` for the
#: grid transforms, ``numpy.random`` for the random fields, ``scipy.linalg``
#: (which loads both) for the solver's phi-tables.  A kind with a ``source``
#: option takes the entry ``"<kind> source=<source>"`` where there is one.
#: parse_config imports them, so a run pays their import in set-up, a missing
#: one fails at parse time, and a kind never loads scipy unless it builds
#: phi-tables.
KIND_MODULES: dict[str, tuple[str, ...]] = {
    "lp-inspect": ("numpy.fft", "numpy.random"),
    "validate": ("numpy.fft", "numpy.random"),
    "linear-decay": (),
    "simulate": ("scipy.linalg",),
    "decay-fit": ("scipy.linalg",),
    "lyapunov": ("scipy.linalg",),
    "damped-mode": (),
    "damped-mode source=box": ("scipy.linalg",),
}

#: the values an option accepts, by the type of its default; a float option
#: keeps an int as given, so the config digest does not change
_OPTION_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
                 float: ((int, float), "a number"), str: ((str,), "a string")}


@dataclass
class RunConfig:
    """One experiment: kind, options, master seed, output directory.

    ``canonical_text`` (and hence the config hash) covers everything
    that influences report contents — the output directory does not.
    """

    kind: str
    seed: int = 0
    out_dir: Path = Path("runs")
    options: dict = field(default_factory=dict)

    def canonical_text(self) -> str:
        lines = [f"kind = {self.kind}", f"seed = {self.seed}"]
        lines += [f"{k} = {self.options[k]!r}" for k in sorted(self.options)]
        return "\n".join(lines) + "\n"

    @property
    def digest(self) -> str:
        return config_hash(self.canonical_text())

    @property
    def modules(self) -> tuple[str, ...]:
        """The modules this run's numerics load (:data:`KIND_MODULES`)."""
        source = f"{self.kind} source={self.options.get('source')}"
        return KIND_MODULES.get(source, KIND_MODULES[self.kind])


def _parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def read_config_file(path: Path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment; blanks ignored."""
    data: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        data[key.strip()] = _parse_scalar(value)
    return data


def parse_config(
    kind: str | None = None,
    path: str | Path | None = None,
    overrides: dict | None = None,
    seed: int | None = None,
    out_dir: str | Path | None = None,
) -> RunConfig:
    """Merge defaults <- config file <- explicit overrides, check each value's
    type against its default (the seed's: a non-negative int) and that a number
    is finite, validate, then import the run's modules (:data:`KIND_MODULES`)."""
    data: dict = {}
    if path is not None:
        data.update(read_config_file(path))
    if overrides:
        data.update(overrides)

    file_kind = data.pop("kind", None)
    kind = kind or file_kind
    if kind is None:
        raise ValueError("no experiment kind given (flag or 'kind =' line)")
    kind = _KIND_ALIASES.get(str(kind), str(kind))
    if kind not in KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}; choose from {', '.join(KINDS)}")

    if seed is None:
        seed = data.pop("seed", 0)
    else:
        data.pop("seed", None)
    seed = _parse_scalar(seed) if isinstance(seed, str) else seed
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed takes a non-negative integer, got {seed!r}")
    if out_dir is None:
        out_dir = data.pop("out_dir", "runs")
    else:
        data.pop("out_dir", None)

    options = dict(KIND_DEFAULTS[kind])
    unknown = sorted(set(data) - set(options))
    if unknown:
        raise ValueError(
            f"unknown option(s) for {kind}: {', '.join(unknown)}; "
            f"valid keys: {', '.join(sorted(options))}"
        )
    for key, value in data.items():
        # overrides may arrive as raw strings (--set flags, config files)
        value = _parse_scalar(value) if isinstance(value, str) else value
        accepted, wording = _OPTION_TYPES[type(options[key])]
        # bool is an int subclass, so only a bool option takes one
        if isinstance(value, bool) != isinstance(options[key], bool) or not isinstance(
                value, accepted):
            raise ValueError(f"option {key} of {kind} takes {wording}, got {value!r}")
        # not NaN, +-inf or an int beyond the float range, which a run could not convert
        if isinstance(options[key], float) and not abs(value) <= sys.float_info.max:
            raise ValueError(f"option {key} of {kind} takes a finite number, got {value!r}")
        options[key] = value

    cfg = RunConfig(kind=kind, seed=seed, out_dir=Path(out_dir), options=options)
    validate_config(cfg)
    for module in cfg.modules:
        importlib.import_module(module)
    return cfg


# ----------------------------------------------------------------------
# theorem-range validation
# ----------------------------------------------------------------------
def _positive(cfg: RunConfig, *keys: str) -> None:
    for key in keys:
        if key in cfg.options and not cfg.options[key] > 0:
            raise ValueError(f"{key} must be positive, got {cfg.options[key]}")


def validate_config(cfg: RunConfig) -> None:
    opts = cfg.options
    dim = int(opts.get("dim", 1))
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if "npts" in opts:
        n = int(opts["npts"])
        if n < 8 or n & (n - 1):
            raise ValueError(f"npts must be a power of two >= 8, got {n}")
    _positive(cfg, "length", "trials", "budget", "radii", "nodes_per_octave")
    if "sample_stride" in opts and not opts["sample_stride"] >= 1:
        raise ValueError(f"sample_stride must be >= 1, got {opts['sample_stride']}")
    # simulate reads snapshot_stride 0 as "the final state only"; a damped-mode
    # box run reads its snapshots
    least = 0 if cfg.kind == "simulate" else 1
    if "snapshot_stride" in opts and not opts["snapshot_stride"] >= least:
        raise ValueError(f"snapshot_stride must be >= {least}, got {opts['snapshot_stride']}")
    if "eta" in opts and not (0.0 < opts["eta"] < 1.0):
        raise ValueError(f"eta must lie in (0, 1), got {opts['eta']}")
    if "t_start" in opts and "t_end" in opts and opts["t_end"] > 0:
        if not (0 <= opts["t_start"] < opts["t_end"]):
            raise ValueError(
                f"need 0 <= t_start < t_end, got ({opts['t_start']}, {opts['t_end']})"
            )

    # every kind with sigma1 also draws data of the given amplitude
    if "sigma1" in opts:
        InitialDataSpec(sigma1=float(opts["sigma1"]), dim=dim,
                        amplitude=float(opts["amplitude"]))
    # damped-mode checks only the state range: runs outside the
    # velocity-enhancement range are allowed but labeled out-of-theorem in
    # the report (failures only under --strict)
    if cfg.kind in ("linear-decay", "decay-fit", "damped-mode"):
        RateTarget(float(opts["sigma"])).validate(dim, float(opts["sigma1"]))
    if cfg.kind == "linear-decay" and opts.get("with_u"):
        RateTarget(float(opts["sigma_u"]), "u").validate(dim, float(opts["sigma1"]))
    if cfg.kind == "damped-mode" and opts["source"] not in ("linear", "box"):
        raise ValueError("source must be 'linear' or 'box'")
    # a box run's fit window ends at the sound-crossing horizon L/2, or at an
    # earlier decay-fit t_end (0 means L/2), as run_decay_experiment requires
    if cfg.kind == "decay-fit" or (cfg.kind == "damped-mode" and opts["source"] == "box"):
        horizon = opts["length"] / 2.0
        end = (cfg.kind == "decay-fit" and opts["t_end"]) or horizon
        if not opts["t_start"] < end <= horizon + 1e-9:
            raise ValueError(f"the fit window needs t_start < t_end <= L/2 = {horizon} "
                             f"(the box horizon), got ({opts['t_start']}, {end})")
    if cfg.kind == "lyapunov" and opts["j_lo"] > opts["j_hi"]:
        raise ValueError("j_lo must not exceed j_hi")
