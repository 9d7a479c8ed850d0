"""Apply one-line mutants of ``src/`` and check that the tests named for each kill it.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones
    python3 tools/mutants.py --list

Each mutant replaces one line of one module with a wrong formula.  It is
applied to a temporary copy of ``src/``, and its tests run against that copy
(``python -m pytest`` with ``PYTHONPATH`` pointing there, from the repository
root).  A mutant is killed when a test fails, and survives when all pass.
The named tests are first run once on the unmutated copy, which must pass.
The script prints one line per mutant and exits 1 if any mutant survives,
2 if the unmutated tests fail or a mutant's line is not found.  It is not
part of the tier-1 suite; a change that adds a formula adds its mutant here.

The package is imported from the ``src`` directory next to this script.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/eulerfourier
    line: str  # the line as it stands, stripped
    mutated: str  # its replacement, stripped; the indentation is kept
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


LYA = "tests/test_lyapunov.py"
SOL = "tests/test_solver.py"
ACC = "tests/test_acceptance.py"
SHARP = f"{LYA}::test_the_functionals_meet_the_generalized_eigenvalues_sharply"

MUTANTS = (
    Mutant("dissipation-half-grad-theta-grad-a", "lyapunov.py",
           "+ beta * cross_tha", "+ 0.5 * beta * cross_tha",
           (f"{LYA}::test_low_energy_falls_at_the_dissipation_rate_along_the_linear_flow",
            SHARP)),
    Mutant("high-bound-drops-ratio-s-grad-theta", "lyapunov.py",
           "total += ratio_s_sup * square(th_grad_j)", "pass",
           (LYA, f"{ACC}::test_criterion_5_functional_equivalence")),
    Mutant("low-target-form-4j-a-plus-theta-plus-u", "lyapunov.py",
           "return 4.0**j * (a_j + th_j) + u_j", "return 4.0**j * a_j + th_j + u_j",
           (SHARP,)),
    Mutant("low-bound-drops-bad-factor", "lyapunov.py",
           "term2 = (1.0 + eta) * _hypot(adv, bad) * _hypot(u_j, na_j)",
           "term2 = (1.0 + eta) * adv * _hypot(u_j, na_j)",
           (LYA, f"{ACC}::test_criterion_5_functional_equivalence")),
    Mutant("remainder-quotient-term-sign", "solver.py",
           "adv -= q * grid.inverse(grid.derivative_hat(hats[0], m))",
           "adv += q * grid.inverse(grid.derivative_hat(hats[0], m))",
           (f"{SOL}::test_nonlinear_rhs_closed_form_with_density",)),
    Mutant("remainder-drops-one-over-one-plus-a", "solver.py",
           "np.negative(np.divide(a, one_a, out=a), out=a)", "np.negative(a, out=a)",
           (f"{SOL}::test_nonlinear_rhs_closed_form_with_density",)),
    Mutant("coercivity-form-half-a-u-entry", "lyapunov.py",
           "f[:, 0, 1] = f[:, 1, 0] = -beta * r / 2.0",
           "f[:, 0, 1] = f[:, 1, 0] = -beta * r / 4.0",
           (SHARP, f"{LYA}::test_random_shell_states_satisfy_the_coercivity_margin")),
    Mutant("remainder-half-theta-u-flux", "solver.py",
           "out[-1] -= grid.derivative_hat(grid.forward(theta * u[m], band=True), m)",
           "out[-1] -= grid.derivative_hat(grid.forward(0.5 * theta * u[m], band=True), m)",
           (f"{SOL}::test_nonlinear_rhs_closed_form",)),
    Mutant("step-drops-phi2-stage", "solver.py",
           "self._apply_table(f2, dn, s2, mid)", "pass",
           (f"{ACC}::test_criterion_7_nonlinear_box",)),
    Mutant("time-weighted-prediction-shift", "decay.py",
           "predicted = m_exp - (dim / 2.0 + sigma1) / 2.0",
           "predicted = m_exp - (dim / 2.0 + sigma1) / 2.0 + 0.25",
           ("tests/test_decay.py::test_time_weighted_functional_growth_matches_prediction",)),
    Mutant("evolve-drops-the-conditioning-guard", "linear.py",
           "ok = np.linalg.cond(vec) <= _EIG_COND_MAX", "ok = np.linalg.cond(vec) <= np.inf",
           ("tests/test_linear.py::test_nodes_at_the_eigenvalue_collision_take_expm_stack",)),
    # the sharp-coercivity test's own mutants
    Mutant("high-target-form-drops-4j", "lyapunov.py",
           "return a_j + u_j + 4.0**j * th_j", "return a_j + u_j + th_j",
           (SHARP,)),
    Mutant("coercivity-form-half-a-theta-entry", "lyapunov.py",
           "f[:, 0, 2] = f[:, 2, 0] = -beta * r * r / 2.0",
           "f[:, 0, 2] = f[:, 2, 0] = -beta * r * r / 4.0",
           (SHARP, f"{LYA}::test_random_shell_states_satisfy_the_coercivity_margin")),
    Mutant("coercivity-form-undamped-u", "lyapunov.py",
           "f[:, 1, 1] = 1.0 - beta * r * r", "f[:, 1, 1] = 1.0",
           (SHARP, f"{LYA}::test_random_shell_states_satisfy_the_coercivity_margin")),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Rewrite the mutant's one line in the copy ``src``; raise if it is not there once."""
    path = src / "eulerfourier" / mutant.module
    lines = path.read_text().splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if text.strip() == mutant.line]
    if len(hits) != 1:
        raise LookupError(f"{mutant.name}: {len(hits)} lines of {mutant.module} read "
                          f"{mutant.line!r}")
    i = hits[0]
    indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
    lines[i] = indent + mutant.mutated + "\n"
    path.write_text("".join(lines))


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for ``tests`` with the package imported from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *dict.fromkeys(tests)]
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] if args.names else list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name}  {m.module}: {m.line}  ->  {m.mutated}")
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = [t for m in chosen for t in m.tests]
        if run_tests(src, tests) != 0:
            print("the named tests fail on the unmutated source", file=sys.stderr)
            return 2
        survivors = []
        for m in chosen:
            shutil.rmtree(src)
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            try:
                apply(m, src)
            except LookupError as exc:
                print(exc, file=sys.stderr)
                return 2
            start = time.perf_counter()
            code = run_tests(src, m.tests)
            if code not in (0, 1):
                print(f"{m.name}: pytest exited {code}", file=sys.stderr)
                return 2
            verdict = "killed" if code == 1 else "SURVIVED"
            print(f"{verdict:<9} {m.name:<40} {time.perf_counter() - start:5.1f} s", flush=True)
            if code == 0:
                survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed"
          + (f"; surviving: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
