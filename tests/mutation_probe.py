"""Mutation probe of the privacy formulas: can tier-1 fail on each change?

Run from anywhere, with the tier-1 requirements installed:

    python tests/mutation_probe.py          # all targets; many minutes
    python tests/mutation_probe.py --list   # the mutants, without running them
    python tests/mutation_probe.py --only budget.exact_delta errors.positive_fault

``--only`` takes one or more target functions; tier-1 runs once unmutated
as the baseline, however many are named. pytest does not collect this file
(its name has no ``test_`` prefix), and CI runs it in one step with
``--only`` and twelve functions: ``budget.exact_delta``,
``mechanisms.release_spectrum``, ``mechanisms.plan_gaussian``,
``design.NoiseDesign.color``, ``mechanisms.LaplacePlan.color``,
``design.descending_eigh``, ``mechanisms.ReleasePlan.direction_bases``,
``errors.positive_fault``, ``harness._trial_streams``,
``harness.plan_releases``, ``sensitivity.clamp`` and
``sensitivity.AuditedGram.__init__``. It copies
``src/``, ``tests/``, ``perfbench/``, ``README.md`` and ``pyproject.toml``
into a temporary directory and never writes to the checkout.

For each function in ``TARGETS`` the stdlib ``ast`` module makes one change
at a time: an operator swap (+ and -, * and /, ** to *), a comparison swap
(< and <=, > and >=) or a nonzero numeric constant doubled. Each mutant
replaces its function in the copy, and tier-1 runs on the copy with ``-x``.
A mutant that tier-1 passes survives. ``EQUIVALENT`` lists the survivors
expected because the change is invisible to any test, each with its
reason. The probe exits 1 if any other mutant survives. A tier-1 run
stopped at ``MUTANT_TIMEOUT_S`` is reported as ``TIMEOUT`` and counted
apart from the kills, since a hang need not be the mutant's doing; the
summary names the functions to re-run with ``--only``.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")
# tier-1's files run in this order, then the rest alphabetically, so a
# mutant of the formulas usually fails in its own module's tests first
FIRST = ("test_budget.py", "test_sensitivity.py", "test_mechanisms.py",
         "test_design_sampling.py")
# checks this file's tables against the source it reads, so in the copy it
# would fail on every mutant that rewords a listed equivalent's expression
NOT_RUN = ("test_mutation_probe.py",)
# a tier-1 run is stopped after this many seconds and reported as timed out
MUTANT_TIMEOUT_S = 300

# module -> the functions whose privacy arithmetic, budget split, noise
# coloring, positivity test, trial seeding, utility metrics or record
# clamping is mutated, methods as "Class.method"
TARGETS = {
    "budget": ["QuerySpec.__post_init__", "harmonic_numbers", "zeta", "phi_bound",
               "check_condition", "exact_delta", "budget_terms", "_report"],
    "sensitivity": ["identity_sensitivity", "covariance_sensitivity", "gamma_identity",
                    "gamma_covariance", "identity_sensitivity_l1",
                    "covariance_sensitivity_l1", "clamp", "AuditedGram.__init__",
                    "AuditedGram.of"],
    "mechanisms": ["PrecisionAllocation.__post_init__", "PrecisionAllocation.binary",
                   "_check_binary", "_validate_query_value", "_directional_lambdas",
                   "release_spectrum", "gaussian_noise_scale", "plan_gaussian",
                   "plan_laplace", "plan_directions_dp", "ReleasePlan.direction_bases",
                   "LaplacePlan.color", "ReleasePlan.color"],
    "design": ["NoiseDesign.__post_init__", "NoiseDesign.color", "check_orthonormal",
               "_is_identity", "descending_eigh"],
    "errors": ["positive_fault"],
    "harness": ["_trial_streams", "plan_releases", "_run_regression", "_top_directions",
                "_run_arms", "_ablation_arms", "_run_covest", "format_significant"],
    "metrics": ["mean_ci95", "_captured", "DeltaRho.__init__", "DeltaRho.__call__",
                "rss", "ridge_regression_rmse"],
    "sampling": ["seed_state_words", "_hash", "_mix", "_hash_consts"],
}

_AT_EQUALITY = "differs only when both sides are exactly equal, after the slack"
_POWER_OF_2 = ("scaling by a power of 2 is exact, so eigh gives the same eigenvectors "
               "in the same order, and only they are read")
# (function, change) -> why no test can tell the mutant from the original
EQUIVALENT = {
    ("budget.QuerySpec.__post_init__",
     "`self.sensitivity > 2.0 * self.gamma * (1.0 + _TRIANGLE_RTOL)`: > -> >="):
        _AT_EQUALITY,
    ("budget.check_condition", "`lhs <= rhs * (1.0 + CONDITION_RTOL)`: <= -> <"):
        _AT_EQUALITY,
    ("budget.exact_delta", "`x * x < 700.0`: < -> <="):
        "differs only at x^2 = 700 exactly, where both branches give e^eps erfc(x) "
        "to rounding",
    ("budget.exact_delta", "`range(20, 0, -1)`: 20 -> 40"):
        "the continued fraction has converged by 20 terms at x^2 >= 700, so more "
        "terms give the same float",
    ("mechanisms._validate_query_value",
     "`fro <= q.gamma * (1.0 + GAMMA_RTOL)`: <= -> <"): _AT_EQUALITY,
    ("design.check_orthonormal", "`w.shape[-1]`: 1 -> 2 (#2)"):
        "reads the other side of a matrix the square check has passed",
    ("design.check_orthonormal", "`dev <= ORTHONORMALITY_TOL`: <= -> <"):
        "differs only at a deviation of exactly the tolerance",
    ("design._is_identity", "`m - 1`: - -> +"):
        "the bytes compare then fails for every matrix, and the value test gives "
        "the same verdict",
    ("design._is_identity", "`m - 1`: 1 -> 2"):
        "the bytes compare then fails for every matrix, and the value test gives "
        "the same verdict",
    ("mechanisms.gaussian_noise_scale", "`stacklevel=2`: 2 -> 4"):
        "moves only the source line a warning names",
    ("harness._top_directions", "`sym /= 2.0`: / -> *"): _POWER_OF_2,
    ("harness._top_directions", "`sym /= 2.0`: 2.0 -> 4.0"): _POWER_OF_2,
    ("metrics.DeltaRho.__call__", "`gaps >= _NEGATIVE_DUST`: >= -> >"):
        "differs only at a gap of exactly the dust threshold, -1e-10",
    ("metrics.DeltaRho.__call__", "`gaps < 0.0`: < -> <="):
        "also sets a gap of exactly 0.0 to 0.0",
    ("sampling.seed_state_words",
     "`np.asarray(seeds, dtype=np.uint64).reshape(-1)`: 1 -> 2"):
        "numpy reads a negative size in reshape as the inferred one, so -2 "
        "flattens as -1 does",
    ("sensitivity.AuditedGram.of",
     "`max(1, GRAM_BLOCK_CELLS // records.shape[1])`: 1 -> 2"):
        "differs only above GRAM_BLOCK_CELLS = 65 536 features, where the Gram "
        "matrix alone is 34 GB",
    ("harness._trial_streams", "`CHUNK_ENTRIES // 4`: 4 -> 8"):
        "hashes the same seeds in smaller blocks, so every trial's stream is the "
        "same",
}

# how each tier-1 outcome of a mutant is printed
STATUS = {"passed": "SURVIVED", "failed": "killed", "timed out": "TIMEOUT"}

BINOPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.Pow: ast.Mult}
COMPARES = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**",
           ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


def find_function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    scope = tree
    for part in qualname.split("."):
        scope = next(node for node in scope.body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     and node.name == part)
    return scope


def walk(node: ast.AST, context: ast.AST):
    """Each node under ``node`` with the expression that names it in a
    label: the node itself, or for a constant the node around it (around
    its sign, if it has one). F-strings are skipped: their arithmetic is
    message text."""
    yield node, context
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.JoinedStr):
            keep = isinstance(node, ast.UnaryOp) and isinstance(child, ast.Constant)
            yield from walk(child, context if keep else node)


def sites(func: ast.FunctionDef):
    """Each change to the function's body: the node it changes, the
    expression that names it, the change's description, and a function
    that applies it to the node."""
    for stmt in func.body:
        for node, context in walk(stmt, stmt):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in BINOPS:
                new = BINOPS[type(node.op)]

                def swap(n, new=new):
                    n.op = new()
                yield node, node, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}", swap
            elif isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in COMPARES:
                        new = COMPARES[type(op)]

                        def swap(n, i=i, new=new):
                            n.ops[i] = new()
                        yield node, node, f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}", swap
            elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                  and node.value != 0):
                def double(n):
                    n.value = n.value * 2
                yield node, context, f"{node.value!r} -> {node.value * 2!r}", double


def source_of(module: str) -> str:
    """The source of an ``mvgdp`` module in this checkout."""
    return (ROOT / "src" / "mvgdp" / f"{module}.py").read_text(encoding="utf-8")


def mutants(module: str, source: str):
    """(function, change, mutated module source) for every site of every
    target function of ``module``. A change names the smallest expression
    holding it, and an ordinal if that text repeats in the function."""
    lines = source.splitlines(keepends=True)
    for qualname in TARGETS[module]:
        seen = {}
        count = sum(1 for _ in sites(find_function(ast.parse(source), qualname)))
        for k in range(count):
            # a fresh tree per mutant, so each carries one change only
            func = find_function(ast.parse(source), qualname)
            node, context, change, apply = list(sites(func))[k]
            label = f"`{ast.unparse(context)}`: {change}"
            apply(node)
            seen[label] = seen.get(label, 0) + 1
            if seen[label] > 1:
                label += f" (#{seen[label]})"
            start = min([d.lineno for d in func.decorator_list] + [func.lineno])
            body = textwrap.indent(ast.unparse(func), " " * func.col_offset) + "\n"
            mutated = "".join(lines[:start - 1]) + body + "".join(lines[func.end_lineno:])
            yield f"{module}.{qualname}", label, mutated


def tier1(copy: Path) -> tuple[str, float]:
    """Whether tier-1 "passed", "failed" or "timed out" on the copy, and how
    long it took."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    rest = sorted(path.name for path in (copy / "tests").glob("test_*.py")
                  if path.name not in NOT_RUN)
    files = [f"tests/{name}" for name in [*FIRST, *(n for n in rest if n not in FIRST)]]
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *TIER1, *files], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=MUTANT_TIMEOUT_S, check=False)
        outcome = "passed" if done.returncode == 0 else "failed"
    except subprocess.TimeoutExpired:
        outcome = "timed out"
    return outcome, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and exit without running them")
    parser.add_argument("--only", metavar="MODULE.FUNC", nargs="+",
                        help="mutate only these target functions, such as "
                             "budget.exact_delta")
    args = parser.parse_args(argv)
    functions = {f"{module}.{name}" for module, names in TARGETS.items() for name in names}
    if unknown := sorted(set(args.only or ()) - functions):
        parser.error(f"--only {' '.join(unknown)}: not a target; choose from "
                     f"{', '.join(sorted(functions))}")
    probed = functions if args.only is None else set(args.only)
    sources = {module: source_of(module) for module in TARGETS
               if any(function.startswith(f"{module}.") for function in probed)}
    plan = [(module, *m) for module in sources for m in mutants(module, sources[module])
            if m[0] in probed]
    if args.list:
        for _, function, label, _ in plan:
            print(f"{function}: {label}")
        print(f"{len(plan)} mutants")
        return 0

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mvgdp-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        outcome, seconds = tier1(copy)
        if outcome != "passed":
            print(f"tier-1 {outcome} on the unmutated copy; nothing to probe")
            return 2
        print(f"baseline: tier-1 passes in {seconds:.1f} s")
        outcomes = {outcome: [] for outcome in STATUS}
        for module, function, label, mutated in plan:
            path = copy / "src" / "mvgdp" / f"{module}.py"
            path.write_text(mutated, encoding="utf-8")
            outcome, seconds = tier1(copy)
            path.write_text(sources[module], encoding="utf-8")
            print(f"{STATUS[outcome]:8} {seconds:5.1f} s  {function}: {label}", flush=True)
            outcomes[outcome].append((function, label))

    survivors, killed, timeouts = outcomes.values()
    unexpected = [s for s in survivors if s not in EQUIVALENT]
    stale = [s for s in EQUIVALENT if s in killed]
    print(f"\n{len(plan)} mutants, {len(killed)} killed, {len(timeouts)} timed out, "
          f"{len(survivors)} survived ({len(survivors) - len(unexpected)} expected), "
          f"{time.perf_counter() - start:.0f} s")
    for function, label in timeouts:
        print(f"timed out: {function}: {label}")
    if timeouts:
        print(f"re-run: python tests/mutation_probe.py --only "
              f"{' '.join(sorted({function for function, _ in timeouts}))}")
    for function, label in unexpected:
        print(f"unexpected survivor: {function}: {label}")
    for function, label in stale:
        print(f"listed as equivalent but killed (drop it from EQUIVALENT): "
              f"{function}: {label}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
