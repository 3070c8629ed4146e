"""Every count and real-number argument passes one check each, and data
meets its box in one place.

``errors.as_count`` and ``errors.as_real`` are the only checks of a scalar
argument: the per-site tests below give each real scalar an int too large
for a float, a bool and a string, and a guard fails if a module tests a
scalar by hand with ``is_count`` or ``is_real``. ``sensitivity.clamp`` is
the only code that compares data with a box: the last guard fails if
another module compares anything with ``lo`` or ``hi``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from mvgdp import (
    AllocationError,
    BudgetMode,
    BudgetReport,
    ConfigError,
    DataBounds,
    DomainError,
    Experiment,
    ExperimentConfig,
    MechanismKind,
    PrecisionAllocation,
    PrivacyParams,
    QuerySpec,
    ShapeError,
    exact_delta,
    gaussian_noise_scale,
    phi_bound,
    ridge_regression_rmse,
)
from mvgdp.errors import as_count, as_real
from mvgdp.harness import check_run_options
from mvgdp.mechanisms import plan_laplace
from mvgdp.sensitivity import check_range
from oracles import UNIT_DESIGN

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvgdp"

HUGE = 10 ** 400  # an int too large for a float


class TestAsCount:
    def test_returns_a_python_int(self):
        for value in (3, np.int64(3), np.uint8(3)):
            count = as_count(value, "m", DomainError)
            assert type(count) is int and count == 3
        assert as_count(HUGE, "m", DomainError) == HUGE

    @pytest.mark.parametrize("value", [True, np.True_, "1", 1.0, None, 0, -2])
    def test_rejects_what_is_not_a_positive_count(self, value):
        with pytest.raises(ShapeError, match=r"^m must be a positive integer, got "):
            as_count(value, "m", ShapeError)

    def test_a_minimum_is_named(self):
        assert as_count(2, "m", DomainError, minimum=2) == 2
        with pytest.raises(DomainError, match=r"^m must be an integer >= 2, got 1$"):
            as_count(1, "m", DomainError, minimum=2)


class TestAsReal:
    def test_returns_a_python_float(self):
        for value in (2, np.int64(2), np.float32(2.0), 2.0, np.float64(2.0)):
            real = as_real(value, "x", DomainError)
            assert type(real) is float and real == 2.0
        assert as_real(-1.5, "x", DomainError) == -1.5

    @pytest.mark.parametrize("value", [True, np.True_, "1", None, 1j])
    def test_rejects_what_is_not_a_real(self, value):
        with pytest.raises(ConfigError, match=r"^x must be a real number, got "):
            as_real(value, "x", ConfigError)

    @pytest.mark.parametrize("value, shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf"),
        (HUGE, "inf"), (-HUGE, "-inf"),
    ])
    def test_rejects_what_is_not_finite(self, value, shown):
        with pytest.raises(DomainError, match=rf"^x must be finite, got {shown}$"):
            as_real(value, "x", DomainError)

    @pytest.mark.parametrize("value", [0, -1.0, float("nan"), float("inf"), HUGE])
    def test_positive_rejects_what_is_not_positive_and_finite(self, value):
        with pytest.raises(DomainError, match=r"^x must be positive and finite, got "):
            as_real(value, "x", DomainError, positive=True)


def budget_report(**changed):
    fields = dict(h_r=1.0, h_r_half=1.0, zeta=1.0, alpha=1.0, beta=1.0, phi_max=1.0,
                  precision_budget=1.0, mode=BudgetMode.UNIMODAL)
    return BudgetReport(**{**fields, **changed})


def config(**changed):
    fields = dict(experiment=Experiment.FIRST_PC, dataset_path="missing.csv",
                  bounds=DataBounds(3, 400, -1.0, 1.0), privacy=PrivacyParams(1.0, 0.01),
                  mechanism=MechanismKind.MVG_EQUIMODAL)
    return ExperimentConfig(**{**fields, **changed})


def train_test(reg):
    x = np.eye(2)
    return ridge_regression_rmse((x, np.ones(2)), (x, np.ones(2)), reg)


# (site, call with one real scalar replaced by the argument, error class)
REAL_SITES = [
    ("PrivacyParams.epsilon", lambda v: PrivacyParams(v, 0.1), DomainError),
    ("PrivacyParams.delta", lambda v: PrivacyParams(1.0, v), DomainError),
    ("QuerySpec.sensitivity", lambda v: QuerySpec(2, 2, sensitivity=v, gamma=1.0),
     DomainError),
    ("QuerySpec.gamma", lambda v: QuerySpec(2, 2, sensitivity=1.0, gamma=v), DomainError),
    ("QuerySpec.l1_sensitivity",
     lambda v: QuerySpec(2, 2, sensitivity=1.0, gamma=1.0, l1_sensitivity=v), DomainError),
    ("BudgetReport", lambda v: budget_report(alpha=v), DomainError),
    ("phi_bound.alpha", lambda v: phi_bound(v, 1.0, 1.0), DomainError),
    ("phi_bound.beta", lambda v: phi_bound(1.0, v, 1.0), DomainError),
    ("phi_bound.epsilon", lambda v: phi_bound(1.0, 1.0, v), DomainError),
    ("DataBounds.lo", lambda v: DataBounds(2, 2, v, 1.0), DomainError),
    ("DataBounds.hi", lambda v: DataBounds(2, 2, 0.0, v), DomainError),
    ("check_range", lambda v: check_range(0.0, v), DomainError),
    ("check_run_options.ridge_reg",
     lambda v: check_run_options(Experiment.FIRST_PC, MechanismKind.MVG_EQUIMODAL,
                                 "uniform", "standard", 1, 0, v), ConfigError),
    ("ExperimentConfig.ridge_reg", lambda v: config(ridge_reg=v), ConfigError),
    ("gaussian_noise_scale", lambda v: gaussian_noise_scale(v, PrivacyParams(1.0, 0.1)),
     DomainError),
    ("plan_laplace",
     lambda v: plan_laplace(np.zeros((2, 2)),
                            QuerySpec(2, 2, sensitivity=1.0, gamma=1.0,
                                      l1_sensitivity=1.0), v), DomainError),
    ("ridge_regression_rmse", train_test, DomainError),
    ("PrecisionAllocation.binary.tau", lambda v: PrecisionAllocation.binary(4, v, [0]),
     AllocationError),
    ("exact_delta.sensitivity", lambda v: exact_delta(UNIT_DESIGN, v, 1.0), DomainError),
    ("exact_delta.epsilon", lambda v: exact_delta(UNIT_DESIGN, 1.0, v), DomainError),
]


@pytest.mark.parametrize("call, error", [site[1:] for site in REAL_SITES],
                         ids=[site[0] for site in REAL_SITES])
def test_an_int_too_large_for_a_float_is_rejected_by_its_site(call, error):
    with pytest.raises(error, match="finite"):
        call(HUGE)
    with pytest.raises(error, match="finite"):
        call(-HUGE)


# the sites that once took True as 1 and raised a bare TypeError for a
# string, and exact_delta's, which never did
BARE_SITES = ["gaussian_noise_scale", "plan_laplace", "phi_bound.alpha",
              "phi_bound.beta", "phi_bound.epsilon", "ridge_regression_rmse",
              "PrecisionAllocation.binary.tau", "exact_delta.sensitivity",
              "exact_delta.epsilon"]


@pytest.mark.parametrize("call, error", [site[1:] for site in REAL_SITES
                                         if site[0] in BARE_SITES], ids=BARE_SITES)
@pytest.mark.parametrize("value", [True, "1"])
def test_a_bool_or_a_string_is_not_a_real(call, error, value):
    with pytest.raises(error, match="must be a real number"):
        call(value)


def scalar_test_calls(source: str) -> list[tuple[str, str, str]]:
    """(qualified name of the enclosing function, test called, its first
    argument's source) for each call of ``is_count`` or ``is_real`` in a
    module's source."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("is_count", "is_real"):
                    argument = ast.unparse(child.args[0]) if child.args else ""
                    calls.append((".".join(scope), name, argument))
            visit(child, scope)

    visit(ast.parse(source), [])
    return calls


# the two seed-range checks, whose message names the range a seed must lie in
SEED_CHECKS = {("sampling", "RandomStream.__init__", "is_count", "seed"),
               ("harness", "check_run_options", "is_count", "seed")}


def checks_by_hand(sources: dict[str, str]) -> set[tuple[str, str, str, str]]:
    """The calls of ``is_count`` or ``is_real`` in modules' sources, keyed by
    module stem, other than the seed-range checks."""
    return {(stem, *call) for stem, source in sources.items()
            for call in scalar_test_calls(source)} - SEED_CHECKS


def test_no_module_checks_a_scalar_by_hand():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py") if path.name != "errors.py"}
    assert len(sources) > 1
    assert checks_by_hand(sources) == set(), "use errors.as_count or errors.as_real"
    # the walk finds the seed checks, so an empty result is not a blind one
    found = {(stem, *call) for stem in ("sampling", "harness")
             for call in scalar_test_calls(sources[stem])}
    assert found == SEED_CHECKS


def test_a_check_by_hand_is_found():
    planted = (
        "class RandomStream:\n"
        "    def __init__(self, seed):\n"
        "        if not is_count(seed):\n"
        "            raise DomainError('seed')\n"
        "def scale(x, m):\n"
        "    def inner():\n"
        "        return errors.is_real(x)\n"
        "    if not is_count(m) or m < 1:\n"
        "        raise DomainError('m')\n"
    )
    assert checks_by_hand({"sampling": planted}) == {
        ("sampling", "scale.inner", "is_real", "x"),
        ("sampling", "scale", "is_count", "m"),
    }
    # the seed check is allowed only where it is one
    assert checks_by_hand({"budget": planted}) == {
        ("budget", "RandomStream.__init__", "is_count", "seed"),
        ("budget", "scale.inner", "is_real", "x"),
        ("budget", "scale", "is_count", "m"),
    }


def box_comparisons(source: str) -> set[str]:
    """The source of each comparison in a module's source that has ``lo``
    or ``hi``, as a name or an attribute, as an operand."""
    def is_box_end(operand):
        return (isinstance(operand, ast.Name) and operand.id in ("lo", "hi")
                or isinstance(operand, ast.Attribute) and operand.attr in ("lo", "hi"))

    return {ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(is_box_end(operand) for operand in (node.left, *node.comparators))}


def test_only_sensitivity_compares_with_the_box():
    found = {path.stem: box_comparisons(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    assert len(found) > 1
    elsewhere = {stem: compares for stem, compares in found.items()
                 if compares and stem != "sensitivity"}
    assert elsewhere == {}, "clamp records into their box with sensitivity.clamp"
    # the walk finds clamp's own test, so an empty result is not a blind one
    assert {"x.min() >= lo", "x.max() <= hi"} <= found["sensitivity"]


def test_a_comparison_with_the_box_is_found():
    planted = (
        "def escaping_row(self, lo, hi):\n"
        "    inside = ((self.block >= lo) & (self.block <= hi)).all(axis=1)\n"
        "    if x.max() > bounds.hi or lo_count < 2:\n"
        "        return int(np.argmin(inside))\n"
    )
    assert box_comparisons(planted) == {"self.block >= lo", "self.block <= hi",
                                        "x.max() > bounds.hi"}
