"""A matrix's symmetry, a vector's unit norm, the sign of an array's
entries and an array's dtype, rank and size are each tested in one place.

``errors.symmetry_fault``, ``errors.unit_norm_fault`` and
``errors.positive_fault`` are the first three tests, and ``SYMMETRY_TOL``
and ``UNIT_TOL`` their one tolerance each. A NaN or infinite entry fails
them without a RuntimeWarning, which the suite's warning filter would turn
into an error. A guard fails if another module computes a symmetry
deviation by hand. ``errors.as_real_array`` is the dtype, rank and
emptiness test of every array that enters the package, and a guard fails
if another module casts an argument to float.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from mvgdp import (
    DataBounds,
    DomainError,
    Experiment,
    ExperimentConfig,
    MechanismKind,
    NoiseDesign,
    PrecisionAllocation,
    PrivacyParams,
    QuerySpec,
    RandomStream,
    ShapeError,
    captured_variance,
    delta_rho,
    derive_directions_dp,
    mean_ci95,
    mvg_equimodal,
    mvg_unimodal,
    ridge_regression_rmse,
    rss,
    run_experiment,
)
from mvgdp.errors import (
    SYMMETRY_TOL,
    UNIT_TOL,
    AllocationError,
    DegenerateDesignError,
    as_real_array,
    positive_fault,
    symmetry_fault,
    unit_norm_fault,
)
from mvgdp.harness import clamp_records
from mvgdp.mechanisms import plan_gaussian, plan_laplace
from mvgdp.metrics import DeltaRho
from mvgdp.sensitivity import AuditedGram

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mvgdp"


class TestSymmetryFault:
    @pytest.mark.parametrize("gap, fault", [
        (0.0, None), (5e-9, None), (SYMMETRY_TOL, None),
        (2e-8, "a deviates from symmetry by 2.000e-08, beyond 1e-08"),
    ])
    def test_the_deviation_is_compared_with_the_tolerance(self, gap, fault):
        mat = np.array([[1.0, gap], [0.0, 1.0]])
        assert symmetry_fault(mat, "a") == fault
        assert symmetry_fault(mat.T.copy(), "a") == fault

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_an_entry_that_is_not_finite_fails(self, bad, where):
        # on the diagonal the matrix equals its transpose bit for bit
        mat = np.eye(3)
        mat[where] = mat[where[::-1]] = bad
        assert symmetry_fault(mat, "a") == "a has an entry that is not finite"

    def test_an_overflowing_deviation_fails_without_a_warning(self):
        # 1e308 - (-1e308) overflows to inf
        mat = np.array([[0.0, 1e308], [-1e308, 0.0]])
        assert symmetry_fault(mat, "a") == \
            "a deviates from symmetry by inf, beyond 1e-08"

    def test_an_empty_matrix_is_symmetric(self):
        assert symmetry_fault(np.zeros((0, 0)), "a") is None


class TestUnitNormFault:
    def test_rows_within_the_tolerance_pass(self):
        rows = np.array([[0.6, 0.8], [0.0, 1.0 + UNIT_TOL / 2], [-1.0, 0.0]])
        assert unit_norm_fault(rows) is None

    @pytest.mark.parametrize("row, norm", [([0.0, 2.0], "2.0"), ([math.nan, 0.0], "nan"),
                                           ([0.0, -math.inf], "inf"),
                                           ([1e200, 0.0], "inf")])
    def test_the_first_bad_row_is_named(self, row, norm):
        rows = np.array([[1.0, 0.0], row, [0.0, 3.0]])
        assert unit_norm_fault(rows) == f"v must be a unit vector, got norm {norm}"


class TestPositiveFault:
    @pytest.mark.parametrize("values", [[1.0], [5e-324, 1e308], [1.0, 2.0, 3.0]])
    def test_positive_finite_entries_pass(self, values):
        assert positive_fault(np.array(values), "x") is None

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("where", [0, 1])
    def test_an_entry_that_is_not_positive_and_finite_fails(self, bad, where):
        values = np.ones(2)
        values[where] = bad
        assert positive_fault(values, "x") == \
            f"x must be positive and finite, got {values}"

    @pytest.mark.parametrize("bad", [0.0, math.inf])
    def test_singular_values_and_shares_fail_it_with_their_own_error(self, bad):
        # at 0 and at inf, the two edges of the test's two comparisons
        values = np.array([1.0, bad])
        with pytest.raises(DegenerateDesignError,
                           match=r"^lambda_sigma must be positive and finite, got "):
            NoiseDesign(None, values, None, np.ones(2))
        with pytest.raises(DegenerateDesignError,
                           match=r"^lambda_psi must be positive and finite, got "):
            NoiseDesign(None, np.ones(2), None, values)
        with pytest.raises(AllocationError,
                           match=r"^every allocation share must be positive and finite, got "):
            PrecisionAllocation(values)


def is_transpose(node) -> bool:
    """Whether an expression is ``x.T`` or a call of ``swapaxes`` or
    ``transpose``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "T"
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in ("swapaxes", "transpose")
    return False


def symmetry_deviations(source: str) -> set[str]:
    """The source of each subtraction, ``-`` or ``-=``, in a module's source
    that has a transpose as an operand."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            operands = (node.value,)
        else:
            continue
        if isinstance(node.op, ast.Sub) and any(map(is_transpose, operands)):
            found.add(ast.unparse(node))
    return found


def test_only_errors_computes_a_symmetry_deviation():
    found = {path.stem: symmetry_deviations(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    assert len(found) > 1
    elsewhere = {stem: deviations for stem, deviations in found.items()
                 if deviations and stem != "errors"}
    assert elsewhere == {}, "test symmetry with errors.symmetry_fault"
    # the walk finds the helper's own subtraction, so an empty result is
    # not a blind one
    assert found["errors"] == {"mat - mat.T"}


def test_a_symmetry_deviation_by_hand_is_found():
    planted = (
        "sym_dev = np.max(np.abs(mat - mat.T))\n"
        "asym = (value - np.swapaxes(value, -1, -2)).max()\n"
        "gap -= gap.transpose()\n"
        "sym = noisy + np.swapaxes(noisy, -1, -2)\n"
        "gram = np.swapaxes(w, -1, -2) @ w\n"
        "gram -= np.eye(3)\n"
        "shifted = mat.T - mat\n"
        "centred = x.T @ w - y\n"
    )
    assert symmetry_deviations(planted) == {
        "mat - mat.T", "value - np.swapaxes(value, -1, -2)", "gap -= gap.transpose()",
        "mat.T - mat"}


FLOAT_DTYPE = re.compile(r"float|double|^'f[248]?'$|^'d'$")
CASTS = ("asarray", "asanyarray", "ascontiguousarray", "array")


def is_float_dtype(node) -> bool:
    """Whether an expression names a float dtype: ``float``, ``np.float64``
    and the like, or a dtype string such as ``'f8'``."""
    return bool(FLOAT_DTYPE.search(ast.unparse(node)))


def float_casts(source: str) -> set[str]:
    """The source of each cast to float in a module's source: an array
    constructor given a float dtype, or ``.astype`` of one. Other calls that
    take a dtype, such as ``np.arange`` and ``np.loadtxt``, make new arrays
    and are not casts."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
        if name in CASTS:
            dtypes += node.args[1:2]
        elif name == "astype":
            dtypes += node.args[:1]
        else:
            continue
        if any(map(is_float_dtype, dtypes)):
            found.add(ast.unparse(node))
    return found


def test_only_errors_casts_an_argument_to_float():
    found = {path.stem: float_casts(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    assert len(found) > 1
    elsewhere = {stem: casts for stem, casts in found.items()
                 if casts and stem != "errors"}
    assert elsewhere == {}, "read an array argument with errors.as_real_array"
    # the walk finds the helper's own cast, so an empty result is not a
    # blind one
    assert found["errors"] == {"array.astype(float)"}


def test_a_float_cast_by_hand_is_found():
    planted = (
        "a = np.asarray(x, dtype=float)\n"
        "b = np.array(v, dtype=np.float64).reshape(-1)\n"
        "c = np.asarray(y, float)\n"
        "d = y.astype(np.float32)\n"
        "e = y.astype('f8')\n"
        "f = np.arange(1, 4, dtype=float)\n"
        "g = np.loadtxt(rows, dtype=float)\n"
        "h = np.asarray(seeds, dtype=np.uint64)\n"
        "i = np.asarray(x)\n"
    )
    assert float_casts(planted) == {
        "np.asarray(x, dtype=float)", "np.array(v, dtype=np.float64)",
        "np.asarray(y, float)", "y.astype(np.float32)", "y.astype('f8')"}


def test_each_tolerance_is_defined_once():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                defined |= {(path.stem, target.id) for target in node.targets
                            if isinstance(target, ast.Name)
                            and target.id.endswith(("SYMMETRY_TOL", "UNIT_TOL"))}
    assert defined == {("errors", "SYMMETRY_TOL"), ("errors", "UNIT_TOL")}


class TestAsRealArray:
    def test_a_float64_array_is_returned_as_it_is(self):
        x = np.eye(3)
        assert as_real_array(x, "x", DomainError) is x

    @pytest.mark.parametrize("value", [np.eye(2, dtype=np.int32), np.eye(2, dtype=np.uint8),
                                       np.eye(2, dtype=np.float32),
                                       np.eye(2, dtype=">f8"), [[1, 0], [0, 1]]])
    def test_integers_and_floats_are_read_as_float64(self, value):
        array = as_real_array(value, "x", DomainError)
        assert array.dtype == np.float64 and array.dtype.isnative
        assert array.tobytes() == np.eye(2).tobytes()

    @pytest.mark.parametrize("value, dtype", [
        (np.eye(2) * (1 + 1j), "complex128"), ([["1", "0"], ["0", "1"]], "<U1"),
        (np.eye(2, dtype=bool), "bool"), ([[1.0, None]], "object"),
    ], ids=["complex", "str", "bool", "object"])
    def test_other_dtypes_are_refused_by_name(self, value, dtype):
        with pytest.raises(DomainError,
                           match=f"^x must be real numbers, got an array of dtype {dtype}$"):
            as_real_array(value, "x", DomainError)

    def test_a_float64_array_of_the_rank_asked_for_is_returned_as_it_is(self):
        x = np.ones(3)
        assert as_real_array(x, "x", DomainError, ndim=1) is x

    @pytest.mark.parametrize("value, ndim, shape", [
        (np.ones(3), 2, "(3,)"), (np.eye(2), 1, "(2, 2)"), (1.0, 1, "()"),
        ([[1, 2]], 1, "(1, 2)"),
    ])
    def test_another_rank_is_refused_by_shape(self, value, ndim, shape):
        with pytest.raises(ShapeError,
                           match=f"^x must be {ndim}-D, got shape {re.escape(shape)}$"):
            as_real_array(value, "x", DomainError, ndim=ndim)

    def test_the_dtype_is_tested_before_the_rank(self):
        with pytest.raises(DomainError, match="dtype bool$"):
            as_real_array(np.eye(2, dtype=bool), "x", DomainError, ndim=1)

    @pytest.mark.parametrize("value, ndim, shape", [
        ([], None, "(0,)"), (np.zeros((0, 0)), 2, "(0, 0)"), (np.zeros((2, 0)), 2, "(2, 0)"),
        (np.zeros((0, 3), dtype=np.int64), None, "(0, 3)"),
    ])
    def test_an_array_without_entries_is_refused_by_shape(self, value, ndim, shape):
        with pytest.raises(ShapeError, match=rf"^x must hold at least one entry, "
                                             rf"got shape {re.escape(shape)}$"):
            as_real_array(value, "x", DomainError, ndim=ndim)

    def test_the_rank_is_tested_before_the_size(self):
        with pytest.raises(ShapeError, match=r"^x must be 1-D, got shape \(0, 0\)$"):
            as_real_array(np.zeros((0, 0)), "x", DomainError, ndim=1)

    @pytest.mark.parametrize("value", [[[1.0, 2.0], [3.0]], [1.0, [2.0, 3.0]]],
                             ids=["rows", "entries"])
    def test_a_ragged_sequence_is_refused_by_shape(self, value):
        # numpy's own refusal is a bare ValueError, which is no MvgdpError
        with pytest.raises(ShapeError,
                           match="^x must be a regular array, got a ragged sequence$"):
            as_real_array(value, "x", DomainError)
        with pytest.raises(ShapeError, match="^theta shares must be a regular array"):
            PrecisionAllocation(value)


def release_call(release, basis=False):
    """A 2 x 2 release of ``v``, the value, or with ``v`` as its basis."""
    q = QuerySpec(2, 2, sensitivity=1.0, gamma=10.0)
    p, theta = PrivacyParams(1.0, 0.05), PrecisionAllocation.uniform(2)
    if basis:
        return lambda v: release(np.eye(2), q, p, theta, v, RandomStream(0))
    return lambda v: release(v, q, p, theta, None, RandomStream(0))


def records_config(experiment):
    return ExperimentConfig(
        experiment=experiment, dataset_path="unused.csv",
        bounds=DataBounds(2, 2, -2.0, 2.0), privacy=PrivacyParams(1.0, 0.05),
        mechanism=MechanismKind.MVG_UNIMODAL, trials=1, seed=1)


# (site, call taking the array, the argument's name, its rank) for every
# place an array enters
ARRAY_SITES = [
    ("mvg_equimodal value", release_call(mvg_equimodal), "the query value's entries", 2),
    ("mvg_unimodal value", release_call(mvg_unimodal), "the query value's entries", 2),
    ("mvg_equimodal basis", release_call(mvg_equimodal, basis=True), "w_sigma", 2),
    ("plan_gaussian value",
     lambda v: plan_gaussian(v, QuerySpec(2, 2, sensitivity=1.0, gamma=10.0),
                             PrivacyParams(0.5, 0.05)), "the query value's entries", 2),
    ("plan_laplace value",
     lambda v: plan_laplace(v, QuerySpec(2, 2, sensitivity=1.0, gamma=10.0,
                                         l1_sensitivity=2.0), 0.5),
     "the query value's entries", 2),
    ("NoiseDesign basis", lambda v: NoiseDesign(v, np.ones(2), None, np.ones(2)),
     "w_sigma", 2),
    ("NoiseDesign psi basis", lambda v: NoiseDesign(None, np.ones(2), v, np.ones(2)),
     "w_psi", 2),
    ("NoiseDesign.with_bases",
     lambda v: NoiseDesign(None, np.ones(2), None, np.ones(2)).with_bases(v, None),
     "w_sigma", 2),
    ("derive_directions_dp",
     lambda v: derive_directions_dp(v, PrivacyParams(0.5, 0.05), 1, RandomStream(0),
                                    bounds=DataBounds(2, 2, -2.0, 2.0)), "the records", 2),
    ("AuditedGram.of", lambda v: AuditedGram.of(v, -2.0, 2.0), "the records", 2),
    ("clamp_records",
     lambda v: clamp_records(v, DataBounds(2, 2, -2.0, 2.0), ("standard", None)),
     "the records", 2),
    ("run_experiment firstpc",
     lambda v: run_experiment(records_config(Experiment.FIRST_PC), data=v), "the records", 2),
    ("run_experiment covest",
     lambda v: run_experiment(records_config(Experiment.COVARIANCE_ESTIMATION), data=v),
     "the records", 2),
    ("NoiseDesign lambda_sigma", lambda v: NoiseDesign(None, v, None, np.ones(2)),
     "lambda_sigma", 1),
    ("NoiseDesign lambda_psi", lambda v: NoiseDesign(None, np.ones(2), None, v),
     "lambda_psi", 1),
    ("delta_rho v", lambda v: delta_rho(v, np.eye(2)), "v", 1),
    ("delta_rho s_bar", lambda v: delta_rho(np.array([1.0, 0.0]), v), "s_bar", 2),
    ("captured_variance v", lambda v: captured_variance(v, np.eye(2)), "v", 1),
    ("captured_variance s_bar", lambda v: captured_variance(np.array([1.0, 0.0]), v),
     "s_bar", 2),
    ("DeltaRho", DeltaRho, "s_bar", 2),
    ("DeltaRho call", lambda v: DeltaRho(np.eye(2))(v), "v", 2),
    ("rss s_tilde", lambda v: rss(v, np.eye(2)), "s_tilde", 2),
    ("rss s_bar", lambda v: rss(np.eye(2), v), "s_bar", 2),
    ("ridge_regression_rmse features",
     lambda v: ridge_regression_rmse((v, np.ones(2)), (np.eye(2), np.ones(2)), 1.0),
     "the train features", 2),
    ("ridge_regression_rmse train targets",
     lambda v: ridge_regression_rmse((np.eye(2), v), (np.eye(2), np.ones(2)), 1.0),
     "the train targets", 1),
    ("ridge_regression_rmse test features",
     lambda v: ridge_regression_rmse((np.eye(2), np.ones(2)), (v, np.ones(2)), 1.0),
     "the test features", 2),
    ("ridge_regression_rmse targets",
     lambda v: ridge_regression_rmse((np.eye(2), np.ones(2)), (np.eye(2), v), 1.0),
     "the test targets", 1),
    ("mean_ci95", lambda v: mean_ci95(v, "m"), "metric values", 1),
]
SITE_IDS = [site[0] for site in ARRAY_SITES]


@pytest.mark.parametrize("call", [site[1] for site in ARRAY_SITES], ids=SITE_IDS)
@pytest.mark.parametrize("value", [np.eye(2) * (1 + 1j), np.array([["1", "0"], ["0", "1"]]),
                                   np.eye(2, dtype=bool)], ids=["complex", "str", "bool"])
def test_a_non_real_array_is_refused_where_it_enters(call, value):
    # a cast would release the real part, or parse the text, without a word
    with pytest.raises(DomainError, match=f"got an array of dtype {value.dtype}$"):
        call(value)


@pytest.mark.parametrize("site, call, name, ndim", ARRAY_SITES, ids=SITE_IDS)
def test_an_empty_array_is_refused_where_it_enters(site, call, name, ndim):
    # without the check some of these scored an empty stack as 0.0 or nan,
    # and others raised numpy's IndexError
    empty = np.zeros((0,) * ndim)
    if site == "mvg_equimodal basis":
        # a basis is measured against the query's rows before it is read
        message = f"{name} has shape (0, 0) but the query has 2 rows"
    else:
        message = f"{name} must hold at least one entry, got shape {empty.shape}"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call(empty)


@pytest.mark.parametrize("site, call, name, ndim", ARRAY_SITES, ids=SITE_IDS)
def test_a_ragged_array_is_refused_where_it_enters(site, call, name, ndim):
    # numpy refuses a ragged sequence with a bare ValueError
    ragged = [[1.0, 0.0], [0.0]] if ndim == 2 else [1.0, [0.0]]
    with pytest.raises(ShapeError,
                       match=f"^{re.escape(name)} must be a regular array, got a ragged "
                             "sequence$"):
        call(ragged)
