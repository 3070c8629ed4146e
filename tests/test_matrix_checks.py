"""A matrix's symmetry and a vector's unit norm are each tested in one place.

``errors.symmetry_fault`` and ``errors.unit_norm_fault`` are those tests,
and ``SYMMETRY_TOL`` and ``UNIT_TOL`` their one tolerance each. A NaN or
infinite entry fails them without a RuntimeWarning, which the suite's
warning filter would turn into an error. A guard fails if another module
computes a symmetry deviation by hand.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from mvgdp.errors import SYMMETRY_TOL, UNIT_TOL, symmetry_fault, unit_norm_fault

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


def test_each_tolerance_is_defined_once():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                defined |= {(path.stem, target.id) for target in node.targets
                            if isinstance(target, ast.Name)
                            and target.id.endswith(("SYMMETRY_TOL", "UNIT_TOL"))}
    assert defined == {("errors", "SYMMETRY_TOL"), ("errors", "UNIT_TOL")}
