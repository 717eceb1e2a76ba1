import ast
from pathlib import Path

import pytest

from nrtbounds.space import BudgetExceeded, SpaceParams
from oracles import (
    SearchBudget,
    brute_force_max_code,
    brute_force_min_ooa,
    constant_weight_max,
    intersection_general,
)


def test_max_code_examples():
    assert brute_force_max_code(SpaceParams(2, 2, 2), 1) == 16
    assert brute_force_max_code(SpaceParams(2, 1, 3), 3) == 2
    assert brute_force_max_code(SpaceParams(2, 2, 1), 2) == 2


def test_max_code_known_values():
    # classical binary values at length 4
    p = SpaceParams(2, 1, 4)
    assert brute_force_max_code(p, 2) == 8
    assert brute_force_max_code(p, 3) == 2
    assert brute_force_max_code(p, 4) == 2
    # beyond the maximum weight only one word fits
    assert brute_force_max_code(SpaceParams(2, 2, 2), 5) == 1


def test_max_code_deterministic():
    p = SpaceParams(3, 2, 1)
    runs = {brute_force_max_code(p, 2) for _ in range(3)}
    assert len(runs) == 1


def test_min_ooa_examples():
    assert brute_force_min_ooa(SpaceParams(2, 2, 2), 0) == 1
    assert brute_force_min_ooa(SpaceParams(2, 1, 3), 2) == 4
    assert brute_force_min_ooa(SpaceParams(2, 2, 1), 1) == 2


def test_min_ooa_full_strength_small():
    assert brute_force_min_ooa(SpaceParams(2, 1, 2), 2) == 4
    assert brute_force_min_ooa(SpaceParams(2, 2, 1), 2) == 4


def test_constant_weight_examples():
    p = SpaceParams(2, 2, 2)
    assert constant_weight_max(p, 2, 0) == 1
    assert constant_weight_max(p, 1, 1) == 2  # both weight-1 vectors
    # max distance between weight-1 vectors is 2
    assert constant_weight_max(p, 3, 1) == 1


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        brute_force_max_code(SpaceParams(2, 2, 7), 2)  # ambient 2^14
    with pytest.raises(BudgetExceeded):
        brute_force_min_ooa(SpaceParams(2, 2, 3), 6)  # needs 64 > max rows
    tiny = SearchBudget(max_ambient=8)
    with pytest.raises(BudgetExceeded):
        brute_force_max_code(SpaceParams(2, 2, 2), 2, budget=tiny)
    with pytest.raises(BudgetExceeded):
        intersection_general(SpaceParams(2, 2, 7), (0, 0), (0, 0), (0, 0))  # ambient 2^14


def test_intersection_oracle_needs_a_shape_of_the_space():
    p = SpaceParams(2, 2, 2)
    assert intersection_general(p, (0, 0), (1, 1), (1, 1)) == 1
    with pytest.raises(ValueError, match="no vector of shape"):
        intersection_general(p, (0, 0), (0, 0), (3, 0))  # three blocks in a space of two


def test_oracles_import_no_package_module_but_space():
    # the fast paths live in the other modules; an oracle that read them
    # would agree with them by construction
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert {m for m in modules if m.split(".")[0] == "nrtbounds"} == {"nrtbounds.space"}
