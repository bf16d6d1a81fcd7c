"""Every rate, flow and leak vector is refused one way: an entry that is
not a real number (a boolean, a string, None) or is NaN or infinite raises
``InputError``, a negative one ``NegativeRate``, and ``-0.0`` passes, at
every entry point that takes one, before any table is built."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import relayflow
from relayflow import (
    AdditiveOracle,
    BoundaryFunction,
    Flow,
    GaussianLayerModel,
    InputError,
    NegativeRate,
    NodeId,
    RatePlan,
    attach_supernode,
    boundary_function,
    build_network,
    check_joint_feasible,
    check_multi_source,
    max_flow,
    min_cut,
    network_from_models,
    penalty_recursion,
    polymatroid_intersect,
)


def _square():
    """Additive (2,2,2) with unit links: every boundary-flow total up to 2
    is feasible."""
    return build_network([2, 2, 2], [AdditiveOracle(np.ones((2, 2)))] * 2)


def _line():
    """Gaussian (1,1,1) layer models and their network."""
    models = [GaussianLayerModel(np.array([[10.0 + 0j]])) for _ in range(2)]
    return network_from_models(models), models


def _ends(bad):
    return {NodeId(1, 1): 1.0, NodeId(1, 2): bad, NodeId(3, 1): 1.0, NodeId(3, 2): 0.0}


_RANK = BoundaryFunction("source", 2, (0.0, 2.0, 2.0, 4.0))
_RELAY = NodeId(2, 1)

#: entry point -> (what its refusals name, network builder or None, call)
ENTRY_POINTS = {
    "min_cut": ("boundary flows", _square, lambda net, bad: min_cut(net, _ends(bad))),
    "max_flow": ("boundary flows", _square, lambda net, bad: max_flow(net, _ends(bad))),
    "boundary_function": (
        "boundary flows", _square, lambda net, bad: boundary_function(net, "sink", [1.0, bad])
    ),
    "polymatroid_intersect": (
        "target total", None, lambda _, bad: polymatroid_intersect(_RANK, _RANK, bad)
    ),
    "Flow": ("flow values", None, lambda _, bad: Flow({NodeId(1, 1): 1.0, _RELAY: bad})),
    "RatePlan": (
        "rates", None, lambda _, bad: RatePlan(1.0, {_RELAY: bad}, (0.0, 0.0), (), Flow({}))
    ),
    "penalty_recursion": (
        "leaks", _line, lambda line, bad: penalty_recursion(line[0], leaks=[bad, 1.0])
    ),
    "check_joint_feasible:rate": (
        "rates", _line, lambda line, bad: check_joint_feasible(*line, bad, {_RELAY: 0.5})
    ),
    "check_joint_feasible:compression": (
        "rates", _line, lambda line, bad: check_joint_feasible(*line, 0.5, {_RELAY: bad})
    ),
    "check_multi_source": (
        "source rates", _line, lambda line, bad: check_multi_source(*line, [bad])
    ),
    "attach_supernode": (
        "boundary rates",
        _square,
        lambda net, bad: attach_supernode(net, "before_sources", [1.0, bad]),
    ),
}

REFUSALS = [
    ("1.0", InputError, "must be real numbers, not booleans or other values"),
    (None, InputError, "must be real numbers, not booleans or other values"),
    (True, InputError, "must be real numbers, not booleans or other values"),
    (np.True_, InputError, "must be real numbers, not booleans or other values"),
    (math.nan, InputError, "must be finite numbers, not NaN or infinity"),
    (math.inf, InputError, "must be finite numbers, not NaN or infinity"),
    (-math.inf, InputError, "must be finite numbers, not NaN or infinity"),
    (-1.0, NegativeRate, "must be nonnegative"),
    (-1e-300, NegativeRate, "must be nonnegative"),
]


@pytest.mark.parametrize(
    "bad,error,message",
    REFUSALS,
    ids=["str", "None", "True", "np.True_", "nan", "inf", "-inf", "-1", "-1e-300"],
)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_rate_vectors_are_refused_alike(oracle_calls, entry, bad, error, message):
    what, build, call = ENTRY_POINTS[entry]
    net = build and build()
    oracle_calls.clear()
    with pytest.raises(error, match=f"^{what} {message}$") as refused:
        call(net, bad)
    assert refused.type is error
    assert oracle_calls == []


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_negative_zero_rates_are_accepted(entry):
    what, build, call = ENTRY_POINTS[entry]
    call(build and build(), -0.0)


def test_only_the_rate_check_raises_negative_rate():
    # one rule, one check: no module of the package raises NegativeRate or
    # tests a rate for finiteness on its own
    raisers, finite_checks = set(), set()
    for path in sorted(Path(relayflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and "NegativeRate" in {
                    n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                }:
                    raisers.add((path.stem, func.name))
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "_require_finite"
                    and path.stem in ("cutflow", "netgraph", "rateplan")
                ):
                    finite_checks.add((path.stem, func.name))
    assert raisers == {("capacity", "_require_rates")}
    # a boundary function's values are not rates; its target total is
    assert finite_checks == {("cutflow", "polymatroid_intersect")}
