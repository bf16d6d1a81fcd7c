"""Every node-keyed input is read one way, by ``LayeredNetwork.layer_values``:
a node of the layers read that is missing from the mapping raises
``RateCountMismatch`` naming it, and then a key that is none of those nodes
raises ``InputError`` naming it, at every entry point that takes one,
before any table is built."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from relayflow import (
    AdditiveOracle,
    Flow,
    GaussianLayerModel,
    InputError,
    NodeId,
    RateCountMismatch,
    build_network,
    check_joint_feasible,
    check_layered_feasible,
    decoding_complexity,
    max_flow,
    min_cut,
    network_from_models,
    plan_rates,
    verify_flow,
)


def _boundary():
    """Additive (2,2,2) with unit links and a feasible flow at each end."""
    net = build_network([2, 2, 2], [AdditiveOracle(np.ones((2, 2)))] * 2)
    return net, {n: 0.5 for l in (1, 3) for n in net.layer_nodes(l)}


def _flow():
    net, ends = _boundary()
    return net, dict(max_flow(net, ends).values)


def _planned():
    """A Gaussian (1,1,1,1) line, its models and its plan: two relay layers."""
    models = [GaussianLayerModel(np.array([[10.0 + 0j]])) for _ in range(3)]
    net = network_from_models(models)
    plan = plan_rates(net, models)
    return (net, models, plan), dict(plan.compression)


#: entry point -> (what its refusals name, what a stray key is not, the
#: builder of its arguments and a valid mapping, the call)
ENTRY_POINTS = {
    "min_cut": ("boundary flow", "boundary node", _boundary, min_cut),
    "max_flow": ("boundary flow", "boundary node", _boundary, max_flow),
    "verify_flow": (
        "flow value",
        "node of the network",
        _flow,
        lambda net, values: verify_flow(net, Flow(values)),
    ),
    "check_layered_feasible": (
        "compression rate",
        "relay",
        _planned,
        lambda p, values: check_layered_feasible(p[0], p[1], replace(p[2], compression=values)),
    ),
    "check_joint_feasible": (
        "compression rate",
        "relay",
        _planned,
        lambda p, values: check_joint_feasible(p[0], p[1], p[2].rate, values),
    ),
    "decoding_complexity": (
        "compression rate",
        "relay",
        _planned,
        lambda p, values: decoding_complexity(p[0], replace(p[2], compression=values), 1),
    ),
}

#: keys that some entry points read and others do not: sources, relays,
#: nodes past a layer or the network, and keys that are no node at all
KEYS = [NodeId(1, 1), NodeId(2, 1), NodeId(2, 3), NodeId(4, 1), NodeId(9, 9), "2.1", (2, 1)]


@pytest.mark.parametrize("stray", [False, True], ids=["alone", "with_stray"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_missing_node_is_refused_by_name(oracle_calls, entry, stray):
    what, _, build, call = ENTRY_POINTS[entry]
    args, values = build()
    for node in values:
        rest = {n: v for n, v in values.items() if n != node}
        if stray:
            rest[NodeId(9, 9)] = 1.0  # named only after every node is found
        oracle_calls.clear()
        with pytest.raises(RateCountMismatch, match=f"^{what} missing for {node.key()}$"):
            call(args, rest)
        assert oracle_calls == []


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_key_outside_the_layers_read_is_refused_by_name(oracle_calls, entry):
    what, role, build, call = ENTRY_POINTS[entry]
    args, values = build()
    strays = [key for key in KEYS if key not in values]
    assert len(strays) >= 4
    for stray in strays:
        name = stray.key() if isinstance(stray, NodeId) else repr(stray)
        message = f"{what} given for {name}, which is not a {role}"
        oracle_calls.clear()
        with pytest.raises(InputError, match=f"^{re.escape(message)}$") as refused:
            call(args, {**values, stray: 1.0})
        assert refused.type is InputError
        assert oracle_calls == []


@pytest.mark.parametrize("entry", ["min_cut", "max_flow"])
def test_a_stray_key_is_refused_before_a_bad_flow(oracle_calls, entry):
    what, role, build, call = ENTRY_POINTS[entry]
    net, values = build()
    values = {**values, NodeId(1, 1): math.nan, NodeId(2, 1): 1.0}
    with pytest.raises(InputError, match=f"^{what} given for 2.1, which is not a {role}$"):
        call(net, values)
    del values[NodeId(2, 1)]
    with pytest.raises(InputError, match=f"^{what}s must be finite numbers"):
        call(net, values)
    assert oracle_calls == []


def test_layer_values_are_floats_in_index_order():
    net, _ = _boundary()
    values = {NodeId(3, 2): 4, NodeId(1, 2): 2, NodeId(3, 1): 3, NodeId(1, 1): 1}
    rows = net.layer_values(values, (3, 1), "boundary flow", "boundary node")
    assert rows == [[3.0, 4.0], [1.0, 2.0]]
    assert {type(v) for row in rows for v in row} == {float}
