import ast
from pathlib import Path

import pytest

from relayflow import (
    AdditiveOracle,
    DimensionMismatch,
    Flow,
    InputError,
    EmptyLayer,
    LayeredNetwork,
    NegativeRate,
    NodeId,
    RateCountMismatch,
    BadRange,
    TooFewLayers,
    TooLarge,
    attach_supernode,
    build_network,
    check_capacity_axioms,
    cut_value,
    max_flow,
    subnetwork,
    verify_flow,
)
from relayflow import cutflow, rateplan
from relayflow.fileformat import oracle_from_spec


def line_net(caps=(3.0, 2.0)):
    return build_network(
        [1] * (len(caps) + 1), [AdditiveOracle([[c]]) for c in caps]
    )


def test_node_id_ordering_and_keys():
    assert NodeId(1, 2) < NodeId(2, 1)
    assert NodeId(2, 1).key() == "2.1"
    assert NodeId.from_key("3.2") == NodeId(3, 2)


def test_minimal_two_layer_network():
    net = build_network([1, 1], [AdditiveOracle([[3.0]])])
    assert net.num_layers == 2
    assert net.is_unicast


def test_diamond_builds():
    net = build_network(
        [1, 2, 1], [AdditiveOracle([[1.0, 2.0]]), AdditiveOracle([[2.0], [1.0]])]
    )
    assert net.layer_sizes == (1, 2, 1)
    assert [n.key() for n in net.layer_nodes(2)] == ["2.1", "2.2"]


def test_empty_layer_rejected():
    with pytest.raises(EmptyLayer):
        build_network([1, 0, 1], [AdditiveOracle([[1.0]]), AdditiveOracle([[1.0]])])


def test_too_few_layers_rejected():
    with pytest.raises(TooFewLayers):
        build_network([1], [])


def test_oracle_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        build_network([1, 2, 1], [AdditiveOracle([[1.0]]), AdditiveOracle([[2.0], [1.0]])])
    with pytest.raises(DimensionMismatch):
        build_network([1, 1], [AdditiveOracle([[1.0]]), AdditiveOracle([[1.0]])])


def test_spec_dicts_build_through_fileformat_only():
    spec = {"kind": "additive", "matrix": [[3.0]]}
    net = build_network([1, 1], [oracle_from_spec(spec)])
    assert net.oracles[0].value([1], [1]) == 3.0
    with pytest.raises(InputError, match="oracle 1 is a dict, not a CapacityOracle"):
        build_network([1, 1], [spec])


def _ones(m_in: int, m_out: int) -> AdditiveOracle:
    return AdditiveOracle([[1.0] * m_out] * m_in)


#: shapes the one constructor refuses: sizes, oracles, error, message
BAD_SHAPES = {
    "one_layer": ([1], [], TooFewLayers, "a layered network needs at least two layers"),
    "empty_layer": ([1, 0, 1], [_ones(1, 1), _ones(1, 1)], EmptyLayer, "layer 2 is empty"),
    "oracle_count": (
        [1, 1], [_ones(1, 1)] * 2, DimensionMismatch, "2 layers need 1 oracles, got 2"
    ),
    "not_an_oracle": (
        [1, 1],
        [{"kind": "additive", "matrix": [[1.0]]}],
        InputError,
        "oracle 1 is a dict, not a CapacityOracle",
    ),
    "dims": (
        [1, 2, 1],
        [_ones(1, 1), _ones(2, 1)],
        DimensionMismatch,
        "oracle 1 has dims (1, 1), expected (1, 2)",
    ),
    "wide_layer": (
        [1, 17, 1],
        [_ones(1, 17), _ones(17, 1)],
        TooLarge,
        "subset enumeration limited to 16 nodes per layer",
    ),
    "wide_pair": (
        [1, 12, 13, 1],
        [_ones(1, 12), _ones(12, 13), _ones(13, 1)],
        TooLarge,
        "capacity tables limited to 24 nodes per layer pair, network has 25",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_direct_construction_refuses_what_build_network_refuses(oracle_calls, case):
    sizes, oracles, error, message = BAD_SHAPES[case]
    for build in (build_network, lambda s, o: LayeredNetwork(tuple(s), tuple(o))):
        with pytest.raises(error) as refused:
            build(sizes, oracles)
        assert (refused.type, str(refused.value)) == (error, message)
    assert oracle_calls == []


def test_derived_networks_pass_the_one_check(monkeypatch):
    built = []
    check = LayeredNetwork.__post_init__

    def recording(self):
        check(self)
        built.append(self.layer_sizes)

    monkeypatch.setattr(LayeredNetwork, "__post_init__", recording)
    net = build_network([1, 2, 2, 2, 1], [_ones(1, 2), _ones(2, 2), _ones(2, 2), _ones(2, 1)])
    # max_flow's bisection builds both halves around the split layer 3
    assert verify_flow(net, max_flow(net)).passed
    assert {(1, 2, 2), (2, 2, 1)} <= set(built)
    assert subnetwork(net, 2, 4)[0].layer_sizes == built[-1] == (2, 2, 2)
    assert attach_supernode(net, "before_sources", [1.0]).layer_sizes == built[-1]
    # at both width limits, slices and supernodes still build, with no table
    wide = build_network([16, 8, 16], [_ones(16, 8), _ones(8, 16)])
    assert subnetwork(wide, 1, 2)[0].layer_sizes == (16, 8)
    assert attach_supernode(wide, "after_destinations", [0.0] * 16).layer_sizes == (16, 8, 16, 1)
    assert all(o._dense is None for o in wide.oracles)


@pytest.mark.parametrize("module", [cutflow, rateplan], ids=lambda m: m.__name__)
def test_only_the_network_checks_its_width(module):
    # the width limits live in LayeredNetwork alone; no consumer re-checks them
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.alias, ast.FunctionDef)):
            names.add(node.name)
    assert not names & {"LAYER_GUARD", "_guard_layers"}


def test_subnetwork_slices():
    net = line_net((3.0, 2.0, 5.0))
    head, head_map = subnetwork(net, 1, 2)
    assert head.num_layers == 2
    assert head.oracles[0].value([1], [1]) == 3.0
    tail, tail_map = subnetwork(net, 2, 4)
    assert tail.num_layers == 3
    assert tail.oracles[0].value([1], [1]) == 2.0
    assert tail_map[NodeId(1, 1)] == NodeId(2, 1)
    assert tail_map[NodeId(3, 1)] == NodeId(4, 1)


def test_subnetwork_full_slice_is_identity():
    net = build_network(
        [1, 2, 1], [AdditiveOracle([[1.0, 2.0]]), AdditiveOracle([[2.0], [1.0]])]
    )
    whole, index_map = subnetwork(net, 1, net.num_layers)
    assert whole.layer_sizes == net.layer_sizes
    for l, (a, b) in enumerate(zip(whole.oracles, net.oracles)):
        m_in, m_out = a.dims
        for umask in range(1 << m_in):
            for vmask in range(1 << m_out):
                assert a.value_masks(umask, vmask) == b.value_masks(umask, vmask)
    assert all(new == old for new, old in index_map.items())


def test_subnetwork_bad_range():
    net = line_net()
    with pytest.raises(BadRange):
        subnetwork(net, 3, 3)
    with pytest.raises(BadRange):
        subnetwork(net, 0, 2)


def test_attach_supernode_before_sources():
    net = build_network([2, 1], [AdditiveOracle([[1.0], [1.0]])])
    ext = attach_supernode(net, "before_sources", [1.0, 2.0])
    assert ext.layer_sizes == (1, 2, 1)
    assert ext.oracles[0].value([1], [1, 2]) == 3.0
    assert ext.oracles[0].value([1], [2]) == 2.0


def test_attach_supernode_after_destinations():
    net = build_network([1, 2], [AdditiveOracle([[1.0, 1.0]])])
    ext = attach_supernode(net, "after_destinations", [0.5, 1.5])
    assert ext.layer_sizes == (1, 2, 1)
    assert ext.oracles[-1].value([1, 2], [1]) == 2.0


def test_attach_supernode_zero_rates_kill_flow():
    from relayflow import max_flow, min_cut

    net = build_network([2, 1], [AdditiveOracle([[1.0], [1.0]])])
    ext = attach_supernode(net, "before_sources", [0.0, 0.0])
    value, _ = min_cut(ext)
    assert value == 0.0
    flow = max_flow(ext)
    assert flow.total(ext.nodes()) == 0.0


def test_attach_supernode_validation():
    net = build_network([2, 1], [AdditiveOracle([[1.0], [1.0]])])
    with pytest.raises(RateCountMismatch):
        attach_supernode(net, "before_sources", [1.0])
    with pytest.raises(NegativeRate):
        attach_supernode(net, "before_sources", [1.0, -0.5])


def test_supernode_oracle_is_bisubmodular():
    net = build_network([3, 1], [AdditiveOracle([[1.0], [2.0], [0.5]])])
    ext = attach_supernode(net, "before_sources", [0.7, 1.1, 0.0])
    assert check_capacity_axioms(ext.oracles[0]).passed


def test_supernodes_can_be_attached_on_both_ends():
    net = build_network([2, 2], [AdditiveOracle([[1.0, 0.5], [0.5, 1.0]])])
    ext = attach_supernode(
        attach_supernode(net, "before_sources", [1.0, 1.0]),
        "after_destinations",
        [1.0, 1.0],
    )
    assert ext.layer_sizes == (1, 2, 2, 1)
    assert ext.is_unicast


def test_supernode_cuts_restrict_to_original():
    # every cut of the extended net containing the supernode equals the
    # original cut plus the boundary rates of the excluded sources
    net = build_network(
        [2, 2, 1],
        [AdditiveOracle([[1.0, 0.5], [0.25, 2.0]]), AdditiveOracle([[1.5], [0.75]])],
    )
    rates = [0.6, 1.3]
    ext = attach_supernode(net, "before_sources", rates)
    nodes = net.nodes()
    for mask in range(1 << len(nodes)):
        members = [nodes[i] for i in range(len(nodes)) if mask >> i & 1]
        shifted = [NodeId(n.layer + 1, n.index) for n in members]
        excluded_sources = [i for i in (1, 2) if NodeId(1, i) not in members]
        expected = cut_value(net, members) + sum(rates[i - 1] for i in excluded_sources)
        assert cut_value(ext, [NodeId(1, 1), *shifted]) == pytest.approx(
            expected, abs=1e-12
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_flow_refuses_non_finite_values(bad):
    with pytest.raises(InputError, match="finite"):
        Flow({NodeId(1, 1): 1.0, NodeId(2, 1): bad})
