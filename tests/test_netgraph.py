import pytest

from relayflow import (
    AdditiveOracle,
    DimensionMismatch,
    Flow,
    InputError,
    EmptyLayer,
    NegativeRate,
    NodeId,
    RateCountMismatch,
    BadRange,
    TooFewLayers,
    attach_supernode,
    build_network,
    check_capacity_axioms,
    cut_value,
    subnetwork,
)
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
