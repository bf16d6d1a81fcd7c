import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from relayflow import (
    AdditiveOracle,
    NodeId,
    NumericalFailure,
    TooLarge,
    build_network,
    check_capacity_axioms,
    max_flow,
    min_cut,
)
from relayflow.fileformat import network_from_dict
from relayflow.oracle import (
    FAMILIES,
    InstanceSpec,
    SplitMix64,
    brute_max_flow,
    brute_min_cut,
    dump_fixture,
    random_instance,
)

DATA = Path(__file__).parent / "data"


def line_net(caps=(3.0, 2.0)):
    return build_network([1] * (len(caps) + 1), [AdditiveOracle([[c]]) for c in caps])


def diamond_net():
    return build_network(
        [1, 2, 1], [AdditiveOracle([[1.0, 2.0]]), AdditiveOracle([[2.0], [1.0]])]
    )


# --- generator determinism -----------------------------------------------------


def test_splitmix_reference_values():
    rng = SplitMix64(1)
    first = rng.next_u64()
    rng2 = SplitMix64(1)
    assert first == rng2.next_u64()
    assert 0.0 <= SplitMix64(42).random() < 1.0


def test_same_seed_same_instance():
    spec = InstanceSpec(1, (1, 2, 1), {name: 1.0 for name in FAMILIES})
    a = random_instance(spec)
    b = random_instance(spec)
    assert a.families == b.families
    for oa, ob in zip(a.network.oracles, b.network.oracles):
        m_in, m_out = oa.dims
        for umask in range(1 << m_in):
            for vmask in range(1 << m_out):
                assert oa.value_masks(umask, vmask) == ob.value_masks(umask, vmask)


def test_two_layer_spec_gives_single_oracle():
    inst = random_instance(InstanceSpec(7, (1, 1), {"additive": 1.0}))
    assert inst.network.num_layers == 2
    assert len(inst.network.oracles) == 1


def test_generated_discrete_oracles_pass_axioms():
    for seed in range(1, 11):
        inst = random_instance(InstanceSpec(seed, (1, 3, 1), {"discrete": 1.0}))
        for oracle in inst.network.oracles:
            assert check_capacity_axioms(oracle).passed


def _failing_report(oracle, tol=1e-9):
    from relayflow.capacity import AxiomReport

    return AxiomReport(False, False, True, True, {"axiom": "bisubmodular"}, 1)


def test_generated_oracle_failing_the_axioms_is_refused(monkeypatch):
    monkeypatch.setattr("relayflow.oracle.check_capacity_axioms", _failing_report)
    with pytest.raises(NumericalFailure, match="generated additive oracle failed axioms"):
        random_instance(InstanceSpec(1, (1, 2, 1), {"additive": 1.0}))


def test_generated_oracle_is_refused_under_python_O():
    # -O strips assert statements; the axiom verdict must not be one
    code = textwrap.dedent(
        """
        import sys
        from relayflow import NumericalFailure, oracle
        from relayflow.capacity import AxiomReport

        oracle.check_capacity_axioms = lambda o, tol=1e-9: AxiomReport(
            False, False, True, True, {"axiom": "bisubmodular"}, 1
        )
        try:
            oracle.random_instance(oracle.InstanceSpec(1, (1, 2, 1), {"additive": 1.0}))
        except NumericalFailure as exc:
            print(sys.flags.optimize, exc)
        """
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 generated additive oracle failed axioms")


def test_size_guard_on_spec():
    with pytest.raises(TooLarge):
        InstanceSpec(1, (1, 5, 1), {"additive": 1.0})


# --- brute references ------------------------------------------------------------


def test_brute_min_cut_line():
    value, cut = brute_min_cut(line_net())
    assert value == 2.0
    assert cut.members == frozenset({NodeId(1, 1), NodeId(2, 1)})


def test_brute_min_cut_diamond():
    value, cut = brute_min_cut(diamond_net())
    assert value == 2.0
    assert cut.members == frozenset({NodeId(1, 1), NodeId(2, 2)})


def test_brute_min_cut_two_layers():
    value, cut = brute_min_cut(line_net((3.0,)))
    assert value == 3.0
    assert cut.members == frozenset({NodeId(1, 1)})


def test_brute_min_cut_refuses_when_every_cut_is_infinite():
    # every cut crosses two entries of 1e308, whose sum overflows
    net = build_network(
        [1, 2, 1], [AdditiveOracle([[1e308, 1e308]]), AdditiveOracle([[1e308], [1e308]])]
    )
    with pytest.raises(NumericalFailure, match="every cut value is NaN or infinite"):
        brute_min_cut(net)


def test_brute_max_flow_line_and_diamond():
    assert brute_max_flow(line_net()) == 2.0
    assert brute_max_flow(diamond_net()) == 2.0


def test_brute_max_flow_scales():
    half = build_network(
        [1, 2, 1],
        [AdditiveOracle([[0.5, 1.0]]), AdditiveOracle([[1.0], [0.5]])],
    )
    assert brute_max_flow(half) == pytest.approx(1.0)


def test_exact_mode_on_integer_capacities():
    # GF(2)-rank capacities are integers, so the program runs in exact
    # rational arithmetic and returns exact integers
    for seed in range(1, 16):
        inst = random_instance(InstanceSpec(seed, (1, 3, 3, 1), {"rank_gf2": 1.0}))
        value = brute_max_flow(inst.network)
        assert value == float(int(value))
        exact_cut, _ = brute_min_cut(inst.network)
        assert value == exact_cut


def test_brute_references_agree_with_construction():
    for seed in range(1, 31):
        mix = [
            {name: 1.0 for name in FAMILIES},
            {"additive": 1.0},
            {"gaussian": 1.0},
        ][seed % 3]
        sizes = [(1, 2, 1), (1, 3, 1), (1, 2, 2, 1)][seed % 3]
        inst = random_instance(InstanceSpec(seed, sizes, mix))
        value, _ = min_cut(inst.network)
        bvalue, _ = brute_min_cut(inst.network)
        assert value == bvalue
        flow_total = max_flow(inst.network).total(inst.network.layer_nodes(1))
        assert flow_total == pytest.approx(value, rel=1e-9, abs=1e-9)
        assert brute_max_flow(inst.network) == pytest.approx(value, rel=1e-6, abs=1e-6)


def test_brute_infeasible_boundary_detected_exact():
    from relayflow import InfeasibleBoundary

    net = build_network([2, 1], [AdditiveOracle([[1.0], [1.0]])])
    bound = {NodeId(1, 1): 5.0, NodeId(1, 2): 0.0, NodeId(2, 1): 5.0}
    with pytest.raises(InfeasibleBoundary):
        brute_max_flow(net, bound)


def test_brute_infeasible_boundary_detected_float():
    from relayflow import InfeasibleBoundary

    net = build_network([2, 1], [AdditiveOracle([[1.25], [1.25]])])
    bound = {NodeId(1, 1): 5.5, NodeId(1, 2): 0.0, NodeId(2, 1): 5.5}
    with pytest.raises(InfeasibleBoundary):
        brute_max_flow(net, bound)


def test_brute_feasible_boundary_float_path():
    net = build_network([2, 1], [AdditiveOracle([[1.25], [1.25]])])
    bound = {NodeId(1, 1): 1.25, NodeId(1, 2): 0.75, NodeId(2, 1): 2.0}
    assert brute_max_flow(net, bound) == pytest.approx(2.0)


def test_brute_guards():
    wide = build_network(
        [1, 4, 4, 4, 1],
        [
            AdditiveOracle([[1.0] * 4]),
            AdditiveOracle([[1.0] * 4] * 4),
            AdditiveOracle([[1.0] * 4] * 4),
            AdditiveOracle([[1.0]] * 4),
        ],
    )
    with pytest.raises(TooLarge):
        brute_max_flow(wide)


# --- golden fixtures --------------------------------------------------------------


def test_fixture_dump_round_trip():
    spec = InstanceSpec(2, (1, 2, 1), {"additive": 1.0})
    record = dump_fixture(spec)
    net, models, _ = network_from_dict(record["network"])
    value, _ = min_cut(net)
    assert value == pytest.approx(record["expected"]["mincut"], abs=1e-12)
    flow = max_flow(net)
    for key, expected in record["expected"]["flow"].items():
        assert flow.at(NodeId.from_key(key)) == pytest.approx(expected, abs=1e-12)


def test_frozen_fixture_still_reproduces():
    frozen = json.loads((DATA / "fixture_seed2_additive.json").read_text())
    spec = InstanceSpec(
        frozen["spec"]["seed"],
        tuple(frozen["spec"]["layers"]),
        frozen["spec"]["family_weights"],
    )
    assert dump_fixture(spec) == frozen
