import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relayflow import (
    AdditiveOracle,
    DeterministicLayerModel,
    DimensionMismatch,
    InputError,
    DiscreteLayerModel,
    ExplicitTableOracle,
    Flow,
    GaussianLayerModel,
    NegativeRate,
    NodeId,
    NumericalFailure,
    RankGF2Oracle,
    RateCountMismatch,
    TooLarge,
    UnsupportedModel,
    build_network,
    check_joint_feasible,
    check_layered_feasible,
    check_multi_source,
    decoding_complexity,
    gaussian_gap,
    min_cut,
    network_from_models,
    penalty_recursion,
    plan_rates,
    RatePlan,
)
from relayflow import rateplan
from relayflow.capacity import MAX_JOINT_CELLS
from relayflow.oracle import InstanceSpec, SplitMix64, random_instance


def gaussian_line(gains=(10.0, 10.0)):
    models = [GaussianLayerModel(np.array([[g + 0j]])) for g in gains]
    return network_from_models(models), models


def deterministic_discrete_line():
    ident = np.zeros((2, 2))
    ident[0, 0] = ident[1, 1] = 1.0
    pmf = np.array([0.5, 0.5])
    models = [
        DiscreteLayerModel([pmf], [ident.copy()], [np.eye(2)]),
        DiscreteLayerModel([pmf], [ident.copy()], [np.eye(2)]),
    ]
    return network_from_models(models), models


# --- penalty recursion ----------------------------------------------------------


def test_gaussian_single_relay_penalties():
    net, models = gaussian_line()
    assert penalty_recursion(net, models) == [1.0, 0.0]


def test_gaussian_penalties_match_unit_leak_recursion():
    # one bit per pair: layer l pays 1 + n(l+1) + n(l+1) n(l+2) + ..., a
    # term per later relay layer, so (1, 2, 3, 1) gives 1 + 2 and 1
    sizes = (1, 2, 3, 1)
    net = build_network(sizes, [AdditiveOracle(np.ones(pair)) for pair in zip(sizes, sizes[1:])])
    assert penalty_recursion(net, leaks=[1.0, 1.0, 1.0]) == [3.0, 1.0, 0.0]
    rng = SplitMix64(99)
    for _ in range(20):
        L = 2 + rng.next_u64() % 3
        sizes = tuple([1] + [1 + rng.next_u64() % 3 for _ in range(L - 2)] + [1])
        net = build_network(
            sizes,
            [
                AdditiveOracle(np.ones((sizes[i], sizes[i + 1])))
                for i in range(L - 1)
            ],
        )
        want = [float(sum(math.prod(sizes[l:k]) for k in range(l, L - 1))) for l in range(1, L)]
        assert penalty_recursion(net, leaks=[1.0] * (L - 1)) == want


def test_deterministic_penalties_all_zero():
    net, models = deterministic_discrete_line()
    det = [DeterministicLayerModel(o) for o in net.oracles]
    assert penalty_recursion(net, det) == [0.0, 0.0]
    assert penalty_recursion(net, models) == pytest.approx([0.0, 0.0], abs=1e-12)


def test_two_layer_penalty_is_zero():
    net = build_network([1, 1], [AdditiveOracle([[2.0]])])
    assert penalty_recursion(net, leaks=[1.0]) == [0.0]


def test_penalty_needs_models_or_leaks():
    net = build_network([1, 1], [AdditiveOracle([[2.0]])])
    with pytest.raises(UnsupportedModel):
        penalty_recursion(net)


def _gaussian(m_in, m_out):
    return GaussianLayerModel(np.ones((m_out, m_in)))


def _penalties_with_leaks(leaks):
    return lambda: penalty_recursion(gaussian_line()[0], leaks=leaks)


#: a call given models or leaks that do not fit, and its refusal: a wrong
#: count or shape is a dimension mismatch, a leak that is no leak (the last
#: pair's, which never enters the recursion, too) is wrong input
MISFITS = {
    "no_models": (
        lambda: network_from_models([]), DimensionMismatch, "at least one layer model"
    ),
    "adjacent_models_disagree": (
        lambda: network_from_models([_gaussian(1, 2), _gaussian(1, 1)]),
        DimensionMismatch,
        "adjacent layer models disagree",
    ),
    "model_count": (
        lambda: plan_rates(gaussian_line()[0], [_gaussian(1, 1)]),
        DimensionMismatch,
        "3 layers need 2 models",
    ),
    "model_dims": (
        lambda: plan_rates(gaussian_line()[0], [_gaussian(1, 1), _gaussian(1, 2)]),
        DimensionMismatch,
        re.escape("model 2 has dims (1, 2), expected (1, 1)"),
    ),
    "leak_count": (_penalties_with_leaks([1.0]), DimensionMismatch, "need 2 leak values"),
    "leak_nan": (_penalties_with_leaks([math.nan, 0.0]), InputError, "leaks must be finite"),
    "leak_inf": (_penalties_with_leaks([math.inf, 0.0]), InputError, "leaks must be finite"),
    "leak_minus_inf": (
        _penalties_with_leaks([-math.inf, 0.0]), InputError, "leaks must be finite"
    ),
    "leak_last_nan": (
        _penalties_with_leaks([1.0, math.nan]), InputError, "leaks must be finite"
    ),
    "leak_negative": (
        _penalties_with_leaks([-5.0, 0.0]), NegativeRate, "leaks must be nonnegative"
    ),
    "leak_last_negative": (
        _penalties_with_leaks([1.0, -1e-300]), NegativeRate, "leaks must be nonnegative"
    ),
}


@pytest.mark.parametrize("case", sorted(MISFITS))
def test_models_and_leaks_that_do_not_fit_are_refused(case):
    call, error, message = MISFITS[case]
    with pytest.raises(error, match=message) as refused:
        call()
    assert refused.type is error


#: every entry point that takes a model list, called with ``models``
MODEL_ENTRY_POINTS = {
    "network_from_models": lambda net, models: network_from_models(models),
    "penalty_recursion": lambda net, models: penalty_recursion(net, models),
    "plan_rates": lambda net, models: plan_rates(net, models),
    "check_layered_feasible": lambda net, models: check_layered_feasible(
        net, models, RatePlan(0.5, {NodeId(2, 1): 0.5}, (0.0, 0.0), (), Flow({}))
    ),
    "check_joint_feasible": lambda net, models: check_joint_feasible(
        net, models, 0.5, {NodeId(2, 1): 0.5}
    ),
    "check_multi_source": lambda net, models: check_multi_source(net, models, [0.5]),
}


@pytest.mark.parametrize("entry", sorted(MODEL_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [None, AdditiveOracle([[1.0]])], ids=["none", "plain_oracle"])
@pytest.mark.parametrize("pair", [1, 2])
def test_entries_that_are_not_layer_models_are_refused(oracle_calls, entry, bad, pair):
    net, models = gaussian_line()
    models[pair - 1] = bad
    oracle_calls.clear()
    message = f"layer pair {pair}: {type(bad).__name__} is not a layer model"
    with pytest.raises(UnsupportedModel, match=re.escape(message)):
        MODEL_ENTRY_POINTS[entry](net, models)
    assert oracle_calls == []


def _deterministic(sizes):
    models = [
        DeterministicLayerModel(AdditiveOracle(np.ones(pair))) for pair in zip(sizes, sizes[1:])
    ]
    return network_from_models(models), models


@pytest.mark.parametrize("sizes", [(2, 2, 1), (1, 2, 2)])
def test_rate_planning_refuses_a_network_that_is_not_unicast(oracle_calls, monkeypatch, sizes):
    # refused as input before any leak or flow; max_flow's boundary-flow
    # message would name an input that plan_rates does not take
    called = []
    for name in ("penalty_recursion", "max_flow"):
        monkeypatch.setattr(
            f"relayflow.rateplan.{name}", lambda *a, name=name, **k: called.append(name)
        )
    net, models = _deterministic(sizes)
    with pytest.raises(InputError) as refused:
        plan_rates(net, models)
    assert str(refused.value) == "rate planning is defined for unicast networks"
    assert oracle_calls == [] and called == []


@pytest.mark.parametrize("sizes", [(2, 2, 1), (1, 2, 2)])
def test_region_checks_refuse_a_network_that_is_not_unicast(oracle_calls, sizes):
    net, models = _deterministic(sizes)
    compression = {NodeId(2, 1): 0.0, NodeId(2, 2): 0.0}
    plan = RatePlan(0.0, compression, (0.0, 0.0), (), Flow({}))
    with pytest.raises(InputError) as refused:
        check_layered_feasible(net, models, plan)
    assert str(refused.value) == "layered feasibility is defined for unicast networks"
    with pytest.raises(InputError) as refused:
        check_joint_feasible(net, models, 0.0, compression)
    assert str(refused.value) == "joint feasibility is defined for unicast networks"
    assert oracle_calls == []


def test_penalties_grow_toward_the_source():
    # nonnegative leaks and nonempty layers make the penalty sequence
    # non-increasing in the layer index
    rng = SplitMix64(17)
    for seed in range(1, 21):
        L = 2 + rng.next_u64() % 3
        sizes = tuple([1] + [1 + rng.next_u64() % 3 for _ in range(L - 2)] + [1])
        inst = random_instance(
            InstanceSpec(seed, sizes, {"gaussian": 1.0, "discrete": 1.0})
        )
        penalties = penalty_recursion(inst.network, inst.models)
        for left, right in zip(penalties, penalties[1:]):
            assert left >= right - 1e-12


# --- rate planning ----------------------------------------------------------------


def test_deterministic_plan_hits_the_cut():
    net, models = deterministic_discrete_line()
    plan = plan_rates(net, models)
    value, _ = min_cut(net)
    assert plan.rate == value
    assert plan.penalties == (0.0, 0.0)
    assert not plan.flags


def test_gaussian_strong_channel_plan_loses_one_bit():
    net, models = gaussian_line((50.0, 50.0))
    plan = plan_rates(net, models)
    value, _ = min_cut(net)
    assert plan.rate == pytest.approx(value - 1.0, abs=1e-12)
    assert plan.compression[NodeId(2, 1)] == pytest.approx(value, abs=1e-12)


def test_zero_capacity_plan_is_clamped_and_flagged():
    net, models = gaussian_line((0.0, 0.0))
    plan = plan_rates(net, models)
    assert plan.rate == 0.0
    assert "negative_rate:R" in plan.flags


# --- layered feasibility -----------------------------------------------------------


def test_deterministic_plan_is_layered_feasible():
    net, models = deterministic_discrete_line()
    plan = plan_rates(net, models)
    report = check_layered_feasible(net, models, plan)
    assert report.passed
    assert report.margin >= -1e-12


def test_inflated_compression_rate_fails():
    net, models = deterministic_discrete_line()
    plan = plan_rates(net, models)
    bumped = dict(plan.compression)
    bumped[NodeId(2, 1)] += 10.0
    from relayflow import RatePlan

    bad = RatePlan(plan.rate, bumped, plan.penalties, (), plan.flow)
    report = check_layered_feasible(net, models, bad)
    assert not report.passed
    assert any(2 in (v.get("U") or ()) or v["family"] == "last_layer" for v in report.violations)


def test_all_zero_plan_passes():
    net, models = deterministic_discrete_line()
    from relayflow import Flow, RatePlan

    zero = RatePlan(
        0.0,
        {NodeId(2, 1): 0.0},
        (0.0, 0.0),
        (),
        Flow({n: 0.0 for n in net.nodes()}),
    )
    assert check_layered_feasible(net, models, zero).passed


def test_two_layer_region_is_the_channel_information():
    h = np.array([[3.0 + 0j]])
    model = GaussianLayerModel(h)
    net = network_from_models([model])
    from relayflow import Flow, RatePlan

    direct = model.mi_received([1], [1])
    ok = RatePlan(direct - 0.01, {}, (0.0,), (), Flow({n: 0.0 for n in net.nodes()}))
    bad = RatePlan(direct + 0.01, {}, (0.0,), (), Flow({n: 0.0 for n in net.nodes()}))
    assert check_layered_feasible(net, [model], ok).passed
    assert not check_layered_feasible(net, [model], bad).passed


def test_strong_channels_can_starve_a_relay_past_its_leak():
    # a constructed four-layer instance where the flow assigns one relay
    # less than its quantization leak: the plan is flagged feasible by the
    # penalty filter, yet the empty-transmit-set rows catch the shortfall
    rng = SplitMix64(33)
    sizes = (1, 2, 2, 1)
    models = []
    for l in range(3):
        m_in, m_out = sizes[l], sizes[l + 1]
        h = np.array(
            [[20.0 * rng.complex_normal() for _ in range(m_in)] for _ in range(m_out)]
        )
        models.append(GaussianLayerModel(h))
    net = network_from_models(models)
    plan = plan_rates(net, models)
    assert not plan.flags
    starved = min(plan.compression[n] for n in net.layer_nodes(3))
    report = check_layered_feasible(net, models, plan)
    if starved < 1.0:
        assert not report.passed
        assert report.binding["family"] == "relay"
    else:
        assert report.passed


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 6: relay 3.2 gets penalty 0, below its own 1-bit leak",
)
@pytest.mark.parametrize("seed", [4, 5, 8])
def test_unflagged_gain_scaled_gaussian_plans_pass_the_layered_check(seed):
    # gains scaled like perfbench's generate(gain=100); the plans are not
    # clamped, yet family 2 binds at layer 2, U = (), V = (1,)
    inst = random_instance(InstanceSpec(seed, (1, 1, 2, 1), {"gaussian": 1.0}))
    models = [GaussianLayerModel(model.h * 100) for model in inst.models]
    net = network_from_models(models)
    plan = plan_rates(net, models)
    assert not plan.flags
    assert check_layered_feasible(net, models, plan).passed


def _reference_layered(net, models, plan, tol=1e-9):
    """Today's region check spelled out cell by cell, as
    ``(margin, binding, n_constraints, violations)``."""
    L = net.num_layers
    worst, binding, n, violations = math.inf, {}, 0, []

    def total(nodes):
        return sum(plan.compression[v] for v in nodes)

    def leq(lhs, rhs):
        return lhs <= rhs + tol * max(1.0, abs(lhs), abs(rhs))

    def consider(lhs, rhs, desc):
        nonlocal worst, binding, n
        n += 1
        if rhs - lhs < worst:
            worst = rhs - lhs
            binding = dict(desc, lhs=lhs, rhs=rhs)
        if not leq(lhs, rhs):
            violations.append(dict(desc, lhs=lhs, rhs=rhs, margin=rhs - lhs))

    def indices(mask):
        return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)

    dest = tuple(range(1, net.layer_sizes[-1] + 1))
    for u in range(1, 1 << net.layer_sizes[L - 2]):
        lhs = plan.rate if L == 2 else total(NodeId(L - 1, i) for i in indices(u))
        rhs = models[L - 2].mi_received(indices(u), dest)
        consider(lhs, rhs, {"family": "last_layer", "layer": L - 1, "U": indices(u)})
    for l in range(2, L - 1):
        full = (1 << net.layer_sizes[l]) - 1
        for u in range(1 << net.layer_sizes[l - 1]):
            for v in range(full + 1):
                if u == 0 and v == full:
                    continue
                lhs = total(NodeId(l, i) for i in indices(u)) - total(
                    NodeId(l + 1, i) for i in indices(full & ~v)
                )
                rhs = net.oracles[l - 1].value_masks(u, v) - models[l - 1].leak(
                    indices(full & ~v)
                )
                desc = {"family": "relay", "layer": l, "U": indices(u), "V": indices(v)}
                consider(lhs, rhs, desc)
    if L >= 3:
        full = (1 << net.layer_sizes[1]) - 1
        for v in range(full + 1):
            lhs = plan.rate - total(NodeId(2, i) for i in indices(full & ~v))
            rhs = net.oracles[0].value_masks(1, v) - models[0].leak(indices(full & ~v))
            consider(lhs, rhs, {"family": "source", "layer": 1, "V": indices(v)})
    return worst, binding, n, violations


def _drawn_models(seed, shape, family):
    """Gaussian or discrete layer models of ``shape`` drawn from
    ``SplitMix64(seed)``, past ``random_instance``'s 4-node cap; discrete
    pairs are binary, and the last quantizes the destination with the
    identity."""
    rng = SplitMix64(seed)
    models = []
    for a, b in zip(shape, shape[1:]):
        if family == "gaussian":
            h = np.array([[rng.complex_normal() for _ in range(a)] for _ in range(b)])
            models.append(GaussianLayerModel(h))
            continue

        def rows(n, low, span):
            return np.array([(1.0 - p, p) for p in (low + span * rng.random() for _ in range(n))])

        pmfs = list(rows(a, 0.2, 0.6))
        channels = [rows(2**a, 0.1, 0.8).reshape((2,) * a + (2,)) for _ in range(b)]
        last = len(models) == len(shape) - 2
        quantizers = [np.eye(2) if last else rows(2, 0.1, 0.8) for _ in range(b)]
        models.append(DiscreteLayerModel(pmfs, channels, quantizers))
    return models


def _layered_cases():
    shapes = [(1, 1), (1, 2, 1), (1, 2, 2, 1), (1, 3, 2, 1), (1, 2, 1, 2, 1)]
    for family in ("additive", "rank_gf2", "gaussian", "discrete"):
        for seed, shape in enumerate(shapes, start=1):
            inst = random_instance(InstanceSpec(seed, shape, {family: 1.0}))
            yield inst.network, list(inst.models)
            if family == "gaussian":
                loud = [GaussianLayerModel(m.h * 1000.0) for m in inst.models]
                yield network_from_models(loud), loud
    # the violation-heavy flow-ladder shapes at gain 1, whose plans are
    # clamped: four draws each
    for family in ("gaussian", "discrete"):
        for shape in ((1, 3, 3, 1), (1, 2, 5, 2, 1)):
            for seed in range(len(shapes) + 1, len(shapes) + 5):
                models = _drawn_models(seed, shape, family)
                yield network_from_models(models), models


def test_layered_check_matches_cell_by_cell_reference():
    from relayflow import RatePlan

    n_violated = n_tied = n_records = 0
    for net, models in _layered_cases():
        plan = plan_rates(net, models)
        plans = [plan]
        if plan.compression:
            raised = dict(plan.compression)
            raised[min(raised)] += 0.5
            plans.append(RatePlan(plan.rate, raised, plan.penalties, (), plan.flow))
        for p in plans:
            report = check_layered_feasible(net, models, p)
            got = (report.margin, report.binding, report.n_constraints, report.violations)
            want = _reference_layered(net, models, p)
            # repr tells apart every float, -0.0 from 0.0 included
            assert repr(got) == repr(want)
            assert all(type(report.binding[k]) is float for k in ("lhs", "rhs"))
            n_violated += bool(report.violations)
            n_records += len(report.violations)
            margins = [v["margin"] for v in report.violations]
            n_tied += len(margins) != len(set(margins))
    assert n_violated and n_tied and n_records > 3000


def test_plan_and_layered_checks_compute_each_models_leak_terms_once(monkeypatch):
    inst = random_instance(InstanceSpec(4, (1, 2, 3, 1), {"discrete": 1.0}))
    net, models = inst.network, list(inst.models)
    calls = []
    original = DiscreteLayerModel._receiver_leaks

    def counting(self):
        calls.append(id(self))
        return original(self)

    monkeypatch.setattr(DiscreteLayerModel, "_receiver_leaks", counting)
    plan = plan_rates(net, models)
    first = check_layered_feasible(net, models, plan)
    again = check_layered_feasible(net, models, plan)
    assert sorted(calls) == sorted(id(model) for model in models)
    assert repr(again) == repr(first)


def test_layered_check_reads_cached_model_quantities(monkeypatch, information_calls):
    from relayflow import CapacityOracle

    value_masks = CapacityOracle.value_masks

    def counting(self, umask, vmask):
        information_calls.append("value_masks")
        return value_masks(self, umask, vmask)

    monkeypatch.setattr(CapacityOracle, "value_masks", counting)
    for family in ("additive", "gaussian", "discrete"):
        inst = random_instance(InstanceSpec(3, (1, 3, 2, 2, 1), {family: 1.0}))
        net, models = inst.network, list(inst.models)
        plan = plan_rates(net, models)
        first = check_layered_feasible(net, models, plan)
        if family != "additive":
            assert information_calls, family
        information_calls.clear()
        again = check_layered_feasible(net, models, plan)
        assert information_calls == [], family
        assert repr(again) == repr(first)


# --- joint feasibility ---------------------------------------------------------------


def test_joint_two_layer_reduces_to_channel_information():
    h = np.array([[3.0 + 0j]])
    model = GaussianLayerModel(h)
    net = network_from_models([model])
    direct = model.mi_received([1], [1])
    assert check_joint_feasible(net, [model], direct - 1e-6, {}).passed
    assert not check_joint_feasible(net, [model], direct + 1e-6, {}).passed


def test_joint_deterministic_three_layer():
    net, models = deterministic_discrete_line()
    value, _ = min_cut(net)
    # compression at the received-symbol entropy, rate just under the cut
    r = {NodeId(2, 1): 1.0}
    assert check_joint_feasible(net, models, value - 1e-6, r).passed
    report = check_joint_feasible(net, models, value + 1.0, r)
    assert not report.passed


def test_joint_rejects_mixed_model_families():
    net, models = deterministic_discrete_line()
    mixed = [models[0], GaussianLayerModel(np.array([[1.0 + 0j]]))]
    with pytest.raises(UnsupportedModel):
        check_joint_feasible(network_from_models(mixed), mixed, 0.1, {NodeId(2, 1): 0.0})


def test_joint_gaussian_binding_cut_is_the_bottleneck():
    net, models = gaussian_line((50.0, 2.0))
    plan = plan_rates(net, models)
    report = check_joint_feasible(net, models, plan.rate, plan.compression)
    assert report.passed
    # rate above the weak second hop must fail
    weak = models[1].mi_received([1], [1])
    report = check_joint_feasible(net, models, weak + 0.5, plan.compression)
    assert not report.passed


def _reference_joint(net, models, rate, compression, tol=1e-9):
    """The joint-region check as it enumerated node sets, kept verbatim as
    the reference (the discrete information from ``_dict_grouped_joint_mi``),
    returned as ``(margin, binding, n_constraints, violations)``."""
    from relayflow.capacity import _leq

    def _subsets(items):
        for mask in range(1 << len(items)):
            yield [items[i] for i in range(len(items)) if mask & (1 << i)]

    def _gaussian_joint_mi(net, models):
        def mi(omega, phi):
            cols = sorted(omega)
            rows = sorted(phi)
            mat = np.zeros((len(rows), len(cols)), dtype=complex)
            for r, w in enumerate(rows):
                h = models[w.layer - 2].h
                noise = 1.0 if w == net.destination else 2.0
                for c, u in enumerate(cols):
                    if u.layer == w.layer - 1:
                        mat[r, c] = h[w.index - 1, u.index - 1] / math.sqrt(noise)
            gram = np.eye(len(rows), dtype=complex) + mat @ mat.conj().T
            gram = (gram + gram.conj().T) / 2.0
            chol = np.linalg.cholesky(gram)
            return float(2.0 * np.log2(np.real(np.diag(chol))).sum())

        return mi

    L = net.num_layers
    relays = [n for l in range(2, L) for n in net.layer_nodes(l)]
    if all(isinstance(m, GaussianLayerModel) for m in models):
        mi_fn = _gaussian_joint_mi(net, models)
        leak_of = {v: 1.0 for v in relays}
    else:
        pairs = _all_joint_pairs(len(relays))
        info = dict(zip(pairs, _dict_grouped_joint_mi(net, models, pairs)))

        def relay_mask(nodes):
            return sum(1 << i for i, v in enumerate(relays) if v in nodes)

        def mi_fn(omega, phi):
            return info[relay_mask(omega), relay_mask(phi)]

        leak_of = {v: models[v.layer - 2].leak([v.index]) for v in relays}

    worst = math.inf
    binding = {}
    n_constraints = 0
    violations = []
    for source_extra in _subsets(relays):
        in_source = set(source_extra)
        rest = [v for v in relays if v not in in_source]
        for decoded_extra in _subsets(rest):
            decoded = set(decoded_extra)
            omega = {net.source, *in_source}
            phi = {net.destination, *decoded}
            undecoded_relays = [v for v in relays if v not in phi]
            lhs = float(rate)
            rhs = (
                sum(compression[v] for v in rest if v not in decoded)
                + mi_fn(omega, phi)
                - sum(leak_of[v] for v in undecoded_relays)
            )
            n_constraints += 1
            margin = rhs - lhs
            desc = {
                "omega": sorted(n.key() for n in omega),
                "phi": sorted(n.key() for n in phi),
                "lhs": lhs,
                "rhs": rhs,
            }
            if margin < worst:
                worst = margin
                binding = desc
            if not _leq(lhs, rhs, tol):
                violations.append(dict(desc, margin=margin))
    return worst, binding, n_constraints, violations


def _as_floats(value):
    """``value`` with every numpy scalar turned into a Python ``float``."""
    if isinstance(value, dict):
        return {k: _as_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_as_floats(v) for v in value)
    return float(value) if isinstance(value, np.floating) else value


def _joint_cases():
    shapes = [(1, 1), (1, 2, 1), (1, 3, 1), (1, 2, 2, 1), (1, 3, 2, 1), (1, 2, 1, 2, 1)]
    cases = []
    for family in ("gaussian", "discrete"):
        for seed, shape in enumerate(shapes, start=1):
            inst = random_instance(InstanceSpec(seed, shape, {family: 1.0}))
            cases.append((seed, inst.network, list(inst.models)))
    # the 6-relay Gaussian shapes of the regions benchmark, past
    # random_instance's 4-node cap: every (|s|, |d|) group size its joint
    # checks batch
    for seed, shape in enumerate([(1, 3, 3, 1), (1, 6, 1)], start=len(shapes) + 1):
        rng = SplitMix64(seed)
        models = [
            GaussianLayerModel(
                np.array([[rng.complex_normal() for _ in range(a)] for _ in range(b)])
            )
            for a, b in zip(shape, shape[1:])
        ]
        cases.append((seed, network_from_models(models), models))
    for seed, net, models in cases:
        yield seed, net, models
        if isinstance(models[0], GaussianLayerModel):
            loud = [GaussianLayerModel(m.h * 30.0) for m in models]
            yield seed, network_from_models(loud), loud


def test_joint_check_matches_node_set_reference():
    n_passed = n_failed = 0
    for seed, net, models in _joint_cases():
        relays = [n for l in range(2, net.num_layers) for n in net.layer_nodes(l)]
        rng = SplitMix64(1000 + seed)
        plan = plan_rates(net, models)
        cases = [(plan.rate, plan.compression)] + [
            (scale * rng.random(), {v: scale * rng.random() for v in relays})
            for scale in (0.5, 4.0)
        ]
        for rate, compression in cases:
            report = check_joint_feasible(net, models, rate, compression)
            got = (report.margin, report.binding, report.n_constraints, report.violations)
            want = _reference_joint(net, models, rate, compression)
            # repr tells apart every float, -0.0 from 0.0 included
            assert repr(_as_floats(got)) == repr(_as_floats(want))
            assert report.passed == (not want[3])
            n_passed += report.passed
            n_failed += not report.passed
    assert n_passed and n_failed


@pytest.mark.parametrize("shape", [(1, 8, 1), (1, 3, 3, 1), (1, 2, 2, 2, 1)])
def test_joint_violations_follow_the_pair_order(shape):
    # at rate 1e3 and tol 0 every constraint is a violation, listed in the
    # order of the disjoint relay-mask pairs
    models = _drawn_models(5, shape, "gaussian")
    net = network_from_models(models)
    relays = [n for l in range(2, net.num_layers) for n in net.layer_nodes(l)]
    report = check_joint_feasible(net, models, 1e3, {v: 0.0 for v in relays}, tol=0.0)

    def keys(end, mask):
        return sorted([end.key()] + [v.key() for i, v in enumerate(relays) if mask >> i & 1])

    want = [
        (keys(net.source, s), keys(net.destination, d))
        for s, d in _all_joint_pairs(len(relays))
    ]
    assert report.n_constraints == len(want) == 3 ** len(relays)
    assert [(v["omega"], v["phi"]) for v in report.violations] == want


def test_layered_check_describes_violations_only_when_read(monkeypatch):
    models = _drawn_models(5, (1, 3, 3, 1), "gaussian")
    net = network_from_models(models)
    plan = plan_rates(net, models)
    calls = []
    original = rateplan._mask_indices

    def counting(mask):
        calls.append(mask)
        return original(mask)

    monkeypatch.setattr(rateplan, "_mask_indices", counting)
    report = check_layered_feasible(net, models, plan)
    # only binding constraints are described: at most one per family, and a
    # relay constraint's description takes two calls
    described = len(calls)
    assert not report.passed and described <= 4
    violations = report.violations
    assert len(violations) > 10
    per_record = [1 + (v["family"] == "relay") for v in violations]
    assert len(calls) == described + sum(per_record)
    assert report.violations is violations and len(calls) == described + sum(per_record)


def test_joint_check_describes_violations_only_when_read(monkeypatch):
    models = _drawn_models(5, (1, 3, 3, 1), "gaussian")
    net = network_from_models(models)
    relays = [n for l in range(2, net.num_layers) for n in net.layer_nodes(l)]
    calls = []
    original = NodeId.key

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(NodeId, "key", counting)
    report = check_joint_feasible(net, models, 1e3, {v: 0.0 for v in relays}, tol=0.0)
    # one key per node of the binding constraint's two sets
    binding = report.binding
    described = len(calls)
    assert not report.passed and described == len(binding["omega"]) + len(binding["phi"])
    violations = report.violations
    assert len(violations) == 3 ** len(relays)
    # each (side, mask) is keyed at most once per check, the binding's too
    sides = {(side, tuple(v[side])) for v in violations for side in ("omega", "phi")}
    keyed = sum(len(members) for _, members in sides)
    assert len(calls) <= keyed < sum(len(v["omega"]) + len(v["phi"]) for v in violations)
    assert report.violations is violations and len(calls) <= keyed
    # no two records, nor the binding constraint, share a list
    lists = [binding["omega"], binding["phi"]]
    lists += [v[side] for v in violations for side in ("omega", "phi")]
    assert len({id(members) for members in lists}) == len(lists)


def test_failing_region_checks_compare_equal_and_print_without_violations():
    models = _drawn_models(5, (1, 3, 3, 1), "gaussian")
    net = network_from_models(models)
    plan = plan_rates(net, models)
    runs = [
        lambda: check_layered_feasible(net, models, plan),
        lambda: check_joint_feasible(net, models, 1e3, {v: 0.0 for v in plan.compression}),
    ]
    for run in runs:
        first, again = run(), run()
        assert not first.passed
        assert first == again and repr(first) == repr(again)
        assert first.violations and first == again
        assert repr(first) == (
            f"FeasibilityReport(passed=False, margin={first.margin!r}, "
            f"binding={first.binding!r}, n_constraints={first.n_constraints})"
        )


def test_region_checks_refuse_an_overflowing_margin():
    # compression totals of two 1e308 relays overflow: an infinite margin is
    # no verdict, and no numpy warning is raised on the way
    models = _drawn_models(6, (1, 2, 1), "gaussian")
    net = network_from_models(models)
    plan = plan_rates(net, models)
    huge = {v: 1e308 for v in plan.compression}
    with pytest.raises(NumericalFailure, match="region margin is -inf, not a finite number"):
        check_layered_feasible(
            net, models, RatePlan(plan.rate, huge, plan.penalties, plan.flags, plan.flow)
        )
    # negative compressions, which once reached an overflowing joint
    # margin, are refused before any information is computed
    negative = {v: -1e308 for v in plan.compression}
    with pytest.raises(NegativeRate, match="rates must be nonnegative"):
        check_joint_feasible(net, models, plan.rate, negative)


def test_region_checks_refuse_a_nan_constraint():
    # |h|^2 of a 1e200 gain overflows, and the capacity and information
    # cells are NaN (the true value is about 1,328 bits): np.fmin skips a
    # NaN margin, so the smallest finite one would not be the worst
    models = [GaussianLayerModel([[1e200]]), GaussianLayerModel([[1e200]])]
    net = network_from_models(models)
    relay = NodeId(2, 1)
    nan = " is nan (lhs 1.0, rhs nan)"
    joint = "region margin at {'omega': ['1.1'], 'phi': ['2.1', '3.1']}" + nan
    with pytest.raises(NumericalFailure, match=re.escape(joint)):
        check_joint_feasible(net, models, 1.0, {relay: 1.0})
    plan = RatePlan(1.0, {relay: 1.0}, (0.0, 0.0), (), Flow({}))
    layered = "region margin at {'family': 'last_layer', 'layer': 2, 'U': (1,)}" + nan
    with pytest.raises(NumericalFailure, match=re.escape(layered)):
        check_layered_feasible(net, models, plan)


def test_layered_check_layer_guard_raises_before_any_sum(oracle_calls, monkeypatch):
    # a 17-relay layer, past the 16-node subset guard, cannot be built, so no
    # layered check ever sums its rates
    sums = []
    monkeypatch.setattr("relayflow.rateplan._subset_sums", sums.append)
    models = [
        DeterministicLayerModel(AdditiveOracle(np.ones((1, 17)))),
        DeterministicLayerModel(AdditiveOracle(np.ones((17, 1)))),
    ]
    with pytest.raises(TooLarge, match="subset enumeration limited to 16 nodes per layer"):
        network_from_models(models)
    assert oracle_calls == [] and sums == []


@pytest.fixture
def information_calls(monkeypatch):
    """Every ``_entropy``, ``_logdet_mi`` and ``_logdet_mi_stack`` call made
    during the test."""
    from relayflow import capacity, rateplan

    calls = []
    for module in (capacity, rateplan):
        for name in ("_entropy", "_logdet_mi", "_logdet_mi_stack"):
            if not hasattr(module, name):
                continue
            original = getattr(module, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("family", ["gaussian", "discrete"])
def test_joint_information_is_the_sum_of_layer_pair_tables(family):
    # NNC's cut-set information splits over layer pairs: inputs are
    # independent and each layer's outputs depend only on the layer before.
    # Pair l contributes table()[omega_l, phi_{l+1}] (quantized outputs),
    # the last pair mi_received_column()[omega_{L-1}] (the destination's
    # raw signal).  Rate 1e3 at tol 0 puts every constraint in the
    # violations, and with zero compression rhs = information - leak of
    # the undecoded relays.
    n_constraints = 0
    for seed in range(1, 9):
        for sizes in [(1, 2, 1), (1, 2, 2, 1), (1, 2, 1, 2, 1), (1, 3, 2, 1)]:
            inst = random_instance(InstanceSpec(seed, sizes, {family: 1.0}))
            net, models = inst.network, list(inst.models)
            relays = [n for l in range(2, net.num_layers) for n in net.layer_nodes(l)]
            report = check_joint_feasible(net, models, 1e3, {v: 0.0 for v in relays}, tol=0.0)
            assert report.n_constraints == len(report.violations) == 3 ** len(relays)
            for entry in report.violations:
                omega = [NodeId.from_key(k) for k in entry["omega"]]
                phi = [NodeId.from_key(k) for k in entry["phi"]]
                undecoded = [v for v in relays if v not in phi]
                info = entry["rhs"] + sum(models[v.layer - 2].leak([v.index]) for v in undecoded)
                masks = [[0] * (len(sizes) + 1) for _ in range(2)]
                for side, nodes in zip(masks, (omega, phi)):
                    for n in nodes:
                        side[n.layer] |= 1 << (n.index - 1)
                want = sum(
                    models[l - 1].table()[masks[0][l], masks[1][l + 1]]
                    for l in range(1, len(sizes) - 1)
                ) + models[-1].mi_received_column()[masks[0][len(sizes) - 1]]
                assert abs(info - want) <= 1e-12 * max(1.0, abs(want)), (seed, sizes, entry)
                n_constraints += 1
    assert n_constraints == 8 * (3**2 + 3**4 + 3**5 + 3**5)


def _placeholder_network(sizes):
    """Additive zero oracles of the given layer sizes: building them computes
    no information and trips no per-pair oracle guard."""
    return build_network(
        sizes,
        [AdditiveOracle(np.zeros((a, b))) for a, b in zip(sizes, sizes[1:])],
    )


def _uniform_discrete(m_in, m_out, alphabet):
    """A discrete layer model with uniform inputs and channels and identity
    quantizers over ``alphabet`` symbols at every node."""
    x_shape = (alphabet,) * m_in
    return DiscreteLayerModel(
        [np.full(alphabet, 1.0 / alphabet)] * m_in,
        [np.full(x_shape + (alphabet,), 1.0 / alphabet)] * m_out,
        [np.eye(alphabet)] * m_out,
    )


@pytest.mark.parametrize("family", ["gaussian", "discrete"])
def test_joint_relay_guard_raises_before_any_information(family, information_calls):
    sizes = (1, 13, 1)
    if family == "gaussian":
        models = [GaussianLayerModel(np.ones((13, 1))), GaussianLayerModel(np.ones((1, 13)))]
    else:
        models = [_uniform_discrete(1, 13, 2), _uniform_discrete(13, 1, 2)]
    relays = {NodeId(2, i): 0.0 for i in range(1, 14)}
    with pytest.raises(TooLarge, match="limited to 12 relays"):
        check_joint_feasible(_placeholder_network(sizes), models, 0.1, relays)
    assert information_calls == []


def test_joint_cell_cap_raises_before_any_information(information_calls):
    # each layer pair holds 32^3 cells, the joint table over all senders
    # and receivers 32^6, past MAX_JOINT_CELLS
    sizes = (1, 2, 1)
    models = [_uniform_discrete(1, 2, 32), _uniform_discrete(2, 1, 32)]
    assert 32**6 > MAX_JOINT_CELLS
    relays = {NodeId(2, 1): 0.0, NodeId(2, 2): 0.0}
    # the estimate: 32^3 sender assignments times 32^3 joint outputs
    estimate = re.escape(
        "global joint table exceeds the cell cap: 1,073,741,824 cells, "
        "8,589,934,592 bytes per grid copy, over 10,000,000 cells"
    )
    assert MAX_JOINT_CELLS == 10_000_000
    with pytest.raises(TooLarge, match=estimate):
        check_joint_feasible(_placeholder_network(sizes), models, 0.1, relays)
    assert information_calls == []


def test_joint_grid_peak_memory_stays_within_the_stated_bound():
    # 10^3 sender assignments times 10^3 joint outputs, about 2^20 cells: at
    # most three grid copies (3 * cells * 8 bytes) plus the stacked receiver
    # rows (8 * states bytes per output symbol of each receiver) are live
    import tracemalloc

    sizes, alphabet = (1, 2, 1), 10
    models = [_uniform_discrete(1, 2, alphabet), _uniform_discrete(2, 1, alphabet)]
    net = _placeholder_network(sizes)
    relays = {NodeId(2, 1): 0.0, NodeId(2, 2): 0.0}
    states = cells_out = alphabet**3
    cells = states * cells_out
    assert 2**19 < cells < 2**20
    bound = 3 * cells * 8 + 8 * states * 3 * alphabet
    tracemalloc.start()
    try:
        report = check_joint_feasible(net, models, 0.0, relays)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_constraints == 9
    # the decoded set of every receiver holds one whole grid
    assert cells * 8 < peak <= bound


def _dict_grouped_joint_mi(net, models, pairs):
    """The discrete joint information as it grouped each pair's weighted
    output rows in a dict, one sender assignment at a time, kept verbatim as
    the reference."""
    from itertools import product

    from relayflow.capacity import _entropy, _mask_indices

    senders = [n for l in range(1, net.num_layers) for n in net.layer_nodes(l)]
    receivers = senders[1:] + [net.destination]
    pmfs = [models[n.layer - 1].input_pmfs[n.index - 1] for n in senders]
    x_sizes = [pmf.size for pmf in pmfs]
    pos_of = {n: i for i, n in enumerate(senders)}
    conditionals = [
        models[w.layer - 2].channels[w.index - 1]
        if w == net.destination
        else models[w.layer - 2].quantized_conditional(w.index)
        for w in receivers
    ]
    inputs = [[pos_of[u] for u in net.layer_nodes(w.layer - 1)] for w in receivers]
    out_cells = math.prod(c.shape[-1] for c in conditionals)
    if math.prod(x_sizes) * out_cells > MAX_JOINT_CELLS:
        raise TooLarge("global joint table exceeds the cell cap")

    # per sender assignment with p > 0: (assignment, p, receiver rows, row entropies)
    states = []
    for assignment in product(*(range(s) for s in x_sizes)):
        p = 1.0
        for pmf, v in zip(pmfs, assignment):
            p *= pmf[v]
        if p == 0.0:
            continue
        rows = [
            cond[tuple(assignment[i] for i in positions)]
            for cond, positions in zip(conditionals, inputs)
        ]
        states.append((assignment, p, rows, [_entropy(row) for row in rows]))

    by_decoded: dict[int, list[int]] = {}
    for c, (_, d) in enumerate(pairs):
        by_decoded.setdefault(d, []).append(c)
    info = [0.0] * len(pairs)
    for d, members in by_decoded.items():
        phi = _mask_indices(d | 1 << (len(receivers) - 1))
        h_out_given_all = 0.0
        blocks = []
        for _, p, rows, entropies in states:
            block = np.ones(1)
            for w in phi:
                h_out_given_all += p * entropies[w - 1]
                block = np.multiply.outer(block, rows[w - 1])
            blocks.append(p * block.ravel())
        for c in members:
            s = pairs[c][0]
            cond_positions = [i for i in range(1, len(senders)) if not s >> (i - 1) & 1]
            groups: dict[tuple[int, ...], np.ndarray] = {}
            for (assignment, *_), weighted in zip(states, blocks):
                key = tuple(assignment[i] for i in cond_positions)
                if key in groups:
                    groups[key] = groups[key] + weighted
                else:
                    groups[key] = weighted
            h_joint = sum(_entropy(arr) for arr in groups.values())
            h_cond = _entropy(np.array([arr.sum() for arr in groups.values()]))
            info[c] = max(0.0, (h_joint - h_cond) - h_out_given_all)
    return info


def _all_joint_pairs(n_relays):
    """Every ``(s, d)`` pair of disjoint relay masks, ``s`` ascending and ``d``
    over the submasks of the rest, ascending."""
    full = (1 << n_relays) - 1
    return [(s, d) for s in range(full + 1) for d in range(full + 1) if not s & d]


def _zero_heavy_discrete_models(rng, sizes):
    """Discrete layer models over alphabets of 1-3 symbols, whose input pmfs
    often give a symbol probability zero (+0.0 or -0.0) and whose channel and
    quantizer conditionals have zero cells; the last pair's quantizers are
    the identity."""

    def pmf(shape):
        arr = rng.random(shape)
        arr[rng.random(shape) < 0.35] = 0.0
        arr[..., 0] += arr.sum(axis=-1) == 0.0
        arr = arr / arr.sum(axis=-1, keepdims=True)
        arr[(arr == 0.0) & (rng.random(shape) < 0.5)] = -0.0
        return arr

    alphabets = [[int(rng.integers(1, 4)) for _ in range(m)] for m in sizes]
    models = []
    for l, (m_in, m_out) in enumerate(zip(sizes, sizes[1:])):
        x_shape = tuple(alphabets[l])
        received = [int(rng.integers(1, 4)) for _ in range(m_out)]
        last = l == len(sizes) - 2
        quantized = received if last else alphabets[l + 1]
        models.append(
            DiscreteLayerModel(
                [pmf(k) for k in x_shape],
                [pmf(x_shape + (k,)) for k in received],
                [np.eye(k) if last else pmf((k, q)) for k, q in zip(received, quantized)],
            )
        )
    return models


def _discrete_joint_cases():
    """Seeded all-discrete networks: ``random_instance`` draws, then
    zero-heavy models over alphabets of 1-3 symbols."""
    cases = []
    for shape in [(1, 2, 1), (1, 3, 1), (1, 2, 2, 1), (1, 4, 1), (1, 2, 1, 2, 1), (1, 3, 2, 1)]:
        for seed in range(1, 4):
            inst = random_instance(InstanceSpec(seed, shape, {"discrete": 1.0}))
            cases.append((inst.network, list(inst.models)))
    rng = np.random.default_rng(20)
    for shape in [(1, 1), (1, 1, 1), (1, 2, 1), (1, 3, 1), (1, 1, 2, 1), (1, 2, 2, 1)] * 4:
        cases.append((_placeholder_network(shape), _zero_heavy_discrete_models(rng, shape)))
    return cases


def test_joint_information_matches_dict_grouping_reference():
    # repr of each value as a Python float tells apart every float, -0.0
    # from 0.0 included
    n_zero_states = 0
    for net, models in _discrete_joint_cases():
        pairs = _all_joint_pairs(sum(net.layer_sizes[1:-1]))
        s, d = np.array(pairs).T
        got = rateplan._discrete_joint_mi(net, models, s, d)
        want = _dict_grouped_joint_mi(net, models, pairs)
        assert repr([float(x) for x in got]) == repr([float(x) for x in want])
        n_zero_states += any(
            (pmf <= 0.0).any() for model in models for pmf in model.input_pmfs
        )
    assert n_zero_states >= 12


def _looped_pair_information(grid, conditioned, h_out_given_all):
    """``rateplan._pair_information`` with one ``.sum()`` per group, kept
    verbatim."""
    from relayflow.capacity import _entropy

    summed = [i for i in range(grid.ndim - 1) if i not in conditioned]
    folded = grid.transpose(conditioned + summed + [grid.ndim - 1])
    n_groups = math.prod(folded.shape[: len(conditioned)])
    folded = folded.reshape(n_groups, -1, grid.shape[-1])
    groups = folded[:, 0].copy()
    for t in range(1, folded.shape[1]):
        groups += folded[:, t]
    h_joint = sum(_entropy(arr) for arr in groups)
    h_cond = _entropy(np.array([arr.sum() for arr in groups]))
    return max(0.0, (h_joint - h_cond) - h_out_given_all)


def _looped_joint_mi(net, models, s, d):
    """``rateplan._discrete_joint_mi`` with one ``_entropy`` call per positive
    assignment and receiver, and ``_looped_pair_information``, kept
    verbatim."""
    import functools

    from relayflow.capacity import _entropy, _mask_indices

    senders = [n for l in range(1, net.num_layers) for n in net.layer_nodes(l)]
    receivers = senders[1:] + [net.destination]
    pmfs = [models[n.layer - 1].input_pmfs[n.index - 1] for n in senders]
    x_sizes = tuple(pmf.size for pmf in pmfs)
    pos_of = {n: i for i, n in enumerate(senders)}
    conditionals = [
        models[w.layer - 2].channels[w.index - 1]
        if w == net.destination
        else models[w.layer - 2].quantized_conditional(w.index)
        for w in receivers
    ]
    inputs = [[pos_of[u] for u in net.layer_nodes(w.layer - 1)] for w in receivers]
    states = math.prod(x_sizes)
    p = functools.reduce(np.multiply.outer, pmfs, np.ones(())).ravel()
    positive = p > 0.0
    coords = np.unravel_index(np.arange(states), x_sizes)
    rows = [
        cond[tuple(coords[i] for i in positions)]
        for cond, positions in zip(conditionals, inputs)
    ]
    entropies = np.array(
        [[_entropy(row[i]) for row in rows] for i in np.flatnonzero(positive)]
    )

    info = np.empty(s.size)
    for value in np.unique(d):
        phi = [w - 1 for w in _mask_indices(int(value) | 1 << (len(receivers) - 1))]
        terms = (p[positive, None] * entropies[:, phi]).ravel()
        h_out_given_all = np.add.accumulate(np.concatenate(([0.0], terms)))[-1]
        grid = np.ones((states, 1))
        for w in phi:
            grid = (grid[:, :, None] * rows[w][:, None, :]).reshape(states, -1)
        grid *= p[:, None]
        grid = grid.reshape(*x_sizes, -1)
        for c in np.flatnonzero(d == value):
            conditioned = [i for i in range(1, len(senders)) if not s[c] >> (i - 1) & 1]
            info[c] = _looped_pair_information(grid, conditioned, h_out_given_all)
    return info


def _bits(values):
    return np.array(values, dtype=float).view(np.int64)


def test_joint_information_matches_the_per_assignment_loop(monkeypatch):
    # every pair's grid goes through both versions of the pair information
    pair_information = rateplan._pair_information
    calls = []

    def both(grid, conditioned, h_out_given_all):
        got = pair_information(grid, conditioned, h_out_given_all)
        want = _looped_pair_information(grid, conditioned, h_out_given_all)
        calls.append(_bits(got) == _bits(want))
        return got

    monkeypatch.setattr(rateplan, "_pair_information", both)
    for net, models in _discrete_joint_cases():
        pairs = _all_joint_pairs(sum(net.layer_sizes[1:-1]))
        s, d = np.array(pairs).T
        got = rateplan._discrete_joint_mi(net, models, s, d)
        assert np.array_equal(_bits(got), _bits(_looped_joint_mi(net, models, s, d)))
    assert len(calls) > 500 and all(calls)


# --- multi-source region ---------------------------------------------------------------


def two_source_net():
    models = [
        DeterministicLayerModel(AdditiveOracle([[1.0, 0.5], [0.25, 2.0]])),
        DeterministicLayerModel(AdditiveOracle([[1.5], [0.75]])),
    ]
    return network_from_models(models), models


def test_multi_source_zero_rates_pass():
    net, models = two_source_net()
    report = check_multi_source(net, models, [0.0, 0.0])
    assert report.passed


def test_multi_source_sum_cut_violation_fails():
    net, models = two_source_net()
    report = check_multi_source(net, models, [40.0, 40.0])
    assert not report.passed
    # rates this large force the binding cut to contain every source
    assert {NodeId(1, 1), NodeId(1, 2)} <= report.binding.members
    assert report.margin == pytest.approx(report.binding.value - 80.0)


def test_multi_source_agrees_with_supernode_reduction():
    rng = SplitMix64(5)
    for seed in range(1, 21):
        inst = random_instance(
            InstanceSpec(seed, (2, 2, 1), {"additive": 1.0, "rank_gf2": 1.0})
        )
        rates = [2.0 * rng.random(), 2.0 * rng.random()]
        report = check_multi_source(inst.network, inst.models, rates)
        assert abs(report.margin - report.supernode_margin) <= 1e-9 * max(
            1.0, abs(report.margin)
        )


def symmetric_diamond():
    models = [
        DeterministicLayerModel(AdditiveOracle([[1.0], [1.0]])),
        DeterministicLayerModel(AdditiveOracle([[2.0]])),
    ]
    return network_from_models(models), models


def test_multi_source_symmetric_deterministic_boundary():
    # symmetric two-source diamond: the region boundary sits at the sum cut
    net, models = symmetric_diamond()
    assert check_multi_source(net, models, [1.0, 1.0]).margin == pytest.approx(0.0)
    assert not check_multi_source(net, models, [1.1, 1.0]).passed


def _reference_multi_source(net, models, source_rates):
    """The direct multi-source enumeration as a loop over ``product`` of the
    per-layer mask orders, kept verbatim as the reference, returned as
    ``(margin, sorted binding members, binding value, n_constraints)``."""
    from itertools import product

    from relayflow.capacity import _mask_indices
    from relayflow.cutflow import _lex_masks

    rates = [float(r) for r in source_rates]
    penalty = penalty_recursion(net, models)[0]
    L = net.num_layers
    mask_orders = [_lex_masks(m) for m in net.layer_sizes[:-1]] + [[0]]
    tables = [oracle.table().tolist() for oracle in net.oracles]
    worst = math.inf
    binding_masks = ()
    binding_value = math.inf
    n_constraints = 0
    for combo in product(*mask_orders):
        value = 0.0
        for l in range(L - 1, 0, -1):
            full_next = (1 << net.layer_sizes[l]) - 1
            value = tables[l - 1][combo[l - 1]][full_next & ~combo[l]] + value
        first = _mask_indices(combo[0])
        margin = value - sum(rates[i - 1] for i in first) - len(first) * penalty
        n_constraints += 1
        if margin < worst:
            worst = margin
            binding_masks = combo
            binding_value = value
    members = sorted(
        NodeId(l + 1, i).key()
        for l, mask in enumerate(binding_masks)
        for i in _mask_indices(mask)
    )
    return worst, members, binding_value, n_constraints


def _multi_source_summary(report):
    return (
        report.margin,
        sorted(n.key() for n in report.binding.members),
        report.binding.value,
        report.n_constraints,
    )


def _multi_source_cases():
    shapes = [(1, 1), (2, 1), (3, 2, 1), (2, 3, 2, 1), (3, 3, 3, 1), (4, 4, 4, 1)]
    for family in ("additive", "rank_gf2", "gaussian"):
        for seed, shape in enumerate(shapes, start=1):
            inst = random_instance(InstanceSpec(seed, shape, {family: 1.0}))
            yield seed, inst.network, list(inst.models)
    # under rates (1, 1) five cuts of the diamond tie at margin 0, so the
    # binding cut is the first in product order
    yield (0, *symmetric_diamond())
    # a -0.0 cell: the fold's first addition of 0.0 turns it into 0.0
    table = ExplicitTableOracle(
        (2, 1), {((1,), (1,)): -0.0, ((2,), (1,)): 1.0, ((1, 2), (1,)): 1.0}
    )
    models = [DeterministicLayerModel(table)]
    yield 0, network_from_models(models), models
    # sets {1.1} and {1.1, 2.2} have values 0.30000000000000004 and 0.3, and
    # under a rate of 100 their margins round to one float
    models = [
        DeterministicLayerModel(AdditiveOracle([[0.1, 0.2]])),
        DeterministicLayerModel(AdditiveOracle([[5.0], [math.nextafter(0.2, 0.0)]])),
    ]
    yield 0, network_from_models(models), models


def test_multi_source_matches_product_reference():
    for seed, net, models in _multi_source_cases():
        rng = SplitMix64(2000 + seed)
        n_sources = net.layer_sizes[0]
        draws = [[1.0] * n_sources, [0.0] * n_sources, [100.0] * n_sources] + [
            [scale * rng.random() for _ in range(n_sources)] for scale in (0.5, 3.0)
        ]
        for rates in draws:
            report = check_multi_source(net, models, rates)
            assert repr(_multi_source_summary(report)) == repr(
                _reference_multi_source(net, models, rates)
            ), (seed, net.layer_sizes, rates)


def _tie_heavy_model(kind, m_in, m_out, entries):
    """A layer model whose table has many equal cells: all zeros, small
    integer link capacities, a GF(2) rank, or a Gaussian channel of 0/1
    gains (which also leaks, so the first layer pays a penalty)."""
    rows = [entries[i * m_out : (i + 1) * m_out] for i in range(m_in)]
    if kind == "zero":
        return DeterministicLayerModel(AdditiveOracle(np.zeros((m_in, m_out))))
    if kind == "small_int":
        return DeterministicLayerModel(AdditiveOracle(rows))
    if kind == "rank_gf2":
        return DeterministicLayerModel(RankGF2Oracle(np.array(rows).T % 2))
    return GaussianLayerModel((np.array(rows).T % 2).astype(complex))


@st.composite
def _tie_heavy_multi_source(draw):
    middle = draw(st.lists(st.integers(1, 3), max_size=2))
    sizes = [draw(st.integers(1, 3)), *middle, 1]
    models = [
        _tie_heavy_model(
            draw(st.sampled_from(["zero", "small_int", "rank_gf2", "gaussian"])),
            m_in,
            m_out,
            draw(st.lists(st.integers(0, 2), min_size=m_in * m_out, max_size=m_in * m_out)),
        )
        for m_in, m_out in zip(sizes, sizes[1:])
    ]
    # rates far above the cut values round some margins of unequal cuts together
    rate = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1e3) | st.floats(1e15, 1e18)
    rates = draw(st.lists(rate, min_size=sizes[0], max_size=sizes[0]))
    return models, rates


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_multi_source())
def test_multi_source_matches_product_reference_on_tied_tables(case):
    models, rates = case
    net = network_from_models(models)
    report = check_multi_source(net, models, rates)
    assert repr(_multi_source_summary(report)) == repr(
        _reference_multi_source(net, models, rates)
    )


def test_multi_source_tie_binds_first_cut_in_product_order():
    net, models = symmetric_diamond()
    report = check_multi_source(net, models, [1.0, 1.0])
    assert report.margin == 0.0
    assert report.binding.members == frozenset()
    assert report.binding.value == 0.0
    assert report.n_constraints == 8


def test_multi_source_guard_raises_before_any_table(oracle_calls, monkeypatch):
    leak_calls = []
    monkeypatch.setattr(
        "relayflow.rateplan.penalty_recursion",
        lambda *args, **kwargs: leak_calls.append(args),
    )
    models = [
        DeterministicLayerModel(AdditiveOracle(np.zeros((8, 9)))),
        DeterministicLayerModel(AdditiveOracle(np.zeros((9, 8)))),
        DeterministicLayerModel(AdditiveOracle(np.zeros((8, 1)))),
    ]
    net = network_from_models(models)
    with pytest.raises(TooLarge, match="this network has 25, 33554432 node sets"):
        check_multi_source(net, models, [0.0] * 8)
    assert oracle_calls == [] and leak_calls == []


def test_multi_source_layer_guard_raises_before_any_table(oracle_calls, monkeypatch):
    # 17 sources pass the 24-node guard, not the 16-node layer guard, which
    # refuses the network before any check is asked of it
    leak_calls = []
    monkeypatch.setattr(
        "relayflow.rateplan.penalty_recursion",
        lambda *args, **kwargs: leak_calls.append(args),
    )
    models = [DeterministicLayerModel(AdditiveOracle(np.ones((17, 1))))]
    with pytest.raises(TooLarge, match="subset enumeration limited to 16 nodes per layer"):
        network_from_models(models)
    assert oracle_calls == [] and leak_calls == []


def test_multi_source_refuses_an_overflowing_margin():
    # the two rates sum past the float range
    models = [DeterministicLayerModel(AdditiveOracle([[1.0], [1.0]]))]
    with pytest.raises(NumericalFailure, match="multi-source margin is -inf, not a finite"):
        check_multi_source(network_from_models(models), models, [1e308, 1e308])


@pytest.mark.parametrize("rates", [[-0.5, 0.1], [-50.0, 0.1], [0.1, -1e-300]])
def test_multi_source_refuses_negative_rates_before_any_table(oracle_calls, monkeypatch, rates):
    leak_calls = []
    monkeypatch.setattr(
        "relayflow.rateplan.penalty_recursion",
        lambda *args, **kwargs: leak_calls.append(args),
    )
    models = _drawn_models(4, (2, 2, 2, 1), "gaussian")
    with pytest.raises(NegativeRate, match="source rates must be nonnegative"):
        check_multi_source(network_from_models(models), models, rates)
    assert oracle_calls == [] and leak_calls == []


def test_missing_relay_rates_are_refused_before_any_table(oracle_calls):
    models = _drawn_models(3, (1, 2, 2, 1), "gaussian")
    plan = plan_rates(network_from_models(models), models)
    partial = {n: r for n, r in plan.compression.items() if n != NodeId(3, 2)}
    short = RatePlan(plan.rate, partial, plan.penalties, plan.flags, plan.flow)
    # fresh models: no table or column is cached yet
    models = _drawn_models(3, (1, 2, 2, 1), "gaussian")
    net = network_from_models(models)
    oracle_calls.clear()
    for check in (
        lambda: check_layered_feasible(net, models, short),
        lambda: check_joint_feasible(net, models, plan.rate, partial),
        lambda: decoding_complexity(net, short, 4),
    ):
        with pytest.raises(RateCountMismatch, match="compression rate missing for 3.2"):
            check()
    assert oracle_calls == []
    assert all(m._leaks is None and m._received is None for m in models)


@pytest.mark.parametrize("stray", [NodeId(9, 9), NodeId(1, 1), "2.1"], ids=["9.9", "1.1", "str"])
def test_stray_compression_keys_are_refused_by_name(oracle_calls, stray):
    net, models = gaussian_line()
    name = repr(stray) if isinstance(stray, str) else stray.key()
    rates = {NodeId(2, 1): 0.5, stray: 1.0}
    plan = RatePlan(0.5, rates, (0.0, 0.0), (), Flow({}))
    oracle_calls.clear()
    for check in (
        lambda: check_joint_feasible(net, models, 0.5, rates),
        lambda: check_layered_feasible(net, models, plan),
        lambda: decoding_complexity(net, plan, 4),
    ):
        message = f"compression rate given for {name}, which is not a relay"
        with pytest.raises(InputError, match=f"^{re.escape(message)}$") as refused:
            check()
        assert refused.type is InputError
    assert oracle_calls == []


# --- complexity and gap constants ---------------------------------------------------


def test_complexity_single_relay_example():
    net, models = gaussian_line()
    plan = plan_rates(net, models)
    from relayflow import Flow, RatePlan

    unit = RatePlan(1.0, {NodeId(2, 1): 1.0}, plan.penalties, (), plan.flow)
    log2_joint, log2_layered = decoding_complexity(net, unit, 10, 2**10)
    assert log2_joint == pytest.approx(20.0, abs=1e-12)
    assert log2_layered == pytest.approx(math.log2(2**20 + 2**10), abs=1e-12)


def test_complexity_no_relays_collapses():
    net = build_network([1, 1], [AdditiveOracle([[2.0]])])
    from relayflow import Flow, RatePlan

    plan = RatePlan(1.5, {}, (0.0,), (), Flow({n: 1.5 for n in net.nodes()}))
    log2_joint, log2_layered = decoding_complexity(net, plan, 4)
    assert log2_joint == pytest.approx(6.0)
    assert log2_layered == pytest.approx(6.0)


def test_complexity_unit_block():
    net, models = gaussian_line()
    plan = plan_rates(net, models)
    log2_joint, _ = decoding_complexity(net, plan, 1, 4)
    assert log2_joint == pytest.approx(plan.rate + 2.0)


def test_complexity_refuses_numbers_past_the_float_range():
    net = build_network([1, 1, 1], [AdditiveOracle([[1e308]]), AdditiveOracle([[1e308]])])
    plan = RatePlan(1e308, {NodeId(2, 1): 1e308}, (0.0, 0.0), (), Flow({}))
    assert decoding_complexity(net, plan, 1) == (1e308, 1e308)
    # 1e309 bits of search space: inf, and inf - inf in the layered sum
    detail = "log2 search sizes are inf (joint) and nan (layered), not finite numbers"
    with pytest.raises(NumericalFailure, match=re.escape(detail)):
        decoding_complexity(net, plan, 10)
    # a block length that no float holds is an input error, not a traceback
    with pytest.raises(InputError, match="block length exceeds the float range"):
        decoding_complexity(net, plan, 10**400)


def test_gaussian_gap_examples():
    three = build_network(
        [1, 1, 1], [AdditiveOracle([[1.0]]), AdditiveOracle([[1.0]])]
    )
    assert gaussian_gap(three) == (9.0, 7.0)
    two = build_network([1, 1], [AdditiveOracle([[1.0]])])
    assert gaussian_gap(two) == (6.0, 4.0)
    five = build_network(
        [1, 2, 1, 1],
        [
            AdditiveOracle([[1.0, 1.0]]),
            AdditiveOracle([[1.0], [1.0]]),
            AdditiveOracle([[1.0]]),
        ],
    )
    assert gaussian_gap(five) == (15.0, 13.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_region_checks_refuse_non_finite_rates(bad):
    net, models = two_source_net()
    with pytest.raises(InputError, match="source rates must be finite"):
        check_multi_source(net, models, [0.0, bad])
    net, models = deterministic_discrete_line()
    with pytest.raises(InputError, match="rates must be finite"):
        check_joint_feasible(net, models, bad, {NodeId(2, 1): 1.0})
    with pytest.raises(InputError, match="rates must be finite"):
        check_joint_feasible(net, models, 0.5, {NodeId(2, 1): bad})
    plan = plan_rates(net, models)
    with pytest.raises(InputError, match="rates must be finite"):
        RatePlan(bad, plan.compression, plan.penalties, plan.flags, plan.flow)
    with pytest.raises(InputError, match="rates must be finite"):
        RatePlan(plan.rate, {NodeId(2, 1): bad}, plan.penalties, plan.flags, plan.flow)
