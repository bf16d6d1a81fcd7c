import math
import re
import tracemalloc
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relayflow import (
    AdditiveOracle,
    BoundaryFunction,
    CapacityOracle,
    DimensionMismatch,
    DiscreteLayerModel,
    Flow,
    GaussianLogDetOracle,
    Infeasible,
    InfeasibleBoundary,
    InputError,
    NegativeRate,
    NodeId,
    NumericalFailure,
    OutOfRange,
    BadRange,
    RateCountMismatch,
    TooLarge,
    boundary_function,
    build_network,
    cut_value,
    max_flow,
    min_cut,
    network_from_models,
    polymatroid_intersect,
    RankGF2Oracle,
    subnetwork,
    verify_flow,
)
from relayflow import capacity, cutflow
from relayflow.capacity import _leq
from relayflow.fileformat import network_from_dict, network_to_dict
from relayflow.oracle import InstanceSpec, brute_max_flow, brute_min_cut, random_instance


def line_net(caps=(3.0, 2.0)):
    return build_network([1] * (len(caps) + 1), [AdditiveOracle([[c]]) for c in caps])


def diamond_net():
    return build_network(
        [1, 2, 1], [AdditiveOracle([[1.0, 2.0]]), AdditiveOracle([[2.0], [1.0]])]
    )


S, A, B, D3 = NodeId(1, 1), NodeId(2, 1), NodeId(2, 2), NodeId(3, 1)


# --- cut values ---------------------------------------------------------------


def test_line_cut_values():
    net = line_net()
    assert cut_value(net, [S, A]) == 2.0
    assert cut_value(net, [S]) == 3.0


def test_diamond_cut_value_and_brute_minimum():
    net = diamond_net()
    assert cut_value(net, [S, B]) == 2.0
    # enumerate all four source-side cuts by hand
    values = {
        frozenset({S}): cut_value(net, [S]),
        frozenset({S, A}): cut_value(net, [S, A]),
        frozenset({S, B}): cut_value(net, [S, B]),
        frozenset({S, A, B}): cut_value(net, [S, A, B]),
    }
    assert min(values.values()) == 2.0
    assert values[frozenset({S, B})] == 2.0


# --- min cut -------------------------------------------------------------------


def test_line_min_cut():
    value, cut = min_cut(line_net())
    assert value == 2.0
    assert cut.members == frozenset({S, A})


def test_diamond_min_cut():
    value, cut = min_cut(diamond_net())
    assert value == 2.0
    assert cut.members == frozenset({S, B})


def test_zero_layer_gives_zero_cut():
    net = build_network(
        [1, 2, 1], [AdditiveOracle([[0.0, 0.0]]), AdditiveOracle([[2.0], [1.0]])]
    )
    value, cut = min_cut(net)
    assert value == 0.0
    assert cut.value == cut_value(net, cut.members)


def test_min_cut_matches_brute_on_ties():
    # equal-capacity paths force ties; both paths must pick the same cut
    tied = build_network(
        [1, 2, 2, 1],
        [
            AdditiveOracle([[1.0, 1.0]]),
            AdditiveOracle([[1.0, 0.0], [0.0, 1.0]]),
            AdditiveOracle([[1.0], [1.0]]),
        ],
    )
    # cuts {1.1, 2.1} and {1.1, 2.1, 3.2} fold to 1.0 + 2e-17 and 1.0 + 1e-17,
    # both 1.0 once rounded: the first in indicator order is the smaller set,
    # though its inner sum is the larger
    rounded = build_network(
        [1, 2, 2, 1],
        [
            AdditiveOracle([[5.0, 1.0]]),
            AdditiveOracle([[0.0, 2e-17], [5.0, 5.0]]),
            AdditiveOracle([[5.0], [1e-17]]),
        ],
    )
    for net in (tied, rounded):
        value, cut = min_cut(net)
        bvalue, bcut = brute_min_cut(net)
        assert value == bvalue
        assert cut.members == bcut.members


def test_min_cut_layer_guard(oracle_calls):
    # a 17-node layer cannot be built, so no cut is ever asked of it
    oracles = [AdditiveOracle([[1.0] * 17]), AdditiveOracle([[1.0]] * 17)]
    with pytest.raises(TooLarge, match="subset enumeration limited to 16 nodes per layer"):
        build_network([1, 17, 1], oracles)
    assert oracle_calls == []


def test_max_flow_and_verify_evaluate_each_cell_once(oracle_calls):
    mix = {"additive": 1.0, "rank_gf2": 1.0, "gaussian": 1.0}
    generated = random_instance(InstanceSpec(11, (1, 3, 3, 2, 1), mix)).network
    # rebuild through the file format so no oracle has a cached table yet
    net = network_from_dict(network_to_dict(generated))[0]
    oracle_calls.clear()
    assert verify_flow(net, max_flow(net)).passed
    cells = sum(1 << (a + b) for a, b in zip(net.layer_sizes, net.layer_sizes[1:]))
    assert len(oracle_calls) == len(set(oracle_calls)) == cells


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_boundary_flows_must_be_finite(bad):
    net = build_network([2, 1, 1], [AdditiveOracle([[2.0], [2.0]]), AdditiveOracle([[4.0]])])
    bound = {NodeId(1, 1): 1.0, NodeId(1, 2): bad, NodeId(3, 1): 3.0}
    with pytest.raises(InputError, match="boundary flows must be finite"):
        min_cut(net, bound)
    with pytest.raises(InputError, match="boundary flows must be finite"):
        max_flow(net, bound)


def test_non_finite_cut_value_is_a_numerical_failure():
    # a custom oracle can still answer NaN, and finite capacities can sum
    # past the float range; neither may reach the cut reconstruction, whose
    # exact match would find no state and raise StopIteration
    class NaNOracle(CapacityOracle):
        kind = "nan"

        def _value(self, umask, vmask):
            return math.nan

    nan_net = build_network([1, 1, 1], [NaNOracle((1, 1)), AdditiveOracle([[1.0]])])
    huge_net = build_network(
        [1, 2, 1], [AdditiveOracle([[1e308, 1e308]]), AdditiveOracle([[1e308], [1e308]])]
    )
    # neither warns on the way (pyproject turns a RuntimeWarning into an error)
    for net, value in ((nan_net, "nan"), (huge_net, "inf")):
        with pytest.raises(NumericalFailure, match=f"cut value is {value}"):
            min_cut(net)
        with pytest.raises(NumericalFailure, match=f"cut value is {value}"):
            max_flow(net)


def test_verify_flow_refuses_an_overflowing_excess():
    # the flow's totals overflow: an infinite excess is no verdict, and no
    # numpy warning is raised on the way
    net = build_network(
        [1, 2, 1], [AdditiveOracle([[1e308, 1e308]]), AdditiveOracle([[1e308], [1e308]])]
    )
    flow = Flow({node: 1e308 for node in net.nodes()})
    with pytest.raises(NumericalFailure, match="worst excess is inf, not a finite number"):
        verify_flow(net, flow)


def test_verify_flow_refuses_a_nan_constraint():
    # |h|^2 of a 1e200 gain overflows, and the capacity cells are NaN (the
    # true value is about 1,328 bits): a NaN excess is no verdict either
    net = network_from_models([GaussianLogDetOracle([[1e200]]) for _ in range(2)])
    flow = Flow({node: 1.0 for node in net.nodes()})
    detail = "excess at layer 1, U=[1], V=[1] is nan (lhs 1.0, rhs nan)"
    with pytest.raises(NumericalFailure, match=re.escape(detail)):
        verify_flow(net, flow)


def test_min_cut_with_boundary_flows():
    # one source, fixed boundary below capacity: min picks the boundary term
    net = line_net((3.0,))
    bound = {NodeId(1, 1): 1.0, NodeId(2, 1): 1.0}
    value, cut = min_cut(net, bound)
    # excluding the source entirely costs its flow of 1, cheaper than the cap 3
    assert value == 1.0
    assert cut.members == frozenset()


def test_value_only_callers_skip_the_cut_reconstruction(monkeypatch):
    from relayflow import DeterministicLayerModel, check_multi_source, network_from_models, rateplan

    calls = []
    original = cutflow._first_minimizer

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(cutflow, "_first_minimizer", counting)
    monkeypatch.setattr(rateplan, "_first_minimizer", counting)
    mix = {"additive": 1.0, "rank_gf2": 1.0, "gaussian": 1.0}
    net = random_instance(InstanceSpec(5, (1, 3, 2, 1), mix)).network
    flow = max_flow(net)
    assert calls == []
    ends = {NodeId(1, 1): flow.at(NodeId(1, 1)), NodeId(4, 1): flow.at(NodeId(4, 1))}
    max_flow(net, ends)
    assert calls == []
    assert min_cut(net)[0] == flow.at(NodeId(1, 1))
    assert len(calls) == 1
    models = [
        DeterministicLayerModel(AdditiveOracle([[1.0, 0.5], [0.25, 2.0]])),
        DeterministicLayerModel(AdditiveOracle([[1.5], [0.75]])),
    ]
    # the direct region's binding cut only; the supernode cross-check takes
    # the value alone
    check_multi_source(network_from_models(models), models, [0.5, 0.5])
    assert len(calls) == 2


def test_source_side_boundary_function_matches_a_forward_sweep():
    # the source side's values as the forward loop over the transposed costs
    # computed them before the source side ran on `_backward_tables`
    mix = {"additive": 1.0, "rank_gf2": 1.0, "gaussian": 1.0, "discrete": 1.0}
    for seed in range(1, 21):
        for sizes in [(1, 3, 3, 2, 1), (2, 3, 2, 1), (3, 2, 4, 1)]:
            net = random_instance(InstanceSpec(seed, sizes, mix)).network
            far = [0.25 * (i + seed) for i in range(sizes[0])]
            for l in range(2, len(sizes)):
                half, _ = subnetwork(net, 1, l)
                values = np.asarray(cutflow._subset_sums(far)[::-1], dtype=float)
                for oracle in half.oracles:
                    values = cutflow._sweep(cutflow._cost(oracle).T, values)
                got = boundary_function(half, "source", far).values
                # bit for bit, -0.0 and NaN included
                assert got.tobytes() == values[::-1].tobytes(), (seed, sizes, l)


# --- boundary functions --------------------------------------------------------


def test_source_side_boundary_function_line():
    half, _ = subnetwork(line_net((3.0, 2.0)), 1, 2)
    r = boundary_function(half, "source", [5.0])
    assert r.value([1]) == 3.0
    assert r.value([]) == 0.0


def test_sink_side_boundary_function_line():
    half, _ = subnetwork(line_net((3.0, 2.0)), 2, 3)
    r = boundary_function(half, "sink", [5.0])
    assert r.value([1]) == 2.0
    assert r.value([]) == 0.0


def test_boundary_functions_are_polymatroids():
    net = build_network(
        [1, 3, 2, 1],
        [
            AdditiveOracle([[1.0, 2.0, 0.5]]),
            AdditiveOracle([[1.0, 0.0], [0.5, 1.5], [2.0, 0.25]]),
            AdditiveOracle([[1.0], [2.0]]),
        ],
    )
    value, _ = min_cut(net)
    upper, _ = subnetwork(net, 1, 3)
    lower, _ = subnetwork(net, 3, 4)
    r_src = boundary_function(upper, "source", [value])
    r_snk = boundary_function(lower, "sink", [value])
    for fn in (r_src, r_snk):
        ok, why = fn.check_polymatroid()
        assert ok, why


def _loop_check_polymatroid(fn, tol=1e-9):
    """``BoundaryFunction.check_polymatroid`` as the scalar loop it was
    before it ran on the capacity-axiom kernels, kept as its reference,
    on the values as Python floats."""
    vals = fn.values.tolist()
    if vals[0] != 0.0:
        return False, f"value at empty set is {vals[0]}"
    n = 1 << fn.ground_size
    for a in range(n):
        for i in range(fn.ground_size):
            if a & (1 << i):
                continue
            if not _leq(vals[a], vals[a | (1 << i)], tol):
                return False, f"not monotone at {a:b} adding {i + 1}"
    for a in range(n):
        for b in range(a, n):
            if not _leq(vals[a | b] + vals[a & b], vals[a] + vals[b], tol):
                return False, f"not submodular at {a:b}, {b:b}"
    return True, None


def _polymatroid_cases(seed):
    """``(m, values)``: seeded polymatroids on m = 0-6 elements (square
    roots of nonnegative modular functions plus a modular one), each also
    with one value moved by 1e-13 to 1.0 and one set to NaN or +-inf."""
    rng = np.random.default_rng(seed)
    for m in range(7):
        bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
        for _ in range(4):
            base = np.sqrt(bits @ rng.random((m, 3))).sum(axis=1) + bits @ rng.random(m)
            yield m, base
            for moved in (1e-13, 1e-10, 1e-3, 1.0, math.nan, math.inf, -math.inf):
                values = base.copy()
                k = rng.integers(1 << m)
                if math.isfinite(moved):
                    values[k] += rng.choice([-1.0, 1.0]) * moved
                else:
                    values[k] = moved
                yield m, values


def test_polymatroid_check_matches_the_scalar_loop():
    verdicts = set()
    for m, values in _polymatroid_cases(18):
        fn = BoundaryFunction("source", m, tuple(values.tolist()))
        for tol in (0.0, 1e-12, 1e-9, 1e-6):
            want = _loop_check_polymatroid(fn, tol)
            assert fn.check_polymatroid(tol) == want, (values.tolist(), tol)
            verdicts.add(want[1].split(" at ")[0] if want[1] else None)
        # a tol the comparisons cannot use is refused, not applied
        for tol in (-1e-9, math.nan, math.inf):
            with pytest.raises(InputError, match="^tol must be"):
                fn.check_polymatroid(tol)
    assert verdicts == {None, "value", "not monotone", "not submodular"}


def test_every_boundary_function_max_flow_builds_is_a_polymatroid(monkeypatch):
    built = []
    boundary_function = cutflow.boundary_function

    def recording(*args, **kwargs):
        built.append(boundary_function(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cutflow, "boundary_function", recording)
    for seed, m in enumerate((9, 10, 11), start=1):
        max_flow(_seeded_network(seed, (1, m, 1), "additive"))
    for family in ("gaussian", "rank_gf2"):
        for w in range(1, 7):
            max_flow(_seeded_network(w, (1, w, w, 1), family))
    assert max(fn.ground_size for fn in built) == 11
    for fn in built:
        ok, why = fn.check_polymatroid()
        assert ok, (fn.side, fn.ground_size, why)


def test_cutflow_compares_through_the_kernels_alone():
    assert not hasattr(cutflow, "_leq")


@pytest.mark.parametrize(
    "side,ground_size,values,error",
    [
        ("middle", 1, (0.0, 1.0), BadRange),
        ("source", -1, (0.0,), BadRange),
        ("source", 1, (0.0, 1.0, 5.0, 7.0), DimensionMismatch),
        ("sink", 3, (0.0, 1.0, 5.0, 7.0), DimensionMismatch),
    ],
)
def test_boundary_function_refuses_a_wrong_shape(side, ground_size, values, error):
    with pytest.raises(error):
        BoundaryFunction(side, ground_size, values)


def test_boundary_function_value_refuses_indices_outside_the_ground_set():
    r = BoundaryFunction("source", 2, (0.0, 1.0, 2.0, 3.0))
    assert r.value([2]) == 2.0 and r.value([1, 2]) == 3.0
    for subset in ([0], [3], [1, 3]):
        with pytest.raises(OutOfRange):
            r.value(subset)


@pytest.mark.parametrize("make", [tuple, list, np.array], ids=["tuple", "list", "array"])
def test_boundary_function_holds_read_only_float64_values(make):
    values = [0.0, 1, 2.5, -0.0]
    r = BoundaryFunction("sink", 2, make(values))
    assert r.values.dtype == np.float64 and r.values.shape == (4,)
    assert r.values.tobytes() == np.array(values, dtype=float).tobytes()
    assert not r.values.flags.writeable
    with pytest.raises(ValueError):
        r.values[1] = 7.0
    assert r.value([2]) == 2.5 and type(r.value([2])) is float


def test_boundary_function_copies_the_array_it_is_built_from():
    source = np.array([0.0, 1.0, 2.0, 3.0])
    r = BoundaryFunction("source", 2, source)
    source[1] = 9.0
    assert r.value([1]) == 1.0 and source.flags.writeable


@pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
@pytest.mark.parametrize(
    "side,ground_size,values,error",
    [
        ("middle", 1, (0.0, 1.0), BadRange),
        ("source", -1, (0.0,), BadRange),
        ("source", 1, (0.0, 1.0, 5.0, 7.0), DimensionMismatch),
        ("sink", 3, (0.0, 1.0, 5.0, 7.0), DimensionMismatch),
        ("sink", 2, ((0.0, 1.0), (5.0, 7.0)), DimensionMismatch),
    ],
)
def test_boundary_function_refuses_a_wrong_shape_from_a_list_or_array(
    make, side, ground_size, values, error
):
    with pytest.raises(error):
        BoundaryFunction(side, ground_size, make(values))


def test_boundary_functions_are_equal_when_their_value_bits_are():
    r = BoundaryFunction("source", 1, (0.0, 1.0))
    same = BoundaryFunction("source", 1, np.array([0, 1]))
    assert r == same and hash(r) == hash(same) and len({r, same}) == 1
    assert r != BoundaryFunction("sink", 1, (0.0, 1.0))
    assert r != BoundaryFunction("source", 1, (0.0, 1.0 + 2**-52))
    # bits, not float equality: -0.0 differs from 0.0 and NaN equals NaN
    assert r != BoundaryFunction("source", 1, (-0.0, 1.0))
    nan = BoundaryFunction("source", 1, (0.0, math.nan))
    assert nan == BoundaryFunction("source", 1, [0.0, math.nan])
    assert r != (0.0, 1.0)


def test_intersect_answers_alike_for_built_and_computed_functions():
    for seed, m in ((1, 5), (2, 10)):
        net = _seeded_network(seed, (1, m, 1), "additive")
        value, _ = min_cut(net)
        upper, _ = subnetwork(net, 1, 2)
        lower, _ = subnetwork(net, 2, 3)
        computed = [boundary_function(upper, "source", [value]), boundary_function(lower, "sink", [value])]
        built = [BoundaryFunction(r.side, r.ground_size, tuple(r.values.tolist())) for r in computed]
        assert built == computed
        assert repr(polymatroid_intersect(*built, value)) == repr(
            polymatroid_intersect(*computed, value)
        )


@pytest.mark.parametrize("side", ["source", "sink"])
@pytest.mark.parametrize(
    "bad,error,message",
    [
        (math.nan, InputError, "boundary flows must be finite numbers, not NaN or infinity"),
        (math.inf, InputError, "boundary flows must be finite numbers, not NaN or infinity"),
        (-math.inf, InputError, "boundary flows must be finite numbers, not NaN or infinity"),
        (-1.0, NegativeRate, "boundary flows must be nonnegative"),
    ],
)
def test_boundary_function_refuses_bad_far_flows(side, bad, error, message):
    # without the check a (1,2,1) sink side returned (nan, nan) for [nan]
    # and (-1.0, -1.0) for [-1.0]
    with pytest.raises(error, match=message) as raised:
        boundary_function(diamond_net(), side, [bad])
    assert raised.type is error


def test_missing_node_values_are_refused_by_name():
    net = diamond_net()
    flow = max_flow(net)
    partial = {n: v for n, v in flow.values.items() if n != B}
    with pytest.raises(RateCountMismatch, match="flow value missing for 2.2"):
        verify_flow(net, Flow(partial))
    with pytest.raises(RateCountMismatch, match="boundary flow missing for 3.1"):
        min_cut(net, {S: 1.0})
    with pytest.raises(RateCountMismatch, match="boundary flow missing for 1.1"):
        max_flow(net, {D3: 1.0})


# --- polymatroid intersection ---------------------------------------------------


def test_intersect_box_case():
    r = BoundaryFunction("source", 2, (0.0, 1.0, 2.0, 3.0))
    assert polymatroid_intersect(r, r, 3.0) == pytest.approx([1.0, 2.0])


def test_intersect_diamond_middle_layer():
    r_src = BoundaryFunction("source", 2, (0.0, 1.0, 2.0, 3.0))
    r_snk = BoundaryFunction("sink", 2, (0.0, 2.0, 1.0, 3.0))
    assert polymatroid_intersect(r_src, r_snk, 2.0) == pytest.approx([1.0, 1.0])


def test_intersect_infeasible_target():
    r_src = BoundaryFunction("source", 2, (0.0, 1.0, 2.0, 3.0))
    r_snk = BoundaryFunction("sink", 2, (0.0, 2.0, 1.0, 3.0))
    with pytest.raises(Infeasible):
        polymatroid_intersect(r_src, r_snk, 10.0)


def test_intersect_reduction_is_deterministic():
    # ample headroom on both sides: optimum exceeds the target, and the
    # excess comes out of the lowest indices first
    r = BoundaryFunction("source", 2, (0.0, 2.0, 2.0, 4.0))
    assert polymatroid_intersect(r, r, 1.0) == pytest.approx([0.0, 1.0])


@pytest.mark.parametrize(
    "sink_values,target,error,message",
    [
        ((0.0, 2.0, 2.0, 4.0), math.nan, InputError, "target total must be finite"),
        ((0.0, 2.0, 2.0, 4.0), -1.0, NegativeRate, "target total must be nonnegative"),
        ((0.0, 2.0, math.nan, 4.0), 1.0, InputError, "boundary function values must be finite"),
    ],
)
def test_intersect_refuses_bad_input(sink_values, target, error, message):
    r_src = BoundaryFunction("source", 2, (0.0, 2.0, 2.0, 4.0))
    r_snk = BoundaryFunction("sink", 2, sink_values)
    with pytest.raises(error, match=message):
        polymatroid_intersect(r_src, r_snk, target)


def _pivot_max_lp(a_rows, b, c):
    """``cutflow._pivot_max`` on ``max c @ x`` subject to ``A x <= b`` and
    ``x >= 0``, handed the structural columns ``(A[:, j], -c[j])``."""
    a = np.asarray(a_rows, dtype=float)
    structural = np.empty((a.shape[1], a.shape[0] + 1))
    structural[:, :-1] = a.T
    structural[:, -1] = np.negative(np.asarray(c, dtype=float))
    return cutflow._pivot_max(structural, np.asarray(b, dtype=float))


def _dense_simplex_max(a_rows, b, c):
    """The dense Bland's-rule tableau ``_pivot_max`` replaced, kept verbatim
    as the reference its pivots must reproduce."""
    INF = float("inf")
    a = np.asarray(a_rows, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    if (b < 0).any():
        raise NumericalFailure("simplex requires nonnegative right-hand sides")
    eps = 1e-12
    # tableau: columns = structural vars, slacks, rhs; last row = -objective
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :n] = -c
    basis = list(range(n, n + m))

    for _ in range(10_000):
        enter = -1
        for j in range(n + m):
            if tab[m, j] < -eps:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio = INF
        for i in range(m):
            coef = tab[i, enter]
            if coef > eps:
                ratio = tab[i, -1] / coef
                if ratio < best_ratio - eps or (
                    abs(ratio - best_ratio) <= eps
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise NumericalFailure("linear program is unbounded")
        pivot = tab[leave, enter]
        tab[leave] /= pivot
        for i in range(m + 1):
            if i != leave and tab[i, enter] != 0.0:
                tab[i] -= tab[i, enter] * tab[leave]
        basis[leave] = enter
    else:
        raise NumericalFailure("simplex did not converge")

    x = [0.0] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = float(tab[i, -1])
    return float(tab[m, -1]), x


def _solve(simplex, a, b, c):
    """``repr`` of the simplex result, which tells apart every float (-0.0
    from 0.0 included), or the ``NumericalFailure`` message."""
    try:
        return repr(simplex(a, b, c))
    except NumericalFailure as exc:
        return f"NumericalFailure: {exc}"


def _seeded_lps(seed, count):
    """``(A, b, c)`` drawn in turn from four kinds: 0/1 matrices with integer
    rhs (eps ties), Gaussian matrices, mixed-sign integer matrices (often
    unbounded), and positive diagonally dominant square matrices, whose
    pivot rows are dense and whose optimum makes every structural column
    basic, so every row is pivoted and every slack column created."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        m, n = int(rng.integers(1, 30)), int(rng.integers(1, 7))
        kind = k % 4
        if kind == 0:
            a = rng.integers(0, 2, (m, n)).astype(float)
            b = rng.integers(0, 4, m).astype(float)
        elif kind == 1:
            a = rng.normal(size=(m, n))
            b = np.abs(rng.normal(size=m))
        elif kind == 2:
            a = rng.integers(-2, 3, (m, n)).astype(float)
            b = rng.integers(0, 3, m).astype(float)
        else:
            n = m
            a = np.eye(m) + rng.uniform(0.01, 0.5 / m, (m, m))
            b = np.ones(m)
        c = rng.integers(-1, 3, n).astype(float) if kind < 3 else np.ones(n)
        yield kind, a.tolist(), b.tolist(), c.tolist()


def test_simplex_matches_dense_tableau_on_seeded_lps():
    unbounded = all_basic = 0
    for kind, a, b, c in _seeded_lps(4, 400):
        got = _solve(_pivot_max_lp, a, b, c)
        assert got == _solve(_dense_simplex_max, a, b, c), (kind, a, b, c)
        unbounded += got == "NumericalFailure: linear program is unbounded"
        if kind == 3:
            all_basic += all(v > 0 for v in _pivot_max_lp(a, b, c)[1])
    assert unbounded
    assert all_basic == 100


def _pruning(monkeypatch):
    """``(candidates, survivors, all ratios finite)`` of every ratio test
    that was pruned."""
    counts = []
    survivors = cutflow._ratio_survivors

    def recording(candidates, ratios, eps):
        kept = survivors(candidates, ratios, eps)
        counts.append((candidates.size, kept[0].size, bool(np.isfinite(ratios).all())))
        return kept

    monkeypatch.setattr(cutflow, "_ratio_survivors", recording)
    return counts


def _seeded_network(seed, shape, family):
    """A network of one capacity family with the recipe of
    ``random_instance`` (additive entries uniform on [0, 4], uniform GF(2)
    bits, standard complex normal channels, binary discrete pairs with
    probabilities in [0.1, 0.9]), drawn from numpy and past its 4-node cap.
    Discrete layer pairs stay within 12 nodes."""
    rng = np.random.default_rng(seed)
    oracles = []
    for l, (m_in, m_out) in enumerate(zip(shape, shape[1:])):
        if family == "additive":
            oracles.append(AdditiveOracle(4.0 * rng.random((m_in, m_out))))
        elif family == "rank_gf2":
            oracles.append(RankGF2Oracle(rng.integers(0, 2, (m_out, m_in))))
        elif family == "gaussian":
            h = rng.normal(size=(m_out, m_in)) + 1j * rng.normal(size=(m_out, m_in))
            oracles.append(GaussianLogDetOracle(h))
        else:
            p1 = 0.2 + 0.6 * rng.random(m_in)
            pmfs = np.stack([1.0 - p1, p1], axis=1)
            c1 = 0.1 + 0.8 * rng.random((m_out, 2**m_in))
            channels = [
                np.stack([1.0 - c, c], axis=1).reshape((2,) * m_in + (2,)) for c in c1
            ]
            if l == len(shape) - 2:
                quantizers = [np.eye(2)] * m_out
            else:
                q1 = 0.1 + 0.8 * rng.random((m_out, 2))
                quantizers = [np.stack([1.0 - q, q], axis=1) for q in q1]
            model = DiscreteLayerModel(list(pmfs), channels, quantizers)
            oracles.append(model.oracle())
    return build_network(list(shape), oracles)


def _wide_split_networks(seed):
    """Additive and Gaussian (1,9,1) and (1,10,1) networks, whose split-layer
    LPs have 1,022 and 2,046 rows."""
    rng = np.random.default_rng(seed)
    for m in (9, 10):
        c = 4.0 * rng.random((2, m))
        yield build_network([1, m, 1], [AdditiveOracle(c[:1]), AdditiveOracle(c[1:].T)])
        h = rng.normal(size=(2, m)) + 1j * rng.normal(size=(2, m))
        yield build_network([1, m, 1], [GaussianLogDetOracle(h[:1].T), GaussianLogDetOracle(h[1:])])


def _recording_lps(monkeypatch):
    """``(A, b, c, repr of the result)`` of every LP solved by ``_pivot_max``,
    rebuilt from the structural columns it was handed."""
    lps = []
    pivot_max = cutflow._pivot_max

    def recording(structural, b):
        m = structural.shape[1] - 1
        lp = (structural[:, :m].T.tolist(), b.tolist(), (-structural[:, m]).tolist())
        result = pivot_max(structural, b)
        lps.append((*lp, repr(result)))
        return result

    monkeypatch.setattr(cutflow, "_pivot_max", recording)
    return lps


def test_simplex_matches_dense_tableau_on_max_flow_lps(monkeypatch):
    lps = _recording_lps(monkeypatch)
    for family in ("additive", "rank_gf2", "gaussian", "discrete"):
        for seed, shape in enumerate([(1, 3, 1), (1, 4, 1), (1, 2, 3, 1), (1, 3, 3, 2, 1)]):
            max_flow(random_instance(InstanceSpec(seed, shape, {family: 1.0})).network)
        for seed, shape in enumerate([(1, 11, 1), (1, 2, 7, 3, 2, 1)], start=20):
            max_flow(_seeded_network(seed, shape, family))
    for net in _wide_split_networks(910):
        max_flow(net)
    monkeypatch.undo()
    pruned = _pruning(monkeypatch)
    assert len(lps) > 16
    assert max(len(b) for _, b, _, _ in lps) == 2 * (2**11 - 1)
    for a, b, c, got in lps:
        dense = _solve(_dense_simplex_max, a, b, c)
        assert got == dense
        assert _solve(_pivot_max_lp, a, b, c) == dense
    assert any(kept < n for n, kept, _ in pruned)


def _wide_lps(seed, count):
    """``(A, b, c)`` with more candidate rows than ``PRUNE_CANDIDATES``.  Most
    rows are 0/1 with small integer rhs, so ratio ties are exact; a quarter
    are ``x_j - x_k <= 0`` rows of mixed sign with zero rhs, which tie at
    ratio 0 and make pivots degenerate without pinning the optimum."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, n = int(rng.integers(800, 1100)), int(rng.integers(3, 7))
        a = rng.integers(0, 2, (m, n)).astype(float)
        b = rng.integers(1, 8, m).astype(float)
        for row in np.flatnonzero(rng.random(m) < 0.25):
            j, k = rng.choice(n, 2, replace=False)
            a[row] = 0.0
            a[row, j], a[row, k], b[row] = 1.0, -1.0, 0.0
        yield a.tolist(), b.tolist(), rng.integers(1, 3, n).astype(float).tolist()


def test_simplex_matches_dense_tableau_on_wide_tied_lps(monkeypatch):
    pruned = _pruning(monkeypatch)
    for a, b, c in _wide_lps(5, 12):
        assert _solve(_pivot_max_lp, a, b, c) == _solve(_dense_simplex_max, a, b, c)
    assert any(kept < n for n, kept, _ in pruned)


def test_simplex_scans_every_candidate_on_near_tie_chains(monkeypatch):
    # rhs 0.6 eps apart span 240 eps: no gap between neighbours is wide
    # enough to prune, though the chain is far wider than 2 eps.  Only the
    # ratio tests over the chain (each LP's first, whose ratios are the rhs)
    # must keep every candidate; later ones hold other ratios, which a
    # smaller PRUNE_CANDIDATES may rightly prune
    chains = []
    survivors = cutflow._ratio_survivors

    def recording(candidates, ratios, eps):
        kept = survivors(candidates, ratios, eps)
        steps = np.diff(np.sort(ratios))
        if steps.max() < eps and steps.sum() > 2 * eps:
            chains.append((candidates.size, kept[0].size))
        return kept

    monkeypatch.setattr(cutflow, "_ratio_survivors", recording)
    rng = np.random.default_rng(8)
    m = 400
    for _ in range(6):
        b = (1.0 + 0.6e-12 * rng.permutation(m)).tolist()
        a = np.ones((m, 3))
        a[:, 1:] = rng.integers(0, 2, (m, 2))
        a, c = a.tolist(), [1.0, 2.0, 1.0]
        assert _solve(_pivot_max_lp, a, b, c) == _solve(_dense_simplex_max, a, b, c)
    assert len(chains) >= 6 and all(kept == n for n, kept in chains)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@np.errstate(invalid="ignore")
def test_simplex_matches_dense_tableau_with_non_finite_rhs(monkeypatch, bad):
    pruned = _pruning(monkeypatch)
    for k, (a, b, c) in enumerate(_wide_lps(6, 6)):
        b[k * 7 % len(b)] = bad
        assert _solve(_pivot_max_lp, a, b, c) == _solve(_dense_simplex_max, a, b, c)
    if bad > 0:
        # an infinite ratio makes the prune's gap threshold infinite: a ratio
        # test with the bad rhs among its candidates scans them all
        assert any(not finite for _, _, finite in pruned)
        assert all(kept == n for n, kept, finite in pruned if not finite)
    elif bad != bad:
        # a NaN ratio, which the scan never takes, does not stop the prune
        assert any(kept < n for n, kept, finite in pruned if not finite)


def test_simplex_matches_dense_tableau_with_large_rhs(monkeypatch):
    # near 1e5 one ulp is 1.5e-11, above eps: ratios a few ulps apart
    pruned = _pruning(monkeypatch)
    rng = np.random.default_rng(9)
    ulp = math.ulp(1e5)
    for a, b, c in _wide_lps(7, 8):
        b = (1e5 + ulp * rng.integers(0, 40, len(b)) * (rng.random(len(b)) > 0.5)).tolist()
        assert _solve(_pivot_max_lp, a, b, c) == _solve(_dense_simplex_max, a, b, c)
    assert any(kept < n for n, kept, _ in pruned)


def _bland_scan(candidates, ratios, basis, eps):
    """The row ``_pivot_max``'s Bland ratio scan takes, its loop kept
    verbatim."""
    leave = -1
    best_ratio = math.inf
    for i, ratio in zip(candidates.tolist(), ratios.tolist()):
        if ratio < best_ratio - eps or (
            abs(ratio - best_ratio) <= eps
            and (leave < 0 or basis[i] < basis[leave])
        ):
            best_ratio = ratio
            leave = i
    return leave


@st.composite
def _ratio_tests(draw):
    """A ratio test as the prune sees it, at a scale up to 1e5: exact ties on
    a few levels, or a chain down from the largest ratio whose gaps sit just
    under, at and just over the prune's threshold ``w``, or a fraction of an
    ulp above ``eps``, where ``fl(h - eps)`` may round down to ``h``'s lower
    neighbour, or at ``2 * eps + 4 * ulp``, a wider threshold than the
    proof needs; plus, sometimes, NaN, +-inf, -0.0 or arbitrary floats.  The
    candidate rows are ascending, and the basis gives each row a distinct
    variable, in row order or shuffled."""
    eps = 1e-12
    top = draw(st.sampled_from([1.0, 3.0, 37.5, 1e3, 1e5, 1.3e5]))
    width = eps + 4.0 * math.ulp(top)
    values = [top]
    if draw(st.booleans()):
        levels = draw(st.lists(st.floats(0.0, top), min_size=1, max_size=6))
        values += draw(st.lists(st.sampled_from(levels), min_size=1, max_size=300))
    else:
        gaps = st.one_of(
            st.sampled_from([0.25, 0.5, 0.999, 1.0, 1.001, 1.5, 3.0]).map(lambda f: f * width),
            st.sampled_from([0.4, 1.0, 2.0]).map(lambda k: eps + k * math.ulp(top)),
            st.just(2.0 * eps + 4.0 * math.ulp(top)),
        )
        for gap in draw(st.lists(gaps, min_size=1, max_size=300)):
            values.append(values[-1] - gap)
    values += draw(
        st.lists(
            st.one_of(
                st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=draw(st.sampled_from([0, 0, 3])),
        )
    )
    ratios = np.array(draw(st.permutations(values)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = 4 * len(values)
    candidates = np.sort(rng.choice(rows, len(values), replace=False))
    basis = rng.permutation(rows) if draw(st.booleans()) else np.arange(rows)
    return candidates, ratios, basis.tolist()


def _edge_ratio_test(*ratios):
    """A ratio test over the given ratios on every other row, the basis in
    row order."""
    return 2 * np.arange(len(ratios)), np.array(ratios), list(range(2 * len(ratios)))


# in [2, 4) every ratio has one ulp, so the prune's bound above 2.5 is
# fl(2.5 + _EDGE_WIDE) whichever of them is the largest
_EDGE_WIDE = 1e-12 + 4.0 * math.ulp(3.5)


@settings(max_examples=400, deadline=None)
@given(_ratio_tests())
@example(_edge_ratio_test(3.5, 2.5 + _EDGE_WIDE, 2.5)).via("a ratio at the bound")
@example(_edge_ratio_test(3.5, math.nextafter(2.5 + _EDGE_WIDE, math.inf), 2.5)).via(
    "a ratio an ulp above the bound"
)
@example(_edge_ratio_test(3.5, math.nan, 2.5 + 0.5e-12, 2.5)).via("a NaN among finite ratios")
@np.errstate(invalid="ignore", over="ignore")
def test_ratio_prune_keeps_the_row_the_bland_scan_picks(ratio_test):
    candidates, ratios, basis = ratio_test
    pruned = cutflow._ratio_survivors(candidates, ratios, 1e-12)
    assert _bland_scan(*pruned, basis, 1e-12) == _bland_scan(candidates, ratios, basis, 1e-12)


@pytest.mark.parametrize(
    "high, kept",
    [
        (2.5 + _EDGE_WIDE, True),
        (math.nextafter(2.5 + _EDGE_WIDE, math.inf), False),
        # within 2 * eps + 4 * ulp, a wider threshold that would keep them
        (2.5 + 1.5e-12, False),
        (2.5 + 2.0 * 1e-12 + 4.0 * math.ulp(3.5), False),
    ],
)
def test_ratio_prune_threshold_is_eps_plus_four_ulps(high, kept):
    # a high ratio is dropped once it lies more than eps + 4 ulp(M) above
    # the low ones, and the scan still takes the low row
    candidates, ratios, basis = _edge_ratio_test(3.5, high, 2.5)
    pruned = cutflow._ratio_survivors(candidates, ratios, 1e-12)
    want = [2.5, high] if kept else [2.5]
    assert sorted(pruned[1].tolist()) == want
    assert _bland_scan(*pruned, basis, 1e-12) == _bland_scan(candidates, ratios, basis, 1e-12) == 4



def test_intersection_refuses_flows_off_the_target():
    # two polymatroids of optimum 1e16 at target 1: the excess 1e16 - 1
    # rounds to 1e16 and the greedy cut would zero every coordinate
    for big, want in ((1e15, [1.0, 0.0]), (1e16, None)):
        values = (0.0, big, big, big)
        r_src, r_snk = BoundaryFunction("source", 2, values), BoundaryFunction("sink", 2, values)
        assert r_src.check_polymatroid() == r_snk.check_polymatroid() == (True, None)
        if want is None:
            with pytest.raises(
                NumericalFailure, match="split-layer flows sum to 0.0, not the target 1.0"
            ):
                polymatroid_intersect(r_src, r_snk, 1.0)
        else:
            assert polymatroid_intersect(r_src, r_snk, 1.0) == want


def test_intersection_of_huge_polymatroids_does_not_warn():
    values = (0.0, 1e308, 1e308, 1e308)
    r_src, r_snk = BoundaryFunction("source", 2, values), BoundaryFunction("sink", 2, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert polymatroid_intersect(r_src, r_snk, 1e308) == [1e308, 0.0]
        with pytest.raises(NumericalFailure, match="flows sum to 0.0"):
            polymatroid_intersect(r_src, r_snk, 1.0)


def test_membership_block_is_built_once_per_width_and_left_unchanged():
    block = cutflow._membership_block(6)
    before = block.copy()
    assert not block.flags.writeable
    for seed in (1, 2):
        net = _seeded_network(seed, (1, 6, 1), "additive")
        value, _ = min_cut(net)
        upper, _ = subnetwork(net, 1, 2)
        lower, _ = subnetwork(net, 2, 3)
        r_src = boundary_function(upper, "source", [value])
        r_snk = boundary_function(lower, "sink", [value])
        assert sum(polymatroid_intersect(r_src, r_snk, value)) == pytest.approx(value)
        assert cutflow._membership_block(6) is block
        assert block.tobytes() == before.tobytes()
    assert block.dtype == np.int8
    # column j of mask k + 1 sits in rows 2k and 2k + 1; the objective is -1
    assert block[:, -1].tolist() == [-1] * 6
    assert block[2, 2 * (0b100 - 1)] == block[2, 2 * (0b100 - 1) + 1] == 1
    assert block[2, 2 * (0b011 - 1)] == 0


def test_widest_membership_block_holds_the_stated_bytes():
    # m * 2^(m + 1) - m bytes: 2,097,136 at the widest split of 16 nodes
    m = capacity.LAYER_GUARD
    tracemalloc.start()
    try:
        block = cutflow._membership_block.__wrapped__(m)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.nbytes == m * 2 ** (m + 1) - m == 2_097_136
    assert retained < 2_097_136 + 4096


def test_simplex_error_paths():
    with pytest.raises(NumericalFailure, match="simplex requires nonnegative right-hand sides"):
        _pivot_max_lp([[1.0]], [-1.0], [1.0])
    with pytest.raises(NumericalFailure, match="linear program is unbounded"):
        _pivot_max_lp([[-1.0, 1.0]], [1.0], [1.0, 0.0])


def test_intersect_stores_no_dense_tableau():
    m = 10
    net = build_network(
        [1, m, 1],
        [
            AdditiveOracle([[1.0 + i for i in range(m)]]),
            AdditiveOracle([[2.0 + (i % 3)] for i in range(m)]),
        ],
    )
    value, _ = min_cut(net)
    upper, _ = subnetwork(net, 1, 2)
    lower, _ = subnetwork(net, 2, 3)
    r_src = boundary_function(upper, "source", [value])
    r_snk = boundary_function(lower, "sink", [value])
    rows = 2 * ((1 << m) - 1)
    dense_bytes = (rows + 1) * (m + rows + 1) * 8
    tracemalloc.start()
    try:
        flows = polymatroid_intersect(r_src, r_snk, value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(flows) == pytest.approx(value)
    assert peak < dense_bytes / 8


# --- max flow -------------------------------------------------------------------


def test_line_max_flow():
    flow = max_flow(line_net())
    assert flow.at(S) == 2.0
    assert flow.at(A) == 2.0
    assert flow.at(NodeId(3, 1)) == 2.0


def test_diamond_max_flow():
    flow = max_flow(diamond_net())
    assert flow.at(S) == 2.0
    assert flow.at(A) == pytest.approx(1.0)
    assert flow.at(B) == pytest.approx(1.0)
    assert flow.at(D3) == 2.0


def test_max_flow_split_override_agrees():
    net = build_network(
        [1, 2, 2, 1],
        [
            AdditiveOracle([[1.0, 2.0]]),
            AdditiveOracle([[1.5, 0.5], [0.25, 1.0]]),
            AdditiveOracle([[2.0], [1.0]]),
        ],
    )
    for split in (2, 3):
        flow = max_flow(net, split_layer=split)
        value, _ = min_cut(net)
        assert flow.total(net.layer_nodes(1)) == pytest.approx(value)
        assert verify_flow(net, flow).passed


def test_max_flow_requires_boundary_on_multi_source():
    net = build_network([2, 1], [AdditiveOracle([[1.0], [1.0]])])
    with pytest.raises(InfeasibleBoundary):
        max_flow(net)


def test_max_flow_with_boundary_flows():
    net = build_network([2, 1, 1], [AdditiveOracle([[2.0], [2.0]]), AdditiveOracle([[4.0]])])
    bound = {NodeId(1, 1): 1.0, NodeId(1, 2): 2.0, NodeId(3, 1): 3.0}
    flow = max_flow(net, bound)
    assert flow.at(NodeId(2, 1)) == pytest.approx(3.0)
    assert verify_flow(net, flow).passed
    assert brute_max_flow(net, bound) == pytest.approx(3.0)


def test_max_flow_infeasible_boundary_rejected():
    net = build_network([2, 1, 1], [AdditiveOracle([[2.0], [2.0]]), AdditiveOracle([[4.0]])])
    with pytest.raises(InfeasibleBoundary):
        max_flow(net, {NodeId(1, 1): 5.0, NodeId(1, 2): 0.0, NodeId(3, 1): 5.0})
    with pytest.raises(InfeasibleBoundary):
        max_flow(net, {NodeId(1, 1): 1.0, NodeId(1, 2): 0.0, NodeId(3, 1): 2.0})


def test_max_flow_bad_split_rejected():
    with pytest.raises(BadRange):
        max_flow(line_net(), split_layer=1)


@pytest.mark.parametrize("split", [1, 4, 0])
def test_max_flow_bad_split_rejected_before_any_cell(oracle_calls, split):
    net = build_network(
        [1, 2, 2, 1],
        [
            AdditiveOracle([[1.0, 2.0]]),
            AdditiveOracle([[1.0, 0.5], [0.25, 1.5]]),
            AdditiveOracle([[2.0], [1.0]]),
        ],
    )
    with pytest.raises(BadRange):
        max_flow(net, split_layer=split)
    with pytest.raises(BadRange):
        max_flow(net, {NodeId(1, 1): 1.0, NodeId(4, 1): 1.0}, split_layer=split)
    assert oracle_calls == []


def test_max_flow_multi_destination_boundary():
    net = build_network(
        [1, 2, 2],
        [AdditiveOracle([[2.0, 2.0]]), AdditiveOracle([[1.0, 0.5], [0.25, 1.5]])],
    )
    bound = {
        NodeId(1, 1): 2.0,
        NodeId(3, 1): 0.9,
        NodeId(3, 2): 1.1,
    }
    flow = max_flow(net, bound)
    assert verify_flow(net, flow).passed
    assert flow.total(net.layer_nodes(2)) == pytest.approx(2.0)
    assert brute_max_flow(net, bound) == pytest.approx(2.0)


def test_destination_flows_feasible_iff_supernode_cut_allows():
    from itertools import product as iproduct

    from relayflow import attach_supernode

    net = build_network(
        [1, 2, 2],
        [AdditiveOracle([[2.0, 2.0]]), AdditiveOracle([[1.0, 0.5], [0.25, 1.5]])],
    )
    grid = [0.0, 0.6, 1.3, 2.0]
    for d1, d2 in iproduct(grid, grid):
        ext = attach_supernode(net, "after_destinations", [d1, d2])
        ext_cut, _ = min_cut(ext)
        feasible_by_cut = d1 + d2 <= ext_cut + 1e-9
        bound = {NodeId(1, 1): d1 + d2, NodeId(3, 1): d1, NodeId(3, 2): d2}
        try:
            flow = max_flow(net, bound)
            constructed = verify_flow(net, flow).passed
        except InfeasibleBoundary:
            constructed = False
        assert constructed == feasible_by_cut, (d1, d2, ext_cut)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 8.0))
def test_max_flow_scales_with_capacities(alpha):
    base = [[1.0, 2.0]], [[2.0], [1.0]]
    scaled = build_network(
        [1, 2, 1],
        [
            AdditiveOracle([[alpha * c for c in row] for row in base[0]]),
            AdditiveOracle([[alpha * c for c in row] for row in base[1]]),
        ],
    )
    flow = max_flow(scaled)
    assert flow.at(S) == pytest.approx(2.0 * alpha, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(0.0, 4.0), min_size=2, max_size=2),
    st.lists(st.floats(0.0, 4.0), min_size=2, max_size=2),
)
def test_duality_on_random_diamonds(first, second):
    net = build_network(
        [1, 2, 1],
        [AdditiveOracle([first]), AdditiveOracle([[c] for c in second])],
    )
    value, _ = min_cut(net)
    flow = max_flow(net)
    assert flow.at(S) == pytest.approx(value, rel=1e-9, abs=1e-9)
    assert brute_max_flow(net) == pytest.approx(value, rel=1e-6, abs=1e-6)
    assert verify_flow(net, flow).worst_excess <= 1e-6


# --- references past the brute-force cap -----------------------------------------


def _edge_graph(net):
    """The layered edge graph of an additive network: one arc per link,
    with the link's capacity."""
    graph = nx.DiGraph()
    for l, oracle in enumerate(net.oracles, start=1):
        for i, row in enumerate(oracle.matrix.tolist(), start=1):
            for j, cap in enumerate(row, start=1):
                graph.add_edge(NodeId(l, i), NodeId(l + 1, j), capacity=cap)
    return graph


@pytest.mark.parametrize(
    "seed,shape",
    enumerate([(1, 10, 1), (1, 13, 1), (1, 16, 1), (1, 12, 3, 1), (1, 2, 14, 1), (1, 11, 2, 10, 1)]),
)
def test_min_cut_matches_networkx_on_wide_additive_networks(seed, shape):
    net = _seeded_network(40 + seed, shape, "additive")
    value, cut = min_cut(net)
    nx_value, (source_side, _) = nx.minimum_cut(_edge_graph(net), net.source, net.destination)
    assert value == pytest.approx(nx_value, rel=1e-12)
    # networkx's cut is a minimum too, and relayflow prices it the same
    assert cut_value(net, source_side) == pytest.approx(value, rel=1e-12)
    assert cut.value == value


_FLOW_SHAPES = [(1, 2, 1), (1, 5, 1), (1, 9, 1), (1, 10, 1), (1, 3, 4, 1), (1, 2, 9, 2, 1)]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["additive", "rank_gf2", "gaussian", "discrete"]),
    st.sampled_from(_FLOW_SHAPES),
    st.integers(0, 2**32 - 1),
)
@example("additive", (1, 10, 1), 1).via("split layer above PRUNE_CANDIDATES")
@example("rank_gf2", (1, 2, 9, 2, 1), 2).via("split layer above PRUNE_CANDIDATES")
@example("gaussian", (1, 10, 1), 3).via("split layer above PRUNE_CANDIDATES")
@example("discrete", (1, 2, 9, 2, 1), 4).via("split layer above PRUNE_CANDIDATES")
def test_max_flow_verifies_and_meets_min_cut_on_seeded_networks(family, shape, seed):
    net = _seeded_network(seed, shape, family)
    value, _ = min_cut(net)
    flow = max_flow(net)
    assert verify_flow(net, flow).passed
    assert flow.total(net.layer_nodes(1)) == value
    assert flow.total(net.layer_nodes(net.num_layers)) == value


# --- flow verification ----------------------------------------------------------


def test_verify_constructed_flow_passes_with_zero_slack():
    net = diamond_net()
    report = verify_flow(net, max_flow(net))
    assert report.passed
    assert report.worst_excess == pytest.approx(0.0, abs=1e-9)


def test_verify_rejects_overloaded_node():
    from relayflow import Flow

    net = diamond_net()
    bad = Flow({S: 2.0, A: 2.0, B: 0.0, D3: 2.0})
    report = verify_flow(net, bad)
    assert not report.passed
    assert any(
        v["layer"] == 1 and v["U"] == (1,) and v["V"] == (1,) for v in report.violations
    )


def test_verify_flow_describes_violations_only_when_read(monkeypatch):
    calls = []
    original = cutflow._mask_indices

    def counting(mask):
        calls.append(mask)
        return original(mask)

    monkeypatch.setattr(cutflow, "_mask_indices", counting)
    net = diamond_net()
    report = verify_flow(net, Flow({S: 2.0, A: 2.0, B: 0.0, D3: 2.0}))
    assert not report.passed and calls == []
    violations = report.violations
    # one call for U and one for V per violation, and none on a second read
    assert len(calls) == 2 * len(violations) > 0
    assert report.violations is violations and len(calls) == 2 * len(violations)


def test_failing_flow_checks_compare_equal_and_print_without_violations():
    net = diamond_net()
    bad = Flow({S: 2.0, A: 2.0, B: 0.0, D3: 2.0})
    first, again = verify_flow(net, bad), verify_flow(net, bad)
    assert first == again and repr(first) == repr(again)
    assert first.violations and first == again
    assert repr(first) == (
        f"FlowCheck(passed=False, worst_excess={first.worst_excess!r}, "
        f"conservation_gap={first.conservation_gap!r}, n_constraints={first.n_constraints})"
    )


def test_zero_flow_always_passes():
    from relayflow import Flow

    net = diamond_net()
    zero = Flow({n: 0.0 for n in net.nodes()})
    assert verify_flow(net, zero).passed


def _reference_verify(net, flow, tol=1e-9):
    """Today's flow check spelled out cell by cell, as
    ``(worst_excess, n_constraints, violations)``."""
    worst, n, violations = -float("inf"), 0, []
    for l in range(1, net.num_layers):
        m_in, m_out = net.layer_sizes[l - 1], net.layer_sizes[l]
        for u in range(1 << m_in):
            for v in range(1 << m_out):
                outside = [i for i in range(1, m_in + 1) if not u >> (i - 1) & 1]
                inside = [i for i in range(1, m_out + 1) if v >> (i - 1) & 1]
                lhs = sum(flow.at(NodeId(l + 1, i)) for i in inside) - sum(
                    flow.at(NodeId(l, i)) for i in outside
                )
                rhs = net.oracles[l - 1].value_masks(u, v)
                n += 1
                if lhs - rhs > worst:
                    worst = lhs - rhs
                if not lhs <= rhs + tol * max(1.0, abs(lhs), abs(rhs)):
                    violations.append(
                        {
                            "layer": l,
                            "U": tuple(i for i in range(1, m_in + 1) if i not in outside),
                            "V": tuple(inside),
                            "lhs": lhs,
                            "rhs": rhs,
                            "excess": lhs - rhs,
                        }
                    )
    return worst, n, violations


def test_verify_flow_matches_cell_by_cell_reference():
    from relayflow import Flow, GaussianLayerModel, network_from_models

    n_violated = 0
    for family in ("additive", "rank_gf2", "gaussian", "discrete"):
        for seed, shape in enumerate([(1, 2, 1), (1, 2, 2, 1), (1, 3, 2, 1)], start=1):
            inst = random_instance(InstanceSpec(seed, shape, {family: 1.0}))
            nets = [inst.network]
            if family == "gaussian":
                loud = [GaussianLayerModel(m.h * 1000.0) for m in inst.models]
                nets.append(network_from_models(loud))
            for net in nets:
                flow = max_flow(net)
                raised = dict(flow.values)
                raised[NodeId(2, 1)] += 0.5
                for f in (flow, Flow(raised)):
                    report = verify_flow(net, f)
                    got = (report.worst_excess, report.n_constraints, report.violations)
                    # repr tells apart every float, -0.0 from 0.0 included
                    assert repr(got) == repr(_reference_verify(net, f))
                    n_violated += bool(report.violations)
    assert n_violated
