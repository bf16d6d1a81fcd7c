"""Compression-rate planning for compress-and-forward relaying with
layer-by-layer backward decoding.

Backward decoding recovers each relay layer's compression indices before
moving one layer closer to the source, paying a per-layer rate penalty
relative to joint decoding.  The penalty recursion runs backward from the
last relay layer:

    penalty[last] = 0
    penalty[l]    = leak(layer pair l) + penalty[l+1] * (size of layer l+1)

where the leak is the rate spent describing quantization noise.  Given a
max node-flow ``f``, the planned compression rate of a relay in layer ``l``
is ``f(v) - penalty[l]`` and the end-to-end rate is
``f(source) - penalty[1]``.

The three checkers evaluate feasibility regions directly: the layered
(backward) decoding region, the joint decoding region, and the multi-source
single-destination region with its per-source penalty.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .capacity import (
    JOINT_GUARD_RELAYS,
    MAX_JOINT_CELLS,
    TABLE_GUARD_BITS,
    DiscreteLayerModel,
    GaussianLogDetOracle,
    LayerModel,
    _blocks,
    _entropies,
    _entropy,
    _logdet_mi_stack,
    _mask_indices,
    _require_rates,
    _size_chunks,
    _subset_index,
    _subset_sums,
)
from .cutflow import (
    _backward_tables,
    _cost,
    _cut_dp,
    _first_minimizer,
    _scan_constraints,
    _values_at,
    max_flow,
)
from .errors import (
    DimensionMismatch,
    InputError,
    NumericalFailure,
    TooLarge,
    UnsupportedModel,
)
from .netgraph import Cut, Flow, LayeredNetwork, NodeId, attach_supernode, build_network


@dataclass(frozen=True)
class RatePlan:
    """An end-to-end rate, per-relay compression rates, and the per-layer
    penalties they were derived from.

    ``flags`` lists entries clamped to zero because the flow at a node fell
    below its layer penalty; such plans are outside the planner's
    feasibility guarantees.  Every rate must be finite (``InputError``)
    and nonnegative (``NegativeRate``).
    """

    rate: float
    compression: dict[NodeId, float]
    penalties: tuple[float, ...]
    flags: tuple[str, ...]
    flow: Flow

    def __post_init__(self):
        _require_rates([self.rate, *self.compression.values()], "rates")


@dataclass
class FeasibilityReport:
    """Outcome of a region check: the smallest margin (rhs minus lhs over
    all constraints) and the constraint attaining it.

    ``violations`` is described on first read and then cached.  Until then
    the report keeps, per family or layer pair with failing constraints,
    the four arrays ``(u, v, lhs, rhs)`` of ``_scan_constraints`` (32 bytes
    per failing constraint) and the function naming a cell's constraint
    from its ``(u, v)``; the joint check's closes over the network and its
    two relay-mask arrays (16 bytes per constraint), and keeps one key list
    per (side, mask) it has described.  Equality and ``repr`` leave them
    out."""

    passed: bool
    margin: float
    binding: dict
    n_constraints: int
    _failing: list = field(default_factory=list, compare=False, repr=False)

    @functools.cached_property
    def violations(self) -> list[dict]:
        return [
            dict(describe(u, v), lhs=lhs, rhs=rhs, margin=rhs - lhs)
            for (us, vs, lhs_, rhs_), describe in self._failing
            for u, v, lhs, rhs in zip(us.tolist(), vs.tolist(), lhs_.tolist(), rhs_.tolist())
        ]


@dataclass
class MultiSourceReport:
    passed: bool
    margin: float
    binding: Cut
    supernode_margin: float
    n_constraints: int


def network_from_models(models: Sequence[LayerModel]) -> LayeredNetwork:
    """Assemble the network whose capacities are derived from the models.

    Raises:
        DimensionMismatch: no models, or adjacent models that disagree on
            the size of the layer they share.
        UnsupportedModel: an entry that is not a :class:`LayerModel`
            (``None`` or a plain oracle), naming its layer pair.
    """
    if not models:
        raise DimensionMismatch("need at least one layer model")
    _require_layer_models(models)
    sizes = [models[0].dims[0]]
    for model in models:
        if model.dims[0] != sizes[-1]:
            raise DimensionMismatch("adjacent layer models disagree on layer size")
        sizes.append(model.dims[1])
    return build_network(sizes, [m.oracle() for m in models])


def _require_layer_models(models: Sequence[LayerModel]) -> None:
    """Refuse an entry that is not a :class:`LayerModel`, naming its layer pair."""
    for l, model in enumerate(models, start=1):
        if not isinstance(model, LayerModel):
            raise UnsupportedModel(f"layer pair {l}: {type(model).__name__} is not a layer model")


def _check_models(net: LayeredNetwork, models: Sequence[LayerModel]) -> None:
    """Refuse models that do not fit ``net``, before any table or flow is
    built: a count other than one per layer pair or a model whose dims
    differ from its layer pair's (``DimensionMismatch``), or an entry that
    is not a :class:`LayerModel`, such as ``None`` or a plain oracle
    (``UnsupportedModel``, naming the layer pair)."""
    if len(models) != net.num_layers - 1:
        raise DimensionMismatch(
            f"{net.num_layers} layers need {net.num_layers - 1} models"
        )
    _require_layer_models(models)
    for l, model in enumerate(models, start=1):
        expected = (net.layer_sizes[l - 1], net.layer_sizes[l])
        if model.dims != expected:
            raise DimensionMismatch(f"model {l} has dims {model.dims}, expected {expected}")


def penalty_recursion(
    net: LayeredNetwork,
    models: Sequence[LayerModel] | None = None,
    *,
    leaks: Sequence[float] | None = None,
) -> list[float]:
    """Backward penalty recursion; entry ``l-1`` is the penalty of layer ``l``.

    Leaks come from the layer models, or may be supplied directly as one
    finite, nonnegative value per layer pair (the last pair's leak never
    enters: the final penalty is pinned at zero).

    Raises:
        UnsupportedModel: neither models nor leaks, or a model entry that is
            not a :class:`LayerModel` (named by its layer pair).
        DimensionMismatch: models or leaks that do not fit the layer pairs.
        InputError: a leak that is not a real number, NaN or infinite.
        NegativeRate: a negative leak.
    """
    L = net.num_layers
    if leaks is None:
        if models is None:
            raise UnsupportedModel("penalty recursion needs layer models or explicit leaks")
        _check_models(net, models)
        leaks = [model.leak() for model in models]
    elif len(leaks) != L - 1:
        raise DimensionMismatch(f"need {L - 1} leak values")
    else:
        _require_rates(leaks, "leaks")
    penalties = [0.0] * (L - 1)
    for l in range(L - 2, 0, -1):
        penalties[l - 1] = float(leaks[l - 1]) + penalties[l] * net.layer_sizes[l]
    return penalties


def plan_rates(net: LayeredNetwork, models: Sequence[LayerModel]) -> RatePlan:
    """Plan compression rates from a max node-flow.

    Computes the flow, subtracts each layer's penalty, and clamps (and
    flags) any entry that would go negative.

    Raises:
        InputError: a network with more than one source or destination,
            before any leak, table or flow.
        DimensionMismatch, UnsupportedModel: models that do not fit the
            network (see ``penalty_recursion``), before any flow is built.
    """
    if not net.is_unicast:
        raise InputError("rate planning is defined for unicast networks")
    penalties = penalty_recursion(net, models)
    flow = max_flow(net)
    flags: list[str] = []

    rate = flow.at(net.source) - penalties[0]
    if rate < 0:
        flags.append("negative_rate:R")
        rate = 0.0
    compression: dict[NodeId, float] = {}
    for node in net.relays:
        r = flow.at(node) - penalties[node.layer - 1]
        if r < 0:
            flags.append(f"negative_rate:{node.key()}")
            r = 0.0
        compression[node] = r
    return RatePlan(rate, compression, tuple(penalties), tuple(flags), flow)


def _relay_rates(
    compression: Mapping[NodeId, float], net: LayeredNetwork
) -> dict[int, list[float]]:
    """Each relay layer's compression rates, keyed by layer; a relay missing
    from ``compression`` is refused by name, and so, after that, is the
    first key that is not a relay of ``net``."""
    rates = {
        l: _values_at(compression, net.layer_nodes(l), "compression rate")
        for l in range(2, net.num_layers)
    }
    if len(compression) > len(net.relays):  # every relay is a key, so one key is not
        relays = set(net.relays)
        stray = next(key for key in compression if key not in relays)
        name = stray.key() if isinstance(stray, NodeId) else repr(stray)
        raise InputError(f"compression rate given for {name}, which is not a relay")
    return rates


def _undecoded_terms(sums: np.ndarray, model: LayerModel) -> tuple[np.ndarray, np.ndarray]:
    """Negated compression total and leak of a layer model's receivers left
    undecoded, given their compression ``sums``, indexed by the decoded mask
    ``V`` (undecoded is the complement of ``V``)."""
    return np.negative(sums[::-1]), np.negative(model.leak_column()[::-1])


def _region_report(checks) -> FeasibilityReport:
    """The report of ``(scan, describe)`` pairs, each a ``_scan_constraints``
    result and a function naming a cell's constraint from its ``(u, v)``: the
    binding constraint is the first with the smallest margin ``rhs - lhs``.
    The report keeps the failing cells' arrays with their ``describe``, in
    order, and ``passed`` needs none of them; ``violations`` describes them
    when first read.  A smallest margin that is not a finite number raises
    ``NumericalFailure``, and so, after it, does the first constraint whose
    margin is NaN."""
    margin, binding, n_constraints, failing = math.inf, {}, 0, []
    first_nan = None
    for (n, first, nan, failed), describe in checks:
        n_constraints += n
        if first is not None and first[3] - first[2] < margin:
            u, v, lhs, rhs = first
            margin, binding = rhs - lhs, dict(describe(u, v), lhs=lhs, rhs=rhs)
        if first_nan is None and nan is not None:
            first_nan = nan, describe
        if failed[0].size:
            failing.append((failed, describe))
    if not math.isfinite(margin):
        # rates or capacities whose sums overflow, or no constraint with a margin
        raise NumericalFailure(f"region margin is {margin}, not a finite number")
    if first_nan is not None:
        # NaN capacities or information, or infinite ones against infinite rates
        (u, v, lhs, rhs), describe = first_nan
        raise NumericalFailure(
            f"region margin at {describe(u, v)} is nan (lhs {lhs}, rhs {rhs})"
        )
    return FeasibilityReport(not failing, margin, binding, n_constraints, failing)


def check_layered_feasible(
    net: LayeredNetwork,
    models: Sequence[LayerModel],
    plan: RatePlan,
    tol: float = 1e-9,
) -> FeasibilityReport:
    """Check a plan against the layered (backward) decoding region.

    Three constraint families, all enumerated exhaustively:

    1. every subset of the last relay layer must fit the information its
       transmitters convey to the destination's raw received signal;
    2. for each interior layer pair, compression totals in must fit the
       pair capacity less the leak of the compression left undecoded;
    3. the source family: the end-to-end rate against the first layer pair.

    Identically-zero rows (both sides empty) are skipped.  Every family is
    a whole-table pass: family 1 over the last model's cached
    ``mi_received_column``, families 2 and 3 over the pair's capacity table
    and the model's cached ``leak_column``.

    The binding constraint is the first one with the smallest margin in
    (family, layer, U mask, V mask) order; violations are listed in the
    same order.

    Raises:
        DimensionMismatch, UnsupportedModel: models that do not fit the
            network (see ``_check_models``), before any table.
        RateCountMismatch, InputError: a relay missing from the plan's
            compression, or a key of it that is not a relay, before any
            table.
        NumericalFailure: the smallest margin is not a finite number, or
            else some constraint's margin is NaN (the first is named).
    """
    if not net.is_unicast:
        raise InputError("layered feasibility is defined for unicast networks")
    _check_models(net, models)
    L = net.num_layers
    # sums[l][mask]: compression total of relay layer l's relays in mask
    sums = {l: _subset_sums(r) for l, r in _relay_rates(plan.compression, net).items()}
    checks = []

    # family 1: last layer pair, against the raw received signal; row
    # ``umask - 1`` holds transmit set ``umask`` (adding -0.0 changes no float)
    received = models[L - 2].mi_received_column()[1:, None]
    sent = [plan.rate] * len(received) if L == 2 else sums[L - 1][1:]
    checks.append((
        _scan_constraints(received, sent, [-0.0], tol),
        lambda u, v: {"family": "last_layer", "layer": L - 1, "U": _mask_indices(u + 1)},
    ))

    # family 2: interior layer pairs
    for l in range(2, L - 1):
        undecoded, leaks = _undecoded_terms(sums[l + 1], models[l - 1])
        checks.append((
            _scan_constraints(
                net.oracles[l - 1].table(),
                sums[l],
                undecoded,
                tol,
                rhs_col=leaks,
                skip_corner=True,
            ),
            lambda u, v, l=l: {
                "family": "relay",
                "layer": l,
                "U": _mask_indices(u),
                "V": _mask_indices(v),
            },
        ))

    # family 3: the source against the first layer pair (row 1: the source sends)
    if L >= 3:
        undecoded, leaks = _undecoded_terms(sums[2], models[0])
        checks.append((
            _scan_constraints(
                net.oracles[0].table()[1:2], [plan.rate], undecoded, tol, rhs_col=leaks
            ),
            lambda u, v: {"family": "source", "layer": 1, "V": _mask_indices(v)},
        ))
    return _region_report(checks)


# ---------------------------------------------------------------------------
# Joint-decoding region.
# ---------------------------------------------------------------------------


def check_joint_feasible(
    net: LayeredNetwork,
    models: Sequence[LayerModel],
    rate: float,
    compression: Mapping[NodeId, float],
    tol: float = 1e-9,
) -> FeasibilityReport:
    """Check (rate, compression rates) against the joint-decoding region.

    Enumerates every pair of node sets (source side, decoded side) and
    requires the rate to fit the undecoded compression total plus the
    information the decoded set carries about the source side, less the
    quantization leak of everything undecoded.  The destination's quantized
    output is taken to be its raw received signal, which is never worse.

    The source side is the source plus a relay mask ``s``, the decoded side
    the destination plus a mask ``d`` of the other relays.  The pairs are
    two mask arrays, built once: ``s`` ascending, then ``d`` ascending.  The
    rhs is one array expression over the ``_subset_sums`` of compression and
    leak, and ``_scan_constraints`` checks it, as one row, against the rate.

    Supported model families: all-Gaussian (``_logdet_mi``'s float steps on
    one stacked receivers x senders channel matrix, noise 2 at relays and 1
    at the destination, one batched call per ``(|s|, |d|)`` group) and
    all-discrete (exact summation on a grid over every sender assignment:
    probabilities and receiver rows stacked once per check, the weighted
    output block batched once per decoded set, and one left fold over the
    summed senders per pair, in the order of a per-assignment loop; see
    ``_discrete_joint_mi``).
    Deterministic channels should be expressed as discrete models with 0/1
    conditionals.

    Raises:
        DimensionMismatch, UnsupportedModel: models that do not fit the
            network (see ``_check_models``), or that are not all Gaussian or
            all discrete, before any information is computed.
        InputError, NegativeRate: a rate or compression rate that is not a
            real number, NaN, infinite or negative, or a compression key
            that is not a relay, before any information is computed.
        TooLarge: above ``JOINT_GUARD_RELAYS`` relays, or a joint table over
            all senders and receivers above ``MAX_JOINT_CELLS`` (the message
            gives its cells and bytes), before any information is computed.
        NumericalFailure: the smallest margin is not a finite number, or
            else some constraint's margin is NaN (the first is named).
    """
    if not net.is_unicast:
        raise InputError("joint feasibility is defined for unicast networks")
    _check_models(net, models)
    _require_rates([rate, *compression.values()], "rates")
    relays = net.relays
    if len(relays) > JOINT_GUARD_RELAYS:
        raise TooLarge(f"joint region enumeration limited to {JOINT_GUARD_RELAYS} relays")

    gaussian = all(isinstance(m, GaussianLogDetOracle) for m in models)
    if not gaussian and not all(isinstance(m, DiscreteLayerModel) for m in models):
        raise UnsupportedModel(
            "joint region checker supports all-Gaussian or all-discrete models"
        )
    relay_rates = [r for rates in _relay_rates(compression, net).values() for r in rates]

    n = len(relays)
    # every disjoint (s, d): s ascending, then each submask d of the rest ascending
    masks = np.arange(1 << n)
    decoded = [masks[masks & s == 0] for s in masks]
    s, d = np.repeat(masks, [sub.size for sub in decoded]), np.concatenate(decoded)

    if gaussian:
        gains = np.zeros((n + 1, n + 1), dtype=complex)
        row = col = 0
        for l, model in enumerate(models, start=2):
            m_in, m_out = model.dims
            noise = 1.0 if l == net.num_layers else 2.0
            gains[row : row + m_out, col : col + m_in] = model.h / math.sqrt(noise)
            row, col = row + m_out, col + m_in
        senders, receivers = 1 | s << 1, d | 1 << n
        info = np.empty(s.size)
        index = _subset_index(n + 1)
        for i in _size_chunks(senders, receivers, index):
            rows, cols = index.positions_of(receivers[i]), index.positions_of(senders[i])
            info[i] = _logdet_mi_stack(_blocks(gains, rows, cols), noise=1.0)
    else:
        info = _discrete_joint_mi(net, models, s, d)

    leaks = [models[v.layer - 2].leak([v.index]) for v in relays]
    full = masks[-1]
    rhs = _subset_sums(relay_rates)[full & ~s & ~d] + info - _subset_sums(leaks)[full & ~d]
    scan = _scan_constraints(rhs[None], [rate], np.full(rhs.size, -0.0), tol)

    @functools.cache
    def keys(end: NodeId, mask: int) -> list[str]:
        # one list per (side, mask) and check; each record copies it
        return sorted([end.key()] + [v.key() for i, v in enumerate(relays) if mask >> i & 1])

    def describe(_, c: int) -> dict:
        omega, phi = int(s[c]), int(d[c])
        return {"omega": keys(net.source, omega)[:], "phi": keys(net.destination, phi)[:]}

    return _region_report([(scan, describe)])


def _discrete_joint_mi(
    net: LayeredNetwork,
    models: Sequence[DiscreteLayerModel],
    s: np.ndarray,
    d: np.ndarray,
) -> np.ndarray:
    """Exact conditional mutual information over the global joint pmf, for
    each pair ``(s[c], d[c])`` of relay-mask arrays: from the source and
    relay mask ``s[c]`` to relay mask ``d[c]`` and the destination.

    Transmit symbols are independent across nodes; given all of them, the
    receivers' quantized outputs are independent with per-receiver
    conditionals taken from the layer models (the destination's conditional
    is its raw channel).

    Works on a grid of every sender assignment in ``product`` order, with the
    float operations of a loop over the assignments of positive probability
    that adds each pair's weighted output rows into a dict keyed by the
    conditioned senders' symbols.  The assignments' probabilities and
    receiver rows are stacked once per check, and the row entropies of the
    positive assignments are computed once, one ``_entropies`` call per
    receiver.  Per decoded set the weighted output block of every
    assignment is one batched product; per pair
    ``_pair_information`` folds it left to right over the summed senders,
    one group per key, in key order (the dict's first-appearance order).  Zero-probability assignments
    stay in the grid as zero rows, which change no sum; a key that no
    positive assignment has adds a group of zeros, which adds ``-0.0`` to
    the joint entropy and a zero cell, dropped, to the conditioning one.

    Memory: ``cells`` is the number of sender assignments (``states``) times
    the number of joint outputs of all receivers.  At most three grid
    copies are live (the weighted block, its transposed copy and the fold,
    or two blocks while one is built): ``3 * cells * 8`` bytes, plus the
    stacked receiver rows, ``8 * states`` bytes per output symbol of each
    receiver.

    Raises:
        TooLarge: ``cells`` above ``MAX_JOINT_CELLS``, with the estimate,
            before any information is computed.
    """
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
    cells = states * math.prod(c.shape[-1] for c in conditionals)
    if cells > MAX_JOINT_CELLS:
        raise TooLarge(
            f"global joint table exceeds the cell cap: {cells:,} cells, "
            f"{8 * cells:,} bytes per grid copy, over {MAX_JOINT_CELLS:,} cells"
        )

    # per assignment: its probability (1.0 times each sender's pmf entry, in
    # sender order) and per receiver its conditional row; per positive
    # assignment the rows' entropies, one column per receiver
    p = functools.reduce(np.multiply.outer, pmfs, np.ones(())).ravel()
    positive = p > 0.0
    coords = np.unravel_index(np.arange(states), x_sizes)
    rows = [
        cond[tuple(coords[i] for i in positions)]
        for cond, positions in zip(conditionals, inputs)
    ]
    entropies = np.stack([_entropies(row[positive]) for row in rows], axis=1)

    info = np.empty(s.size)
    for value in np.unique(d):
        phi = [w - 1 for w in _mask_indices(int(value) | 1 << (len(receivers) - 1))]
        # 0.0 plus p * H(row) of each positive assignment, receivers ascending
        terms = (p[positive, None] * entropies[:, phi]).ravel()
        h_out_given_all = np.add.accumulate(np.concatenate(([0.0], terms)))[-1]
        # rebinding frees the last decoded set's grid before this one is built
        grid = np.ones((states, 1))
        for w in phi:
            grid = (grid[:, :, None] * rows[w][:, None, :]).reshape(states, -1)
        grid *= p[:, None]
        grid = grid.reshape(*x_sizes, -1)
        for c in np.flatnonzero(d == value):
            conditioned = [i for i in range(1, len(senders)) if not s[c] >> (i - 1) & 1]
            info[c] = _pair_information(grid, conditioned, h_out_given_all)
    return info


def _pair_information(
    grid: np.ndarray, conditioned: list[int], h_out_given_all: float
) -> float:
    """One pair's information from the weighted output grid (one axis per
    sender, then the outputs): the groups share the symbols of the
    ``conditioned`` senders, and each is the left fold of its rows in
    ``product`` order of the other senders.

    ``groups`` is C-contiguous, so ``groups.sum(axis=1)`` adds each group as
    its ``.sum()`` does.  The joint entropies stay one ``_entropy`` call per
    group.  ``sum(_entropies(groups).tolist())`` gives the same bits and
    made the regions workload about 30% faster in one paired run, but more
    ops per run raise the benchmark's ``peak_rss_mb``, which counts its own
    quantile arrays.  That one-line change waits for the reading to be
    fixed (ROADMAP item 1)."""
    summed = [i for i in range(grid.ndim - 1) if i not in conditioned]
    folded = grid.transpose(conditioned + summed + [grid.ndim - 1])
    n_groups = math.prod(folded.shape[: len(conditioned)])
    folded = folded.reshape(n_groups, -1, grid.shape[-1])
    groups = folded[:, 0].copy()
    for t in range(1, folded.shape[1]):
        groups += folded[:, t]
    h_joint = sum(_entropy(arr) for arr in groups)
    h_cond = _entropy(groups.sum(axis=1))
    return max(0.0, (h_joint - h_cond) - h_out_given_all)


# ---------------------------------------------------------------------------
# Multi-source region and the supernode reduction.
# ---------------------------------------------------------------------------


def check_multi_source(
    net: LayeredNetwork,
    models: Sequence[LayerModel],
    source_rates: Sequence[float],
    tol: float = 1e-9,
) -> MultiSourceReport:
    """Check a multi-source rate vector under layered decoding.

    Direct evaluation: for every node set excluding the destination, the
    rates of its sources (each penalized by the first-layer penalty) must
    fit the cut value.  The same region is evaluated a second way, by
    attaching a source-side supernode with the penalized rates and taking
    the unicast min-cut of the extended network; the two margins must
    agree.

    A node set's margin is ``value - rate_sums[s] - penalties[s]`` for its
    first-layer set ``s``: ``value`` is the right fold ``t_1 + (t_2 + (... +
    0.0))`` of its layer pairs' capacities, ``rate_sums[s]`` adds the rates
    of ``s`` in ascending order and ``penalties[s]`` is ``|s|`` times the
    penalty.  The min-plus kernel gives each ``s`` its cheapest fold over the
    later layers; both ``fl(c + x)`` and ``fl(x - c)`` are monotone in ``x``,
    so taking that minimum before the final subtractions gives the
    enumeration's margins exactly.  The binding cut is the first node set in
    ``product`` order of the per-layer ``_lex_masks`` orders with the
    smallest margin, which ``min_cut``'s reconstruction finds.

    Raises:
        DimensionMismatch, UnsupportedModel: models that do not fit the
            network (see ``_check_models``), before any table.
        TooLarge: above ``TABLE_GUARD_BITS`` nodes outside the destination
            (``2^24`` node sets), before any table or penalty is computed.
        NumericalFailure: the margin is not a finite number.
    """
    if net.layer_sizes[-1] != 1:
        raise InputError("multi-source region is defined for a single destination")
    _check_models(net, models)
    _require_rates(source_rates, "source rates")
    rates = [float(r) for r in source_rates]
    if len(rates) != net.layer_sizes[0]:
        raise DimensionMismatch(
            f"{net.layer_sizes[0]} sources need {net.layer_sizes[0]} rates"
        )
    bits = sum(net.layer_sizes[:-1])
    if bits > TABLE_GUARD_BITS:
        raise TooLarge(
            f"multi-source enumeration limited to {TABLE_GUARD_BITS} nodes outside "
            f"the destination; this network has {bits}, {1 << bits} node sets"
        )
    penalty = penalty_recursion(net, models)[0]
    rate_sums = _subset_sums(rates)
    penalties = np.array([s.bit_count() * penalty for s in range(rate_sums.size)])

    def margin(first, values):
        return values - rate_sums[first] - penalties[first]

    costs = [_cost(oracle) for oracle in net.oracles]
    # the destination is never in the set
    tables = _backward_tables(costs, [0.0, math.inf])
    path, value = _first_minimizer(costs, tables, net.layer_sizes, margin)
    worst = float(margin(path[0], value))
    if not math.isfinite(worst):
        raise NumericalFailure(f"multi-source margin is {worst}, not a finite number")
    members = frozenset(
        NodeId(l + 1, i) for l, mask in enumerate(path) for i in _mask_indices(mask)
    )
    binding_cut = Cut(members, value)

    extended = attach_supernode(net, "before_sources", [r + penalty for r in rates])
    super_value = _cut_dp(extended)[2]
    super_margin = super_value - (sum(rates) + len(rates) * penalty)
    if abs(super_margin - worst) > 1e-9 * max(1.0, abs(worst), abs(super_margin)):
        raise NumericalFailure(
            f"direct and supernode margins disagree: {worst} vs {super_margin}"
        )
    passed = worst >= -tol * max(1.0, abs(worst))
    return MultiSourceReport(passed, worst, binding_cut, super_margin, 1 << bits)


# ---------------------------------------------------------------------------
# Complexity and gap constants.
# ---------------------------------------------------------------------------


def decoding_complexity(
    net: LayeredNetwork,
    plan: RatePlan,
    block_length: int,
    quantizer_points: int = 1,
) -> tuple[float, float]:
    """Search-space sizes of joint and layered decoding, in log2.

    Joint decoding scans the product of the source codebook and every
    relay quantization codebook; layered decoding scans one layer at a
    time.  Every relay has ``quantizer_points`` quantization points;
    boundary layers carry no quantization codebook.  A layer's
    ``log2(quantizer_points)`` terms are added one relay at a time.

    Raises:
        InputError: a block length below 1 or above the float range,
            fewer than one quantizer point (checked with or without relays),
            or a compression key that is not a relay.
        RateCountMismatch: a relay missing from the plan's compression.
        NumericalFailure: either size is not a finite number.
    """
    if block_length < 1:
        raise InputError("block length must be at least 1")
    if block_length > sys.float_info.max:
        raise InputError("block length exceeds the float range")
    if quantizer_points < 1:
        raise InputError("quantizer points must be at least 1")
    compression = _relay_rates(plan.compression, net)
    log_q = math.log2(quantizer_points)
    log2_joint = plan.rate * block_length + sum([log_q] * len(net.relays))
    # layer pair l sends layer l's total to layer l + 1's quantizers
    totals = [plan.rate, *(sum(rates) for rates in compression.values())]
    counts = [len(rates) for rates in compression.values()] + [0]
    terms = [t * block_length + sum([log_q] * n) for t, n in zip(totals, counts)]
    peak = max(terms)
    log2_layered = peak + math.log2(sum(2.0 ** (t - peak) for t in terms))
    if not (math.isfinite(log2_joint) and math.isfinite(log2_layered)):
        # rates times the block length past the float range
        raise NumericalFailure(
            f"log2 search sizes are {log2_joint} (joint) and {log2_layered} "
            "(layered), not finite numbers"
        )
    return log2_joint, log2_layered


def gaussian_gap(net: LayeredNetwork) -> tuple[float, float]:
    """Worst-case gaps (bits/symbol) to the cut bound for Gaussian networks:
    ``3n`` under joint decoding and ``2n`` plus the unit-leak first-layer
    penalty under layered decoding, where ``n`` is the node count."""
    n = net.node_count
    layered_penalty = penalty_recursion(net, leaks=[1.0] * (net.num_layers - 1))[0]
    return 3.0 * n, 2.0 * n + layered_penalty
