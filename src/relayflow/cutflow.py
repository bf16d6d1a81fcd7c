"""Cuts and node-flows on layered networks with bisubmodular capacities.

A cut is a node subset containing the sources and excluding the
destinations; its value sums, per layer pair, the capacity from the cut's
transmitters to the receivers outside the cut.  A node-flow assigns each
node a nonnegative throughput ``f`` constrained, for every layer pair and
every subset pair (U, V), by

    f(V) - f(layer_l minus U) <= capacity_l(U, V)

``min_cut`` minimizes the cut value by dynamic programming over per-layer
subsets; ``max_flow`` constructs a flow attaining it by recursive
bisection: the split layer's flow is a point in the intersection of two
polymatroids whose rank functions are computed by the same subset DP.
That point comes from a Bland's-rule simplex over the 2·(2^m - 1) rank
constraints, whose 0/1 membership block is built once per width.  The
tableau is stored by columns and makes the pivots of a dense tableau,
with its floats, in memory proportional to the rows times the structural
and pivoted columns.  Over more than ``PRUNE_CANDIDATES`` rows, the Bland
ratio scan skips those whose ratios lie above a gap it cannot bridge,
found by raising a threshold from the smallest ratio.  The boundary
functions hand their values from the DP to the simplex as float64 arrays.

The DP reads each oracle's dense table (``CapacityOracle.table``) and has
one kernel, the min-plus step ``_sweep``, run by ``_backward_tables`` for
``min_cut``, both boundary functions (the source side on the reversed,
transposed costs) and the multi-source region; ``_first_minimizer``
reconstructs the cuts of the first and the last, and callers of the value
alone skip it (``_cut_dp``).
``verify_flow`` and the layered-region check
scan the same tables whole, one layer pair at a time, through
``_scan_constraints``, so every consumer sees the same floats.

Determinism rules used throughout: cut values accumulate from the sink
side (right fold), and ties between equal-value cuts resolve to the
lexicographically smallest membership-indicator vector ordered by
(layer, index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from .capacity import (
    CapacityOracle,
    _first_bisubmodular_failure,
    _first_monotone_failure,
    _leq_cells,
    _mask_indices,
    _quiet_arithmetic,
    _require_finite,
    _require_rates,
    _subset_sums,
    _to_mask,
)
from .errors import (
    DimensionMismatch,
    Infeasible,
    InfeasibleBoundary,
    BadRange,
    NumericalFailure,
    RateCountMismatch,
)
from .netgraph import Cut, Flow, LayeredNetwork, NodeId

INF = float("inf")


@cache
def _lex_masks(m: int) -> tuple[int, ...]:
    """Subset masks ordered by their membership-indicator vector, index 1 first.

    The empty set comes first and, among ties elsewhere, sets avoiding
    low-index nodes precede sets containing them.  Computed once per ``m``.
    """
    return tuple(
        sorted(range(1 << m), key=lambda s: tuple((s >> i) & 1 for i in range(m)))
    )


def _layer_masks(net: LayeredNetwork, members: Iterable[NodeId]) -> list[int]:
    """Per-layer membership masks (list index 0 is layer 1)."""
    masks = [0] * net.num_layers
    for node in members:
        if not (
            1 <= node.layer <= net.num_layers
            and 1 <= node.index <= net.layer_sizes[node.layer - 1]
        ):
            raise BadRange(f"node {node.key()} outside the network")
        masks[node.layer - 1] |= 1 << (node.index - 1)
    return masks


def cut_value(net: LayeredNetwork, members: Iterable[NodeId]) -> float:
    """Value of the cut given by ``members``: per layer pair, the capacity
    from the members of that layer to the non-members of the next."""
    masks = _layer_masks(net, members)
    total = 0.0
    # accumulate from the sink side so the DP reproduces identical floats
    for l in range(net.num_layers - 1, 0, -1):
        full_next = (1 << net.layer_sizes[l]) - 1
        total = net.oracles[l - 1].value_masks(masks[l - 1], full_next & ~masks[l]) + total
    return total


def _cost(oracle: CapacityOracle) -> np.ndarray:
    """``cost[mask, nmask]``: capacity from the cut's transmitters ``mask`` to
    the receivers outside the cut's next-layer part ``nmask``."""
    return oracle.table()[:, ::-1]


def _sweep(cost: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Min-plus step: ``out[i] = min over j of cost[i, j] + tail[j]``."""
    return (cost + tail).min(axis=1)


@_quiet_arithmetic
def _backward_tables(
    costs: Sequence[np.ndarray], final_costs: Sequence[float]
) -> list[np.ndarray]:
    """``tables[l][mask]``: cheapest completion from state ``mask`` through
    ``costs[l:]`` (final states priced by ``final_costs``)."""
    tables = [np.asarray(final_costs, dtype=float)]
    for cost in reversed(costs):
        tables.insert(0, _sweep(cost, tables[0]))
    return tables


def min_cut(
    net: LayeredNetwork, boundary: Mapping[NodeId, float] | None = None
) -> tuple[float, Cut]:
    """Minimize the cut value by subset DP; returns the value and one argmin.

    Without boundary flows the first layer is pinned inside the cut and the
    last layer outside (the total-message cut).  With boundary flows every
    subset is admissible and excluded sources / included destinations are
    charged their flow, so the minimum bounds the supportable boundary
    total.

    Ties resolve to the lexicographically smallest indicator vector.

    Raises:
        RateCountMismatch, InputError, NegativeRate: boundary flows that
            ``LayeredNetwork.layer_values`` refuses (a boundary node missing,
            a key that is not a boundary node, a bad value), before any
            table.
    """
    ends = None
    if boundary is not None:
        ends = net.layer_values(boundary, (1, net.num_layers), "boundary flow", "boundary node")
    costs, tables, value = _cut_dp(net, ends)
    path, _ = _first_minimizer(costs, tables, [0, *net.layer_sizes])
    members = frozenset(
        NodeId(l + 1, i) for l, mask in enumerate(path[1:]) for i in _mask_indices(mask)
    )
    return value, Cut(members, value)


def _cut_dp(net: LayeredNetwork, ends: Sequence[list[float]] | None = None):
    """``min_cut`` without the cut: the costs (a one-state layer 0 first),
    their ``_backward_tables`` and the minimum value, which must be finite.
    ``ends`` are the first and last layer's boundary flows."""
    m_first, m_last = net.layer_sizes[0], net.layer_sizes[-1]
    if ends is None:
        init_costs = [INF] * (1 << m_first)
        init_costs[-1] = 0.0
        final_costs = [INF] * (1 << m_last)
        final_costs[0] = 0.0
    else:
        init_costs = _subset_sums(ends[0])[::-1]
        final_costs = _subset_sums(ends[1])
    # a one-state layer 0 prices the first layer's states
    costs = [np.array([init_costs])] + [_cost(o) for o in net.oracles]
    tables = _backward_tables(costs, final_costs)
    value = float(tables[0][0])
    if not math.isfinite(value):
        # NaN cells, or finite capacities whose sums overflow; either would
        # leave a cut reconstruction without an exact match
        raise NumericalFailure(f"cut value is {value}, not a finite number")
    return costs, tables, value


@_quiet_arithmetic
def _first_minimizer(
    costs: Sequence[np.ndarray],
    tables: Sequence[np.ndarray],
    sizes: Sequence[int],
    score=lambda first, values: values,
) -> tuple[list[int], float]:
    """The states, one per layer, of the first sequence in ``product`` order
    of the ``_lex_masks(sizes[l])`` orders with the smallest
    ``score(s0, value)``, and that value: the right fold ``costs[0][s0, s1]
    + (... + tables[-1][sn])``, with ``tables`` from ``_backward_tables``
    and ``score`` monotone in it.  Addition is monotone too, so a prefix
    extends to a minimizer exactly when its cheapest completion does.  Each
    layer takes the first such state, scoring the whole fold, so that ties
    which rounding makes only in the outer additions keep ``product`` order.
    """
    values = tables[0]
    scores = score(np.arange(values.size), values)
    target = np.fmin.reduce(scores)
    path = [next(s for s in _lex_masks(sizes[0]) if scores[s] == target)]
    for l in range(1, len(tables)):
        values = costs[l - 1][path[-1]] + tables[l]
        for k in range(l - 2, -1, -1):
            values = costs[k][path[k], path[k + 1]] + values
        scores = score(path[0], values)
        path.append(next(s for s in _lex_masks(sizes[l]) if scores[s] == target))
    return path, float(values[path[-1]])


# ---------------------------------------------------------------------------
# Boundary rank functions of the two half-networks around a split layer.
# ---------------------------------------------------------------------------

BoundarySide = Literal["source", "sink"]


@dataclass(frozen=True, eq=False)
class BoundaryFunction:
    """Set function on a split layer bounding the flow its subsets may carry,
    given the capacities of one half-network and the flows fixed on its far
    boundary.

    These functions are normalized (zero at the empty set), non-decreasing,
    and submodular, so each defines a polymatroid.

    ``values[mask]`` is the value at the subset ``mask``: a read-only
    float64 array of ``2^ground_size`` entries, copied from whatever
    sequence or array the function is built from, so no caller's array can
    change it later.  Two functions are equal when their sides, ground sizes
    and the bits of their values agree (``-0.0`` differs from ``0.0``, and
    a NaN equals the same NaN), and they hash accordingly.
    """

    side: BoundarySide
    ground_size: int
    values: np.ndarray

    def __post_init__(self):
        if self.side not in ("source", "sink"):
            raise BadRange(f"unknown side {self.side!r}")
        if self.ground_size < 0:
            raise BadRange(f"ground set size {self.ground_size} is negative")
        values = np.array(self.values, dtype=float)
        if values.shape != (1 << self.ground_size,):
            raise DimensionMismatch(
                f"{values.size} values for a ground set of {self.ground_size}"
            )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def _key(self) -> tuple[str, int, bytes]:
        return self.side, self.ground_size, self.values.tobytes()

    def __eq__(self, other):
        if not isinstance(other, BoundaryFunction):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def value(self, subset: Iterable[int]) -> float:
        return float(self.values[_to_mask(subset, self.ground_size)])

    def check_polymatroid(self, tol: float = 1e-9) -> tuple[bool, str | None]:
        """Exhaustively verify zero-at-empty, monotonicity, and submodularity,
        the last two by ``check_capacity_axioms``'s kernels on the values as a
        one-column table (``m_out = 0``); the first failure is reported.
        A ``tol`` that ``_require_rates`` refuses is refused first."""
        _require_rates([tol], "tol")
        empty = float(self.values[0])
        if empty != 0.0:
            return False, f"value at empty set is {empty}"
        m = self.ground_size
        tab = self.values[:, None]
        step = _first_monotone_failure(tab, m, 0, tol)
        pair = None if step else _first_bisubmodular_failure(tab, tol)
        if step:
            u = _to_mask(step["U"], m)
            return False, f"not monotone at {u:b} adding {step['added_transmitter']}"
        if pair:
            u1, u2 = _to_mask(pair["U1"], m), _to_mask(pair["U2"], m)
            return False, f"not submodular at {u1:b}, {u2:b}"
        return True, None


def boundary_function(
    half: LayeredNetwork, side: BoundarySide, far_flows: Sequence[float]
) -> BoundaryFunction:
    """Rank function of one half-network on its split layer.

    ``side="source"``: the half runs from the sources to the split layer
    (its last layer is the ground set) and ``far_flows`` fixes its first
    layer.  ``side="sink"``: the half runs from the split layer to the
    destinations (its first layer is the ground set) and ``far_flows``
    fixes its last layer.

    For each ground subset T the value is the cheapest way to route around
    T: the minimum over cuts of the half of the cut value plus the far
    boundary flow the cut leaves exposed.

    Raises:
        RateCountMismatch: not one far flow per far-layer node.
        InputError: a far flow that is not a real number, NaN or infinite.
        NegativeRate: a negative far flow.
    """
    if side not in ("source", "sink"):
        raise BadRange(f"unknown side {side!r}")
    m_far, m_ground = half.layer_sizes[0], half.layer_sizes[-1]
    if side == "sink":
        m_far, m_ground = m_ground, m_far
    if len(far_flows) != m_far:
        raise RateCountMismatch(f"need {m_far} far-boundary flows")
    _require_rates(far_flows, "boundary flows")
    costs, far = [_cost(o) for o in half.oracles], _subset_sums(far_flows)
    if side == "source":
        # the cheapest way to reach each ground-layer state: a backward pass
        # over the transposed costs from the far layer's complemented states
        costs, far = [cost.T for cost in reversed(costs)], far[::-1]
    values = _backward_tables(costs, far)[0]
    if side == "source":
        values = values[::-1]
    return BoundaryFunction(side, m_ground, values)


# ---------------------------------------------------------------------------
# Polymatroid intersection at a prescribed total, via a column-stored simplex.
# ---------------------------------------------------------------------------

#: candidate rows above which the ratio test prunes them in numpy first.
#: Measured per pivot (medians of three runs, two such measurements) on
#: the ratio tests of the recorded max-flow LPs of flow-ladder seeds 7 and
#: 11 and wide-split seed 7, scan alone against prune and scan: 11.7-12.6
#: vs 14.2-15.4 us at 97-128 candidates, 12.9-13.2 vs 10.5-10.9 us at
#: 129-160, 16.4-17.3 vs 13.6-14.7 us at 161-192, 20.1-22.0 vs 17.5-19.7
#: us at 193-224, 22.6-24.0 vs 20.4-21.5 us at 225-256 (one outlier pair:
#: 31.7 vs 36.1), where 26% of flow-ladder's candidates survive; 52-56 vs
#: 12-14 us at 385-512 and 128-137 vs 14 us above 512, where about 1% of
#: wide-split's survive.  A cut-off of 128 would save about 2.5 us on each
#: of flow-ladder's 352 ratio tests of 129-241 candidates per pass, under
#: 1 ms of a steady 0.3-0.4 s pass, so it stays 256 and flow-ladder does
#: not prune.
PRUNE_CANDIDATES = 256

#: raises of the prune's threshold after which every candidate survives
_PRUNE_RAISES = 3


def _ratio_survivors(
    candidates: np.ndarray, ratios: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate rows, with their ratios, that the Bland ratio scan of
    ``_pivot_max`` needs to see: scanned in row order, they give the row
    that the scan over every candidate gives.

    Let ``M`` be the largest magnitude of a ratio that is not NaN and
    ``w = eps + 4 * ulp(M)``.  Starting from the smallest ratio, raise
    ``c`` to the largest ratio ``<= fl(c + w)`` until that is ``c`` itself.
    Rows with ratio ``<= c`` (low) survive; the rest, each ratio above
    ``fl(c + w)`` (high) or NaN, are dropped.  The scan keeps ``best``, the
    ratio of the row it took last, and takes a row when ``ratio < best -
    eps`` or when ``|ratio - best| <= eps`` and the basis tie-break favours
    it.  Each rounding below, of ``c + w``, ``h - r`` or ``h - eps``, errs
    by at most ``ulp(M)`` (or by far less than ``eps``), so for a high
    ``h`` and a low ``r``:

    - ``h`` never displaces ``best = r``: ``h > r >= fl(r - eps)``, and
      ``fl(h - r) >= h - c - ulp > w - 2 * ulp > eps``;
    - the first low row always displaces ``best = h`` (or the initial
      ``+inf``): ``fl(h - eps) >= h - eps - ulp > c + w - eps - 2 * ulp >
      c >= r``.

    Both need only ``w > eps + 2 * ulp``; ``w`` keeps ``2 * ulp`` more.

    So from the first low row on, the scan makes the comparisons of a scan
    over the low rows alone, and it never takes a NaN row.

    Each raise of ``c`` is one pass over the ratios.  On the benchmark's
    LPs ``c`` settles after at most one raise; chained near-ties could
    raise it once per link, so after ``_PRUNE_RAISES`` raises every
    candidate survives.  An infinite ratio makes ``w`` infinite, as does an
    all-NaN test, and every candidate survives then too.
    """
    low, high = np.fmin.reduce(ratios).item(), np.fmax.reduce(ratios).item()
    wide = eps + 4.0 * math.ulp(max(-low, high))
    if not math.isfinite(wide):
        return candidates, ratios
    top = low
    for _ in range(_PRUNE_RAISES + 1):
        keep = ratios <= top + wide
        kept = ratios[keep]
        raised = kept.max().item()
        if raised == top:
            return candidates[keep], kept
        top = raised
    return candidates, ratios


@cache
def _membership_block(m: int) -> np.ndarray:
    """The split-layer LP's structural columns for a ground set of ``m``
    nodes, one row per node, built once per width and kept: entries ``2k``
    and ``2k + 1`` (the source and the sink rank row of mask ``k + 1``) are
    the node's 0/1 membership in that mask, and the last entry is the
    objective's ``-1``.

    Read-only ``int8``, ``m * 2^(m + 1) - m`` bytes: 2,097,136 (2 MB) at
    the widest split a network allows (16 nodes), 45 KB at 11.
    """
    masks = np.arange(1, 1 << m, dtype=np.int32)
    bits = (masks >> np.arange(m, dtype=np.int32)[:, None]) & 1
    block = np.empty((m, 2 * bits.shape[1] + 1), dtype=np.int8)
    block[:, 0:-1:2] = bits
    block[:, 1:-1:2] = bits
    block[:, -1] = -1
    block.flags.writeable = False
    return block


def _pivot_max(structural: np.ndarray, b: np.ndarray) -> tuple[float, list[float]]:
    """Maximize ``c @ x`` subject to ``A x <= b`` and ``x >= 0``, given the
    tableau's structural columns ``structural[j] = (A[:, j], -c[j])``, which
    it updates in place.

    Requires ``b >= 0`` so the slack basis starts feasible.  Pivoting uses
    Bland's rule (smallest eligible index for both the entering column and
    ratio ties), which cannot cycle.

    The tableau is held by columns, each an array of length ``m + 1`` with
    the objective (``-c``) entry last.  Slack column ``n + i`` stays the
    implicit unit vector ``e_i`` until a pivot on row ``i`` makes it
    nonzero in the pivot row, and only then is it stored.  Implicit slacks
    have objective 0, so they never enter.  Memory is one column per
    structural variable and per slack a pivot reached.

    A pivot on row ``r`` divides the pivot row, then updates only the
    stored columns that are nonzero in it.  The dense update gives every
    other column ``T[i, j] - T[i, e] * 0``: its own value, at most a zero
    changing sign, which no comparison sees.  With ``f`` the entering
    column with its pivot entry zeroed, each updated column gets
    ``col -= f * col[r]`` over its whole length:

    - where ``f`` is nonzero a cell gets ``T[i, j] - T[i, e] * T'[r, j]``,
      the dense update's own expression;
    - where ``f`` is ``±0`` (row ``r`` among them) a cell gets
      ``T - (±0) * c``, which for finite ``c`` is ``T`` up to the sign of
      a zero.  No comparison (``> eps``, ``< -eps``, ``!= 0.0``) sees that
      sign, and a zero that differs in sign changes other cells only in
      the signs of zeros: as ``f[i]`` it gives the case above, as
      ``col[r]`` it leaves the column out either way.

    So with finite coefficients every column is the dense tableau's up to
    the signs of zeros, and the pivots are its pivots, one for one.  The
    rhs is updated row-sparsely: only the rows where the entering column
    is nonzero change, each to the dense update's expression, and the
    other rows keep their cell (a select, not a subtraction of zero).  So
    it, hence ``x`` and the optimum, match the dense tableau bit for bit,
    zero signs included.  A structural variable can be basic only on a
    row that has been a pivot row, which is a row whose slack column is
    stored, so ``x`` is read from those rows alone.

    The ratio test is a scalar scan in row order.  Over more than
    ``PRUNE_CANDIDATES`` candidate rows it scans only the rows
    ``_ratio_survivors`` keeps, which leads it to the same row.
    """
    n, size = structural.shape
    m = size - 1
    if (b < 0).any():
        raise NumericalFailure("simplex requires nonnegative right-hand sides")
    eps = 1e-12
    columns = dict(enumerate(structural))
    rhs = np.zeros(size)
    rhs[:m] = b
    basis = list(range(n, n + m))

    for _ in range(10_000):
        enter = min((j for j, col in columns.items() if col[m] < -eps), default=-1)
        if enter < 0:
            break
        entering = columns[enter]
        candidates = np.flatnonzero(entering[:m] > eps)
        ratios = rhs[candidates] / entering[candidates]
        if candidates.size > PRUNE_CANDIDATES:
            candidates, ratios = _ratio_survivors(candidates, ratios, eps)
        leave = -1
        best_ratio = INF
        for i, ratio in zip(candidates.tolist(), ratios.tolist()):
            if ratio < best_ratio - eps or (
                abs(ratio - best_ratio) <= eps
                and (leave < 0 or basis[i] < basis[leave])
            ):
                best_ratio = ratio
                leave = i
        if leave < 0:
            raise NumericalFailure("linear program is unbounded")
        if n + leave not in columns:
            slack = np.zeros(size)
            slack[leave] = 1.0
            columns[n + leave] = slack
        pivot = entering[leave]
        f = entering.copy()
        f[leave] = 0.0
        rhs[leave] /= pivot
        rhs = np.where(f != 0.0, rhs - f * rhs[leave], rhs)
        for col in [col for col in columns.values() if col[leave] != 0.0]:
            col[leave] /= pivot
            col -= f * col[leave]
        basis[leave] = enter
    else:
        raise NumericalFailure("simplex did not converge")

    x = [0.0] * n
    for j in columns:
        if j >= n and basis[j - n] < n:
            x[basis[j - n]] = float(rhs[j - n])
    return float(rhs[m]), x


@_quiet_arithmetic
def polymatroid_intersect(
    r_source: BoundaryFunction,
    r_sink: BoundaryFunction,
    target_total: float,
) -> list[float]:
    """A nonnegative vector in both polymatroids whose coordinates sum to
    ``target_total``.

    The largest achievable total is ``min over T of
    r_source(complement T) + r_sink(T)``; a target above it (plus a
    relative 1e-9) is rejected.  The simplex optimum attains that bound;
    if it exceeds the target, coordinates are reduced greedily in ascending
    index order, which stays feasible because both polymatroids are
    down-closed.

    Raises:
        InputError: a non-finite target or boundary-function value.
        NegativeRate: a negative target.
        Infeasible: target exceeds the intersection bound.
        NumericalFailure: the solver fell measurably short of the target,
            or the reduced coordinates miss it by as much (the reduction
            loses a target far below the optimum to rounding).
    """
    m = r_source.ground_size
    if r_sink.ground_size != m:
        raise DimensionMismatch("boundary functions have different ground sets")
    src, snk = r_source.values, r_sink.values
    _require_rates([target_total], "target total")
    for values in (src, snk):
        _require_finite(values, "boundary function values")
    # src[::-1][t] is r_source at the complement of t
    bound = float((src[::-1] + snk).min())
    if target_total > bound + 1e-9 * max(1.0, abs(bound)):
        raise Infeasible(
            f"target total {target_total} exceeds intersection bound {bound}"
        )

    # per nonempty mask, two rows: source rank, sink rank
    rhs = np.empty(2 * (src.size - 1))
    rhs[0::2], rhs[1::2] = src[1:], snk[1:]
    value, x = _pivot_max(_membership_block(m).astype(float), rhs)
    slack = 1e-9 * max(1.0, abs(target_total))
    if value < target_total - slack:
        raise NumericalFailure(
            f"simplex reached {value}, short of target {target_total}"
        )
    excess = max(0.0, value - target_total)
    for i in range(m):
        cut = min(x[i], excess)
        x[i] -= cut
        excess -= cut
    flows = [max(0.0, v) for v in x]
    total = sum(flows)
    if abs(total - target_total) > slack:
        # an excess that rounds to the optimum zeroes every coordinate
        raise NumericalFailure(
            f"split-layer flows sum to {total}, not the target {target_total}"
        )
    return flows


# ---------------------------------------------------------------------------
# Max-flow construction and flow verification.
# ---------------------------------------------------------------------------


def max_flow(
    net: LayeredNetwork,
    boundary: Mapping[NodeId, float] | None = None,
    split_layer: int | None = None,
) -> Flow:
    """Construct a full node-flow meeting the min-cut (unicast) or the given
    boundary totals.

    Recursive bisection: split at the middle layer, build the two boundary
    rank functions, place the split layer's flow in their polymatroid
    intersection at the running total, and recurse into both halves.

    Args:
        boundary: per-node flows for the first and last layers; omit it for
            a unicast network, where both ends carry the min-cut value.
        split_layer: override the top-level split (debugging aid).

    Raises:
        RateCountMismatch, InputError, NegativeRate: boundary flows that
            ``LayeredNetwork.layer_values`` refuses, before any table.
        InfeasibleBoundary: boundary totals unequal, infeasible against the
            cut bound, or missing on a multi-node boundary.
    """
    if split_layer is not None and not 2 <= split_layer <= net.num_layers - 1:
        raise BadRange(f"split layer must lie strictly inside [1, {net.num_layers}]")
    if boundary is None:
        if not net.is_unicast:
            raise InfeasibleBoundary(
                "multi-node boundary layers need explicit boundary flows"
            )
        value = _cut_dp(net)[2]
        first, last = [value], [value]
    else:
        first, last = net.layer_values(
            boundary, (1, net.num_layers), "boundary flow", "boundary node"
        )
        total_in, total_out = sum(first), sum(last)
        if not math.isclose(total_in, total_out, rel_tol=1e-9, abs_tol=1e-9):
            raise InfeasibleBoundary(
                f"boundary totals differ: {total_in} vs {total_out}"
            )
        bound = _cut_dp(net, (first, last))[2]
        if total_in > bound + 1e-9 * max(1.0, abs(bound)):
            raise InfeasibleBoundary(
                f"boundary total {total_in} exceeds the cut bound {bound}"
            )

    per_layer = _construct(net, first, last, split_layer)
    return Flow(dict(zip(net.nodes(), [v for layer in per_layer for v in layer], strict=True)))


def _construct(
    net: LayeredNetwork,
    first: list[float],
    last: list[float],
    split_layer: int | None,
) -> list[list[float]]:
    if net.num_layers == 2:
        return [first, last]
    split = split_layer if split_layer is not None else math.ceil(net.num_layers / 2)
    # the halves share the split layer
    upper = LayeredNetwork(net.layer_sizes[:split], net.oracles[: split - 1])
    lower = LayeredNetwork(net.layer_sizes[split - 1 :], net.oracles[split - 1 :])
    r_source = boundary_function(upper, "source", first)
    r_sink = boundary_function(lower, "sink", last)
    middle = polymatroid_intersect(r_source, r_sink, sum(first))
    upper_flows = _construct(upper, first, middle, None)
    lower_flows = _construct(lower, middle, last, None)
    return upper_flows + lower_flows[1:]


@dataclass
class FlowCheck:
    """Result of exhaustively checking a flow against every capacity
    constraint and conservation across the boundary layers.

    ``violations`` is described on first read and then cached.  Until then
    the report keeps, per layer pair with failing constraints, the four
    arrays ``(u, v, lhs, rhs)`` of ``_scan_constraints`` (32 bytes per
    failing constraint) and the function naming a cell's constraint from
    its ``(u, v)``.  Equality and ``repr`` leave them out."""

    passed: bool
    worst_excess: float
    conservation_gap: float
    n_constraints: int
    _failing: list = field(default_factory=list, compare=False, repr=False)

    @cached_property
    def violations(self) -> list[dict]:
        return [
            dict(describe(u, v), lhs=lhs, rhs=rhs, excess=lhs - rhs)
            for (us, vs, lhs_, rhs_), describe in self._failing
            for u, v, lhs, rhs in zip(us.tolist(), vs.tolist(), lhs_.tolist(), rhs_.tolist())
        ]


#: one checked cell of a constraint table: ``(u, v, lhs, rhs)``
_Cell = tuple[int, int, float, float]


@_quiet_arithmetic
def _scan_constraints(
    table: np.ndarray,
    lhs_row: Sequence[float],
    lhs_col: Sequence[float],
    tol: float,
    rhs_col: Sequence[float] | None = None,
    skip_corner: bool = False,
) -> tuple[int, _Cell | None, _Cell | None, tuple[np.ndarray, ...]]:
    """Check ``lhs[u, v] <= rhs[u, v]`` on every cell of a capacity table, with

        lhs[u, v] = lhs_row[u] + lhs_col[v]
        rhs[u, v] = table[u, v] + rhs_col[v]      (``table[u, v]`` without ``rhs_col``)

    A subtracted term is passed negated: ``x - y`` and ``x + (-y)`` are the
    same float, so every cell carries the bits of the scalar expression.
    ``skip_corner`` leaves out cell ``(0, last column)``.

    Returns the number of cells checked; the binding cell, which is the
    first in row-major order with the smallest margin ``rhs - lhs`` (NaN
    margins never bind, and there is none when no margin is below +inf);
    the first cell whose margin is NaN, which no comparison decides (or
    ``None``); and the cells failing ``_leq(lhs, rhs, tol)``, in row-major
    order, as four arrays: their ``u`` and ``v`` indices and their ``lhs``
    and ``rhs`` values.

    Allocates ``lhs``, ``rhs`` (unless it is ``table`` itself) and one
    scratch array, which holds the margins and then the tolerance bounds,
    all of ``table``'s shape, plus boolean masks and the four arrays of
    failing cells, 32 bytes each; no Python object per cell.
    """
    lhs = np.add.outer(np.asarray(lhs_row, dtype=float), np.asarray(lhs_col, dtype=float))
    rhs = table if rhs_col is None else table + np.asarray(rhs_col, dtype=float)
    scratch = np.subtract(rhs, lhs)
    if skip_corner:
        # a margin that neither binds nor is NaN
        scratch[0, -1] = INF
    margins = scratch.ravel()

    def cell(i: int) -> _Cell:
        u, v = divmod(i, table.shape[1])
        return u, v, float(lhs[u, v]), float(rhs[u, v])

    worst = margins.min()  # NaN when some margin is NaN
    first_nan = None
    if math.isnan(worst):
        first_nan = cell(int(np.argmax(np.isnan(margins))))
        worst = np.fmin.reduce(margins)
    binding = cell(int(np.argmax(margins == worst))) if worst < INF else None

    failed = ~_leq_cells(lhs, rhs, tol, bound=scratch)
    if skip_corner:
        failed[0, -1] = False
    us, vs = np.nonzero(failed)
    return table.size - int(skip_corner), binding, first_nan, (us, vs, lhs[us, vs], rhs[us, vs])


def verify_flow(net: LayeredNetwork, flow: Flow) -> FlowCheck:
    """Check ``f(V) - f(layer_l minus U) <= capacity_l(U, V)`` for every
    layer pair and subset pair, plus conservation of the boundary totals,
    each within a relative 1e-9.

    Each layer pair is one whole-table pass over its capacity table.
    ``worst_excess`` is ``lhs - rhs`` at the first constraint, in (layer,
    U mask, V mask) order, with the largest excess.  The report keeps each
    pass's failing cells as ``_scan_constraints`` returns them, and
    ``passed`` needs none of them; ``violations`` describes them, in the
    same order, when first read.

    Raises:
        RateCountMismatch, InputError: a node missing from the flow, or a
            key of it that is not a node of ``net``, before any table.
        NumericalFailure: the worst excess is not a finite number, or
            else some constraint's excess is NaN (the first is named).
    """
    layer_vals = net.layer_values(
        flow.values, range(1, net.num_layers + 1), "flow value", "node of the network"
    )
    worst = -INF
    n_constraints = 0
    failing = []
    first_nan = None
    # each layer's sums serve the layer pairs on both sides of it
    sums = [_subset_sums(vals) for vals in layer_vals]
    for l in range(1, net.num_layers):
        f_excluded = np.negative(sums[l - 1][::-1])
        f_included = sums[l]
        n, binding, nan, failed = _scan_constraints(
            net.oracles[l - 1].table(), f_excluded, f_included, 1e-9
        )
        n_constraints += n
        if binding is not None:
            _, _, lhs, rhs = binding
            worst = max(worst, lhs - rhs)
        if first_nan is None and nan is not None:
            first_nan = (l, *nan)
        if failed[0].size:
            failing.append((
                failed,
                lambda u, v, l=l: {"layer": l, "U": _mask_indices(u), "V": _mask_indices(v)},
            ))
    if not math.isfinite(worst):
        # flow totals or capacities whose sums overflow
        raise NumericalFailure(f"worst excess is {worst}, not a finite number")
    if first_nan is not None:
        # NaN capacities, or infinite ones against infinite flow totals
        l, umask, vmask, lhs, rhs = first_nan
        raise NumericalFailure(
            f"excess at layer {l}, U={list(_mask_indices(umask))}, "
            f"V={list(_mask_indices(vmask))} is nan (lhs {lhs}, rhs {rhs})"
        )
    total_in = sum(layer_vals[0])
    total_out = sum(layer_vals[-1])
    gap = abs(total_in - total_out)
    conserved = gap <= 1e-9 * max(1.0, total_in, total_out)
    return FlowCheck(
        passed=conserved and not failing,
        worst_excess=worst,
        conservation_gap=gap,
        n_constraints=n_constraints,
        _failing=failing,
    )
