"""Layered network model: node identity, topology validation, slicing, and
supernode extensions for multi-source / multi-destination problems.

Nodes are addressed positionally: layer 1 holds the sources, the last layer
holds the destinations, and a node is the pair ``(layer, index)``, both
1-based.  Capacities live on adjacent layer pairs as
:class:`~relayflow.capacity.CapacityOracle` instances.  A network is valid
when it is made: :class:`LayeredNetwork` checks its shape, including the
width limits of the subset enumerations every cut, flow and region runs,
however it is built, so no consumer checks it again.  Networks are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Sequence

from .capacity import LAYER_GUARD, TABLE_GUARD_BITS, AdditiveOracle, CapacityOracle, _require_rates
from .errors import (
    DimensionMismatch,
    EmptyLayer,
    InputError,
    BadRange,
    RateCountMismatch,
    TooFewLayers,
    TooLarge,
)


@dataclass(frozen=True, order=True)
class NodeId:
    """A node addressed as (layer, index), both 1-based."""

    layer: int
    index: int

    def key(self) -> str:
        """Serialized form used in JSON maps, e.g. ``"2.1"``."""
        return f"{self.layer}.{self.index}"

    @staticmethod
    def from_key(key: str) -> "NodeId":
        layer, _, index = key.partition(".")
        try:
            return NodeId(int(layer), int(index))
        except ValueError as exc:
            raise InputError(f"bad node key {key!r}") from exc


@dataclass(frozen=True)
class LayeredNetwork:
    """Immutable layered topology plus one capacity oracle per layer pair.

    Every construction, direct or through :func:`build_network`,
    :func:`subnetwork` or :func:`attach_supernode`, checks the shape, in this
    order, before any capacity is evaluated.

    Raises:
        TooFewLayers: fewer than two layers.
        EmptyLayer: some layer has no nodes.
        DimensionMismatch: oracle count or dimensions inconsistent with the
            layer sizes.
        InputError: an entry is not a :class:`CapacityOracle`.
        TooLarge: a layer above ``LAYER_GUARD`` nodes, or a layer pair
            above ``TABLE_GUARD_BITS`` (one capacity table).
    """

    layer_sizes: tuple[int, ...]
    oracles: tuple[CapacityOracle, ...]

    def __post_init__(self):
        sizes, oracles = self.layer_sizes, self.oracles
        if len(sizes) < 2:
            raise TooFewLayers("a layered network needs at least two layers")
        for l, m in enumerate(sizes, start=1):
            if m < 1:
                raise EmptyLayer(f"layer {l} is empty")
        if len(oracles) != len(sizes) - 1:
            raise DimensionMismatch(
                f"{len(sizes)} layers need {len(sizes) - 1} oracles, got {len(oracles)}"
            )
        for l, oracle in enumerate(oracles, start=1):
            if not isinstance(oracle, CapacityOracle):
                raise InputError(f"oracle {l} is a {type(oracle).__name__}, not a CapacityOracle")
            expected = (sizes[l - 1], sizes[l])
            if oracle.dims != expected:
                raise DimensionMismatch(f"oracle {l} has dims {oracle.dims}, expected {expected}")
        if max(sizes) > LAYER_GUARD:
            raise TooLarge(f"subset enumeration limited to {LAYER_GUARD} nodes per layer")
        pair = max(a + b for a, b in zip(sizes, sizes[1:]))
        if pair > TABLE_GUARD_BITS:
            raise TooLarge(
                f"capacity tables limited to {TABLE_GUARD_BITS} nodes per layer pair, "
                f"network has {pair}"
            )

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes)

    @property
    def node_count(self) -> int:
        return sum(self.layer_sizes)

    @property
    def is_unicast(self) -> bool:
        return self.layer_sizes[0] == 1 and self.layer_sizes[-1] == 1

    def layer_nodes(self, layer: int) -> list[NodeId]:
        if not 1 <= layer <= self.num_layers:
            raise BadRange(f"layer {layer} outside [1, {self.num_layers}]")
        return [NodeId(layer, i) for i in range(1, self.layer_sizes[layer - 1] + 1)]

    def nodes(self) -> list[NodeId]:
        return [n for l in range(1, self.num_layers + 1) for n in self.layer_nodes(l)]

    @property
    def relays(self) -> list[NodeId]:
        """The nodes strictly between the first and last layer, ordered by
        (layer, index): bit ``i`` of a relay mask stands for ``relays[i]``."""
        return [n for l in range(2, self.num_layers) for n in self.layer_nodes(l)]

    @property
    def source(self) -> NodeId:
        return NodeId(1, 1)

    @property
    def destination(self) -> NodeId:
        return NodeId(self.num_layers, 1)


@dataclass(frozen=True)
class Flow:
    """Nonnegative per-node throughput in bits/symbol."""

    values: Mapping[NodeId, float]

    def __post_init__(self):
        _require_rates(list(self.values.values()), "flow values")

    def at(self, node: NodeId) -> float:
        return self.values[node]

    def total(self, nodes: Iterable[NodeId]) -> float:
        return sum(self.values[n] for n in nodes)


@dataclass(frozen=True)
class Cut:
    """A node subset containing the sources and excluding the destinations,
    with its cut value."""

    members: frozenset[NodeId]
    value: float


def build_network(
    layer_sizes: Sequence[int],
    oracles: Sequence[CapacityOracle],
) -> LayeredNetwork:
    """Assemble a layered network from one capacity oracle per layer pair
    (network files go through :mod:`relayflow.fileformat`): the sizes as
    ints and both sequences as tuples, checked by :class:`LayeredNetwork`.

    Raises:
        TooFewLayers, EmptyLayer, DimensionMismatch, InputError, TooLarge:
            a shape that :class:`LayeredNetwork` refuses, including a layer
            or layer pair past the width limits.
    """
    return LayeredNetwork(tuple(int(m) for m in layer_sizes), tuple(oracles))


def subnetwork(
    net: LayeredNetwork, l_start: int, l_end: int
) -> tuple[LayeredNetwork, dict[NodeId, NodeId]]:
    """Slice layers ``l_start..l_end`` (inclusive), re-basing layer numbers.

    Returns the slice and a map from new node ids to the original ones, so
    per-node values computed on the slice can be merged back.
    """
    if not (1 <= l_start < l_end <= net.num_layers):
        raise BadRange(
            f"need 1 <= l_start < l_end <= {net.num_layers}, got ({l_start}, {l_end})"
        )
    sizes = net.layer_sizes[l_start - 1 : l_end]
    oracles = net.oracles[l_start - 1 : l_end - 1]
    sliced = LayeredNetwork(sizes, oracles)
    index_map = {
        NodeId(l_new, i): NodeId(l_new + l_start - 1, i)
        for l_new in range(1, sliced.num_layers + 1)
        for i in range(1, sizes[l_new - 1] + 1)
    }
    return sliced, index_map


Side = Literal["before_sources", "after_destinations"]


def attach_supernode(
    net: LayeredNetwork, side: Side, boundary_rates: Sequence[float]
) -> LayeredNetwork:
    """Add a single-node layer whose additive capacity to each boundary node
    equals that node's rate, turning a multi-source (or multi-destination)
    problem into a unicast one on that side."""
    if side not in ("before_sources", "after_destinations"):
        raise InputError(f"unknown side {side!r}")
    boundary_size = net.layer_sizes[0] if side == "before_sources" else net.layer_sizes[-1]
    rates = list(boundary_rates)
    if len(rates) != boundary_size:
        raise RateCountMismatch(
            f"{boundary_size} boundary nodes need {boundary_size} rates, got {len(rates)}"
        )
    _require_rates(rates, "boundary rates")
    rates = [float(r) for r in rates]
    if side == "before_sources":
        oracle = AdditiveOracle([rates])
        return LayeredNetwork((1, *net.layer_sizes), (oracle, *net.oracles))
    oracle = AdditiveOracle([[r] for r in rates])
    return LayeredNetwork((*net.layer_sizes, 1), (*net.oracles, oracle))
