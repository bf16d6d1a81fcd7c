"""Independent brute-force references used by the test suite: exhaustive
min-cut enumeration, a one-shot linear program over every node-flow
constraint, and a seeded instance generator.

The flow reference shares no solver code with the construction in
:mod:`relayflow.cutflow`: it assembles the full constraint matrix in one
piece and solves it with one two-phase simplex of its own, on exact
fractions when every right-hand side is integral and on float64
otherwise.

The generator advances a fixed splitmix-style 64-bit state, so instances
are bit-reproducible across platforms and releases; the draw order per
layer pair is: family pick, then the family's parameters in row-major
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .capacity import (
    AdditiveOracle,
    DeterministicLayerModel,
    DiscreteLayerModel,
    GaussianLogDetOracle,
    LayerModel,
    RankGF2Oracle,
    check_capacity_axioms,
    _mask_indices,
)
from .cutflow import _lex_masks, max_flow
from .errors import (
    EmptyLayer,
    InfeasibleBoundary,
    InputError,
    NumericalFailure,
    TooLarge,
)
from .fileformat import FAMILIES, network_to_dict
from .netgraph import Cut, LayeredNetwork, NodeId, build_network

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (splitmix state advance)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def bit(self) -> int:
        return self.next_u64() & 1

    def normal(self) -> float:
        """Standard normal via Box-Muller (cosine branch, two draws)."""
        u1 = 1.0 - self.random()
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def complex_normal(self) -> complex:
        """Circularly symmetric complex normal with unit total variance."""
        return complex(self.normal(), self.normal()) * math.sqrt(0.5)


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded description of a random instance.

    ``family_weights`` weighs the capacity families per layer pair; layer
    sizes are capped at 4 so every downstream enumeration stays trivial.
    """

    seed: int
    layer_sizes: tuple[int, ...]
    family_weights: Mapping[str, float]

    def __post_init__(self):
        if any(m > 4 for m in self.layer_sizes):
            raise TooLarge("generated instances are capped at 4 nodes per layer")
        for l, m in enumerate(self.layer_sizes, start=1):
            if m < 1:
                raise EmptyLayer(f"layer {l} is empty")
        for name in self.family_weights:
            if name not in FAMILIES:
                raise InputError(f"unknown capacity family {name!r}")


@dataclass
class GeneratedInstance:
    spec: InstanceSpec
    network: LayeredNetwork
    models: list[LayerModel]
    families: list[str]


def _pick_family(rng: SplitMix64, weights: Mapping[str, float]) -> str:
    total = sum(max(0.0, weights.get(name, 0.0)) for name in FAMILIES)
    if total <= 0:
        raise InputError("family weights must have positive total")
    u = rng.random() * total
    acc = 0.0
    for name in FAMILIES:
        acc += max(0.0, weights.get(name, 0.0))
        if u < acc:
            return name
    return FAMILIES[-1]


def random_instance(spec: InstanceSpec) -> GeneratedInstance:
    """Deterministically generate a network plus per-pair layer models.

    Additive entries are uniform on [0, 4]; GF(2) transfer matrices are
    uniform bits; Gaussian channel entries are standard complex normal;
    discrete pairs use binary alphabets with probabilities bounded away
    from 0 and 1, and the last pair quantizes the destination with the
    identity.  Every generated oracle is checked against the capacity
    axioms before being accepted.

    Raises:
        NumericalFailure: a generated oracle fails the capacity axioms.
    """
    rng = SplitMix64(spec.seed)
    sizes = spec.layer_sizes
    oracles = []
    models: list[LayerModel] = []
    families: list[str] = []
    for l in range(len(sizes) - 1):
        m_in, m_out = sizes[l], sizes[l + 1]
        family = _pick_family(rng, spec.family_weights)
        families.append(family)
        if family == "additive":
            matrix = [[4.0 * rng.random() for _ in range(m_out)] for _ in range(m_in)]
            oracle = AdditiveOracle(matrix)
            model: LayerModel = DeterministicLayerModel(oracle)
        elif family == "rank_gf2":
            g = [[rng.bit() for _ in range(m_in)] for _ in range(m_out)]
            oracle = RankGF2Oracle(g)
            model = DeterministicLayerModel(oracle)
        elif family == "gaussian":
            h = np.array(
                [[rng.complex_normal() for _ in range(m_in)] for _ in range(m_out)]
            )
            oracle = model = GaussianLogDetOracle(h)
        else:
            pmfs = []
            for _ in range(m_in):
                p1 = 0.2 + 0.6 * rng.random()
                pmfs.append(np.array([1.0 - p1, p1]))
            channels = []
            for _ in range(m_out):
                flat = np.empty((2**m_in, 2))
                for row in range(2**m_in):
                    p1 = 0.1 + 0.8 * rng.random()
                    flat[row] = (1.0 - p1, p1)
                channels.append(flat.reshape((2,) * m_in + (2,)))
            quantizers = []
            last_pair = l == len(sizes) - 2
            for _ in range(m_out):
                if last_pair:
                    quantizers.append(np.eye(2))
                else:
                    q = np.empty((2, 2))
                    for y in range(2):
                        p1 = 0.1 + 0.8 * rng.random()
                        q[y] = (1.0 - p1, p1)
                    quantizers.append(q)
            oracle = model = DiscreteLayerModel(pmfs, channels, quantizers)
        report = check_capacity_axioms(oracle)
        if not report.passed:
            raise NumericalFailure(
                f"generated {family} oracle failed axioms: {report.counterexample}"
            )
        oracles.append(oracle)
        models.append(model)
    return GeneratedInstance(spec, build_network(sizes, oracles), models, families)


def discrete_mi_reference(
    model: DiscreteLayerModel, transmitters: Sequence[int], receivers: Sequence[int]
) -> float:
    """Conditional mutual information by plain conditional-entropy sums.

    Accumulates ``H(out | X_rest) - H(out | X_all)`` with explicit loops
    over input assignments, independently of the joint-table path inside
    the layer model.
    """
    m_in, m_out = model.dims
    tx = sorted(set(transmitters))
    rx = sorted(set(receivers))
    if not tx or not rx:
        return 0.0
    rest = [u for u in range(1, m_in + 1) if u not in tx]
    alphabets = [p.size for p in model.input_pmfs]

    def prob(assignment: dict[int, int]) -> float:
        p = 1.0
        for u, v in assignment.items():
            p *= model.input_pmfs[u - 1][v]
        return p

    def out_dist(assignment: tuple[int, ...]) -> np.ndarray:
        block = np.ones(1)
        for w in rx:
            block = np.multiply.outer(
                block, model.quantized_conditional(w)[assignment]
            ).ravel()
        return block

    h_given_all = 0.0
    for combo in product(*(range(alphabets[u - 1]) for u in range(1, m_in + 1))):
        p = prob(dict(zip(range(1, m_in + 1), combo)))
        if p > 0.0:
            dist = out_dist(combo)
            h_given_all -= p * float(np.sum(dist[dist > 0] * np.log2(dist[dist > 0])))

    h_given_rest = 0.0
    for rest_combo in product(*(range(alphabets[u - 1]) for u in rest)):
        fixed = dict(zip(rest, rest_combo))
        p_rest = prob(fixed)
        if p_rest == 0.0:
            continue
        mix = None
        for tx_combo in product(*(range(alphabets[u - 1]) for u in tx)):
            assign = dict(fixed)
            assign.update(zip(tx, tx_combo))
            full = tuple(assign[u] for u in range(1, m_in + 1))
            w_p = prob(dict(zip(tx, tx_combo)))
            term = w_p * out_dist(full)
            mix = term if mix is None else mix + term
        nz = mix[mix > 0]
        h_given_rest -= p_rest * float(np.sum(nz * np.log2(nz)))

    return max(0.0, h_given_rest - h_given_all)


# ---------------------------------------------------------------------------
# Exhaustive min-cut.
# ---------------------------------------------------------------------------


def brute_min_cut(net: LayeredNetwork) -> tuple[float, Cut]:
    """Minimum cut by enumerating every admissible node subset.

    The first layer is pinned inside and the last outside; values
    accumulate from the sink side and the scan order is the global
    indicator-lexicographic order, matching the tie-break of
    :func:`relayflow.cutflow.min_cut`.

    Raises:
        NumericalFailure: every cut value is NaN or infinite.
    """
    if net.node_count > 20:
        raise TooLarge("exhaustive cut enumeration limited to 20 nodes")
    L = net.num_layers
    orders = (
        [[(1 << net.layer_sizes[0]) - 1]]
        + [_lex_masks(m) for m in net.layer_sizes[1:-1]]
        + [[0]]
    )
    best = math.inf
    best_combo: tuple[int, ...] | None = None
    for combo in product(*orders):
        value = 0.0
        for l in range(L - 1, 0, -1):
            full_next = (1 << net.layer_sizes[l]) - 1
            value = (
                net.oracles[l - 1].value_masks(combo[l - 1], full_next & ~combo[l])
                + value
            )
        if value < best:
            best = value
            best_combo = combo
    if best_combo is None:
        raise NumericalFailure("every cut value is NaN or infinite")
    members = frozenset(
        NodeId(l + 1, i)
        for l, mask in enumerate(best_combo)
        for i in _mask_indices(mask)
    )
    return best, Cut(members, best)


# ---------------------------------------------------------------------------
# One-shot flow linear program.
# ---------------------------------------------------------------------------


def brute_max_flow(
    net: LayeredNetwork, boundary: Mapping[NodeId, float] | None = None
) -> float:
    """Maximum first-layer flow total from the full constraint matrix.

    Builds one row per layer pair and subset pair (receive side nonempty),
    the two conservation rows, and, when given, equality rows fixing the
    boundary flows; then maximizes the first-layer total with this module's
    own simplex.
    """
    if net.node_count > 12:
        raise TooLarge("one-shot flow program limited to 12 nodes")
    nodes = net.nodes()
    pos = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)

    rows: list[list[float]] = []
    rhs: list[float] = []
    for l in range(1, net.num_layers):
        layer_u = net.layer_nodes(l)
        layer_v = net.layer_nodes(l + 1)
        m_in, m_out = net.layer_sizes[l - 1], net.layer_sizes[l]
        full_in = (1 << m_in) - 1
        oracle = net.oracles[l - 1]
        for umask in range(full_in + 1):
            for vmask in range(1, 1 << m_out):
                row = [0.0] * n
                for i in _mask_indices(vmask):
                    row[pos[layer_v[i - 1]]] += 1.0
                for i in _mask_indices(full_in & ~umask):
                    row[pos[layer_u[i - 1]]] -= 1.0
                rows.append(row)
                rhs.append(oracle.value_masks(umask, vmask))

    conservation = [0.0] * n
    for node in net.layer_nodes(1):
        conservation[pos[node]] += 1.0
    for node in net.layer_nodes(net.num_layers):
        conservation[pos[node]] -= 1.0
    rows.append(conservation)
    rhs.append(0.0)
    rows.append([-x for x in conservation])
    rhs.append(0.0)

    if boundary is not None:
        for node in net.layer_nodes(1) + net.layer_nodes(net.num_layers):
            if node not in boundary:
                raise InputError(f"boundary flow missing for {node.key()}")
            fixed = float(boundary[node])
            row = [0.0] * n
            row[pos[node]] = 1.0
            rows.append(row)
            rhs.append(fixed)
            rows.append([-x for x in row])
            rhs.append(-fixed)

    objective = [0.0] * n
    for node in net.layer_nodes(1):
        objective[pos[node]] = 1.0

    exact = all(float(v).is_integer() for v in rhs)
    value, _ = _lp_max(rows, rhs, objective, exact)
    return value


def _lp_max(
    rows: Sequence[Sequence[float]],
    rhs: Sequence[float],
    objective: Sequence[float],
    exact: bool,
) -> tuple[float, list[float]]:
    """Two-phase tableau simplex with Bland's rule: max c.x, A x <= b, x >= 0.

    ``exact`` runs it on ``Fraction``s with zero tolerances, where Bland's
    rule cannot cycle; otherwise on float64 with a pivot tolerance of 1e-9
    and a phase-1 feasibility tolerance of 1e-7.  Either mode gives up
    after 50,000 pivots per phase.
    """
    if exact:
        num, dtype, eps, feas_tol = Fraction, object, 0, 0
    else:
        num, dtype, eps, feas_tol = float, float, 1e-9, 1e-7
    zero, one = num(0), num(1)
    a = np.array([[num(v) for v in row] for row in rows], dtype=dtype)
    b = np.array([num(v) for v in rhs], dtype=dtype)
    c = np.array([num(v) for v in objective], dtype=dtype)
    m, n = a.shape
    flip = b < 0
    a[flip] = -a[flip]
    b[flip] = -b[flip]
    art_rows = list(np.flatnonzero(flip))
    k = len(art_rows)
    ncols = n + m + k
    tab = np.full((m, ncols + 1), zero, dtype=dtype)
    tab[:, :n] = a
    for i in range(m):
        tab[i, n + i] = -one if flip[i] else one
    for j, i in enumerate(art_rows):
        tab[i, n + m + j] = one
    tab[:, -1] = b
    basis = [n + m + art_rows.index(i) if flip[i] else n + i for i in range(m)]

    def priceout(cost: np.ndarray) -> np.ndarray:
        z = np.full(ncols + 1, zero, dtype=dtype)
        z[:-1] = -cost
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0:
                z += cb * tab[i]
        return z

    def pivot(leave: int, enter: int, z: np.ndarray) -> np.ndarray:
        piv = tab[leave, enter]
        tab[leave] /= piv
        col = tab[:, enter].copy()
        col[leave] = zero
        if exact:
            # an entry moves only where its row's entering entry and its
            # column's pivot-row entry are both nonzero
            moved, used = np.flatnonzero(col), np.flatnonzero(tab[leave])
            tab[np.ix_(moved, used)] -= np.outer(col[moved], tab[leave, used])
        else:
            np.subtract(tab, np.outer(col, tab[leave]), out=tab)
        if z[enter] != 0:
            z = z - z[enter] * tab[leave]
        basis[leave] = enter
        return z

    def pivot_loop(z: np.ndarray, n_allowed: int) -> np.ndarray:
        for _ in range(50_000):
            enter = -1
            for j in range(n_allowed):
                if z[j] < -eps:
                    enter = j
                    break
            if enter < 0:
                return z
            leave, best = -1, math.inf
            for i in range(m):
                coef = tab[i, enter]
                if coef > eps:
                    ratio = tab[i, -1] / coef
                    if ratio < best - eps or (
                        ratio <= best + eps and leave >= 0 and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                raise NumericalFailure("flow program is unbounded")
            z = pivot(leave, enter, z)
        raise NumericalFailure("simplex did not converge")

    if k:
        cost1 = np.full(ncols, zero, dtype=dtype)
        cost1[n + m :] = -one
        z = pivot_loop(priceout(cost1), ncols)
        if z[-1] < -feas_tol:
            raise InfeasibleBoundary("no flow satisfies the fixed boundary values")
        # An artificial still basic (at zero) leaves for the first original
        # or slack column nonzero in its row.  Its own constraint's slack
        # column is the negated artificial column, so its entry there is -1
        # and such a column always exists.
        for i in range(m):
            if basis[i] >= n + m:
                enter = next(j for j in range(n + m) if abs(tab[i, j]) > eps)
                z = pivot(i, enter, z)

    cost2 = np.full(ncols, zero, dtype=dtype)
    cost2[:n] = c
    z = pivot_loop(priceout(cost2), n + m)
    x = [0.0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = float(tab[i, -1])
    return float(z[-1]), x


# ---------------------------------------------------------------------------
# Golden fixtures.
# ---------------------------------------------------------------------------


def dump_fixture(spec: InstanceSpec) -> dict:
    """Self-contained golden record: the spec, the network it generates,
    and the expected cut/flow results from the independent references."""
    instance = random_instance(spec)
    net = instance.network
    mincut_value, _ = brute_min_cut(net)
    maxflow_value = brute_max_flow(net)
    flow = max_flow(net)
    return {
        "spec": {
            "seed": spec.seed,
            "layers": list(spec.layer_sizes),
            "family_weights": dict(spec.family_weights),
        },
        "network": network_to_dict(net, list(instance.models)),
        "expected": {
            "mincut": mincut_value,
            "maxflow": maxflow_value,
            "flow": {node.key(): value for node, value in sorted(flow.values.items())},
        },
    }
