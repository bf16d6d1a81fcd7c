"""Independent brute-force references used by the test suite: exhaustive
min-cut enumeration, a one-shot linear program over every node-flow
constraint, and a seeded instance generator.

The flow reference shares no solver code with the construction in
:mod:`relayflow.cutflow`: it assembles the full constraint matrix in one
piece and solves it with its own two-phase simplex, in exact rational
arithmetic when every capacity is integral and in floating point
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
    InfeasibleBoundary,
    InputError,
    NumericalFailure,
    TooLarge,
)
from .fileformat import network_to_dict
from .netgraph import Cut, LayeredNetwork, NodeId, build_network

_MASK64 = (1 << 64) - 1

FAMILIES = ("additive", "rank_gf2", "gaussian", "discrete")


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
        assert report.passed, f"generated {family} oracle failed axioms: {report.counterexample}"
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
    assert best_combo is not None
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
    if exact:
        value, _ = _lp_max_exact(rows, rhs, objective)
    else:
        value, _ = _lp_max_float(rows, rhs, objective)
    return value


def _lp_max_float(
    rows: Sequence[Sequence[float]], rhs: Sequence[float], objective: Sequence[float]
) -> tuple[float, list[float]]:
    """Two-phase tableau simplex (float): max c.x, A x <= b, x >= 0."""
    a = np.asarray(rows, dtype=float).copy()
    b = np.asarray(rhs, dtype=float).copy()
    c = np.asarray(objective, dtype=float)
    m, n = a.shape
    eps = 1e-9
    flip = b < 0
    a[flip] *= -1.0
    b[flip] *= -1.0
    art_rows = list(np.flatnonzero(flip))
    k = len(art_rows)
    ncols = n + m + k
    tab = np.zeros((m, ncols + 1))
    tab[:, :n] = a
    for i in range(m):
        tab[i, n + i] = -1.0 if flip[i] else 1.0
    for j, i in enumerate(art_rows):
        tab[i, n + m + j] = 1.0
    tab[:, -1] = b
    basis = [n + m + art_rows.index(i) if flip[i] else n + i for i in range(m)]

    def priceout(cost: np.ndarray) -> np.ndarray:
        z = np.zeros(tab.shape[1])
        z[:-1] = -cost[: tab.shape[1] - 1]
        for i in range(tab.shape[0]):
            cb = cost[basis[i]]
            if cb != 0.0:
                z += cb * tab[i]
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
            for i in range(tab.shape[0]):
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
            piv = tab[leave, enter]
            tab[leave] /= piv
            col = tab[:, enter].copy()
            col[leave] = 0.0
            np.subtract(tab, np.outer(col, tab[leave]), out=tab)
            if z[enter] != 0.0:
                z = z - z[enter] * tab[leave]
            basis[leave] = enter
        raise NumericalFailure("simplex did not converge")

    if k:
        cost1 = np.zeros(ncols)
        cost1[n + m :] = -1.0
        z = priceout(cost1)
        z = pivot_loop(z, ncols)
        if z[-1] < -1e-7:
            raise InfeasibleBoundary("no flow satisfies the fixed boundary values")
        keep = []
        for i in range(tab.shape[0]):
            if basis[i] < n + m:
                keep.append(i)
                continue
            pivots = [j for j in range(n + m) if abs(tab[i, j]) > eps]
            if not pivots:
                continue  # dependent row
            enter = pivots[0]
            piv = tab[i, enter]
            tab[i] /= piv
            col = tab[:, enter].copy()
            col[i] = 0.0
            tab -= np.outer(col, tab[i])
            basis[i] = enter
            keep.append(i)
        if len(keep) != tab.shape[0]:
            tab = tab[keep]
            basis = [basis[i] for i in keep]

    cost2 = np.zeros(ncols)
    cost2[:n] = c
    z = priceout(cost2)
    z = pivot_loop(z, n + m)
    x = [0.0] * n
    for i in range(tab.shape[0]):
        if basis[i] < n:
            x[basis[i]] = float(tab[i, -1])
    return float(z[-1]), x


def _lp_max_exact(
    rows: Sequence[Sequence[float]], rhs: Sequence[float], objective: Sequence[float]
) -> tuple[float, list[float]]:
    """Two-phase tableau simplex in exact rational arithmetic."""
    zero, one = Fraction(0), Fraction(1)
    a = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x) for x in rhs]
    c = [Fraction(x) for x in objective]
    m, n = len(a), len(c)
    flip = [bi < 0 for bi in b]
    art_rows = [i for i in range(m) if flip[i]]
    k = len(art_rows)
    ncols = n + m + k
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = [zero] * (ncols + 1)
        coeffs = [-x for x in a[i]] if flip[i] else a[i]
        row[:n] = coeffs
        row[n + i] = -one if flip[i] else one
        if flip[i]:
            row[n + m + art_rows.index(i)] = one
        row[-1] = -b[i] if flip[i] else b[i]
        tab.append(row)
    basis = [n + m + art_rows.index(i) if flip[i] else n + i for i in range(m)]

    def priceout(cost: list[Fraction]) -> list[Fraction]:
        z = [-cost[j] for j in range(ncols)] + [zero]
        for i in range(len(tab)):
            cb = cost[basis[i]]
            if cb:
                row = tab[i]
                for j in range(ncols + 1):
                    z[j] += cb * row[j]
        return z

    def do_pivot(leave: int, enter: int, z: list[Fraction]) -> list[Fraction]:
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        pivot_row = tab[leave]
        for i in range(len(tab)):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], pivot_row)]
        if z[enter]:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, pivot_row)]
        basis[leave] = enter
        return z

    def pivot_loop(z: list[Fraction], n_allowed: int) -> list[Fraction]:
        # Bland's rule exactly: cannot cycle
        while True:
            enter = -1
            for j in range(n_allowed):
                if z[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return z
            leave, best = -1, None
            for i in range(len(tab)):
                coef = tab[i][enter]
                if coef > 0:
                    ratio = tab[i][-1] / coef
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                raise NumericalFailure("flow program is unbounded")
            z = do_pivot(leave, enter, z)

    if k:
        cost1 = [zero] * ncols
        for j in range(n + m, ncols):
            cost1[j] = -one
        z = pivot_loop(priceout(cost1), ncols)
        if z[-1] < 0:
            raise InfeasibleBoundary("no flow satisfies the fixed boundary values")
        keep = []
        for i in range(len(tab)):
            if basis[i] < n + m:
                keep.append(i)
                continue
            enter = next((j for j in range(n + m) if tab[i][j]), None)
            if enter is None:
                continue  # dependent row
            z = do_pivot(i, enter, z)
            keep.append(i)
        if len(keep) != len(tab):
            tab[:] = [tab[i] for i in keep]
            basis[:] = [basis[i] for i in keep]

    cost2 = [zero] * ncols
    cost2[:n] = c
    z = pivot_loop(priceout(cost2), n + m)
    x = [0.0] * n
    for i in range(len(tab)):
        if basis[i] < n:
            x[basis[i]] = float(tab[i][-1])
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
