"""Capacity oracles over adjacent-layer subset pairs, and the layer models
that are their own oracles.

An oracle maps a pair ``(U, V)`` -- ``U`` a subset of the transmit layer,
``V`` a subset of the receive layer -- to a nonnegative value in bits per
symbol.  Five families are provided: additive entries, GF(2) matrix rank,
Gaussian log-det, explicit tables, and exact mutual information of a
discrete layer model.  Every family satisfies three axioms, which
``check_capacity_axioms`` verifies exhaustively:

1. bisubmodularity:
   ``value(U1|U2, V1&V2) + value(U1&U2, V1|V2) <= value(U1,V1) + value(U2,V2)``
2. non-decreasing under set inclusion,
3. zero whenever either argument is empty.

Every layer model subclasses :class:`LayerModel`, which gives rate planning
two columns, each tabulated once per model like a capacity table: the
quantizer leak of every receiver set and the information every transmitter
set carries to the raw received signals.  A Gaussian or discrete layer
pair is one object, capacity oracle and layer model in one, and
``oracle()`` returns the object itself.  ``DeterministicLayerModel`` wraps
any other oracle as a noiseless model.  The JSON form of an oracle lives
in :mod:`relayflow.fileformat`.

All logarithms are base 2.  Subsets are given as iterables of 1-based
node indices within the layer.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    InputError,
    NegativeRate,
    NonNormalizedPMF,
    NumericalFailure,
    OutOfRange,
    TooLarge,
    UnsupportedModel,
)

PMF_TOL = 1e-12

#: largest joint probability table a discrete layer model may require
MAX_JOINT_CELLS = 10_000_000

#: most relays of a joint-region check: ``3^12`` constraints
JOINT_GUARD_RELAYS = 12

#: largest layer-pair width (m_in + m_out) for exhaustive axiom checking
AXIOM_GUARD_BITS = 16

#: largest layer-pair width (m_in + m_out) for a dense capacity table:
#: 2^24 float64 cells, 128 MB
TABLE_GUARD_BITS = 24

#: per-layer subset enumeration guard: the widest layer of any network
LAYER_GUARD = 16

#: largest temporary array, in cells, of the blocked exhaustive checks
#: (64 KB of float64; larger blocks were no faster and raised peak RSS)
_BLOCK_CELLS = 1 << 13

#: largest chunk of a Gaussian table build, in bytes of its channel blocks
#: and Gram matrices.  A 9x9 build peaks 1.5 MB above its 2 MB table (17.75
#: MB in chunks of _BLOCK_CELLS cells); 256 KB to 4 MB built as fast.
_BLOCK_BYTES = 1 << 19

#: numpy's error state wherever finite input can overflow: inf and inf - inf =
#: NaN come out unwarned, as with Python floats, and every reader of a cell,
#: cut, excess or margin refuses them.  Decorator only: ``with`` cannot reenter.
_quiet_arithmetic = np.errstate(over="ignore", invalid="ignore")


def _require_finite(values, what: str) -> None:
    """Refuse NaN and +-infinity (either part of a complex number): every
    number relayflow takes must be finite."""
    if not np.isfinite(np.asarray(values)).all():
        raise InputError(f"{what} must be finite numbers, not NaN or infinity")


#: types ``math.isfinite`` takes that are not rates
_BOOLEANS = frozenset({bool, np.bool_})


def _require_rates(values: Sequence[float], what: str) -> None:
    """Refuse entries that are not real numbers (booleans included), then
    NaN and +-infinity, then negative numbers (``-0.0`` passes): every rate,
    flow and leak relayflow takes is checked here, and only here.  Plain
    Python comparisons, cheaper than a numpy call on the few flows
    ``max_flow`` passes at every step of its recursion."""
    try:
        finite = all(map(math.isfinite, values))
    except TypeError:  # a string, None, a complex number
        finite = None
    if finite is None or not _BOOLEANS.isdisjoint(map(type, values)):
        raise InputError(f"{what} must be real numbers, not booleans or other values")
    if not finite:
        raise InputError(f"{what} must be finite numbers, not NaN or infinity")
    if any(v < 0 for v in values):
        raise NegativeRate(f"{what} must be nonnegative")


def _to_mask(subset: Iterable[int], size: int) -> int:
    """Pack 1-based indices into a bitmask; bit ``i-1`` stands for index ``i``."""
    mask = 0
    for i in subset:
        if not 1 <= i <= size:
            raise OutOfRange(f"index {i} outside layer of size {size}")
        mask |= 1 << (i - 1)
    return mask


def _mask_indices(mask: int) -> tuple[int, ...]:
    """1-based indices of the set bits of ``mask``, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def _subset_sums(values: Sequence[float]) -> np.ndarray:
    """``sums[mask]``: total of ``values`` over the 1-based indices in ``mask``,
    added in ascending index order (``sum`` of them: 0 plus each in turn),
    as a float64 array: the list of totals, converted once."""
    sums = [0]
    for value in values:
        # masks with this index set: their highest index is added last
        sums += [total + value for total in sums]
    return np.array(sums, dtype=float)


def _entropy(p: np.ndarray) -> float:
    """Shannon entropy in bits; zero cells contribute zero.  The sum is
    negated after it is taken, so an array without a positive cell gives
    ``-0.0``."""
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def _entropies(rows: np.ndarray) -> np.ndarray:
    """``_entropy`` of each row of a 2-D array, bit for bit, as one array.

    ``_entropy`` takes numpy's pairwise sum of a row's positive cells, whose
    grouping depends only on their count ``k``.  So the rows are grouped by
    ``k``; each group's positive cells, in row order, form a C-contiguous
    ``(n, k)`` array, whose ``sum(axis=1)`` adds each row as ``.sum()``
    does.  The negation follows the sum, as there: a row without a positive
    cell gives ``-0.0``.
    """
    rows = np.asarray(rows, dtype=float)
    positive = rows > 0.0
    counts = positive.sum(axis=1)
    out = np.empty(len(rows))
    for k in np.unique(counts):
        members = np.flatnonzero(counts == k)
        nz = rows[members][positive[members]].reshape(members.size, k)
        out[members] = -(nz * np.log2(nz)).sum(axis=1)
    return out


class CapacityOracle:
    """Base class; concrete families implement ``_value(umask, vmask)``."""

    kind: str = "abstract"
    _dense: np.ndarray | None = None

    def __init__(self, dims: tuple[int, int]):
        m_in, m_out = dims
        if m_in < 1 or m_out < 1:
            raise InputError("oracle dimensions must be positive")
        self.dims = (int(m_in), int(m_out))

    def value(self, transmitters: Iterable[int], receivers: Iterable[int]) -> float:
        """Capacity value of (U, V) in bits/symbol; exactly 0.0 if either is empty."""
        umask = _to_mask(transmitters, self.dims[0])
        vmask = _to_mask(receivers, self.dims[1])
        return self.value_masks(umask, vmask)

    @_quiet_arithmetic
    def value_masks(self, umask: int, vmask: int) -> float:
        if umask == 0 or vmask == 0:
            return 0.0
        if umask >> self.dims[0] or vmask >> self.dims[1]:
            raise OutOfRange("subset mask outside oracle dimensions")
        return self._value(umask, vmask)

    def _value(self, umask: int, vmask: int) -> float:
        raise NotImplementedError

    def table(self) -> np.ndarray:
        """Every cell as a ``2^m_in x 2^m_out`` float64 array indexed by
        ``[umask, vmask]``, built on first use and cached, read-only.

        Nonempty cells are computed by :meth:`_cells` in chunks that share
        ``|U|`` and ``|V|``, of at most ``_BLOCK_CELLS`` cells (Gaussian
        oracles: ``_BLOCK_BYTES`` bytes of channel blocks and Gram
        matrices; discrete oracles go one receiver set at a time).  Each
        family's batched builder repeats its scalar definition's float
        operations, so every cell equals the one-cell value bit for bit.

        Raises:
            TooLarge: if ``m_in + m_out`` exceeds ``TABLE_GUARD_BITS``.
        """
        if self._dense is None:
            if sum(self.dims) > TABLE_GUARD_BITS:
                raise TooLarge(
                    f"capacity table limited to {TABLE_GUARD_BITS} nodes per layer pair"
                )
            self._dense = self._build_table()
        return self._dense

    @_quiet_arithmetic
    def _build_table(self) -> np.ndarray:
        m_in, m_out = self.dims
        dense = np.empty((1 << m_in, 1 << m_out))
        # zero whenever either side is empty
        self._fill(dense, np.arange(1 << m_in), 0, 0.0)
        self._fill(dense, 0, np.arange(1, 1 << m_out), 0.0)
        for umasks, vmasks, values in self._nonempty_cells():
            self._fill(dense, umasks, vmasks, values)
        dense.flags.writeable = False
        return dense

    def _fill(self, dense: np.ndarray, umasks, vmasks, values) -> None:
        """Write cells ``(umasks, vmasks)`` of a table being built.  Every
        cell passes through here exactly once, which tests observe."""
        dense[umasks, vmasks] = values

    def _nonempty_cells(self):
        """Yield ``(umasks, vmasks, values)`` covering each nonempty cell once."""
        for umasks, vmasks, upos, vpos in _cell_chunks(*self.dims, self._chunk_cells):
            yield umasks, vmasks, self._cells(umasks, vmasks, upos, vpos)

    def _chunk_cells(self, n_u: int, n_v: int) -> int:
        """Most cells per :meth:`_cells` call when ``|U| = n_u``, ``|V| = n_v``."""
        return _BLOCK_CELLS

    def _cells(
        self, umasks: np.ndarray, vmasks: np.ndarray, upos: np.ndarray, vpos: np.ndarray
    ) -> np.ndarray:
        """Values of nonempty cells sharing ``|U|`` and ``|V|``, given with
        their masks' set-bit positions (``_SubsetIndex.positions`` rows); the
        default evaluates ``_value`` cell by cell."""
        return np.array([self._value(int(u), int(v)) for u, v in zip(umasks, vmasks)])


class LayerModel:
    """What rate planning reads of a layer pair beside its capacities: the
    quantizer leak and the information at the raw received signals, each
    tabulated once per model, on first use, read-only.  A family supplies
    its per-receiver leak terms (``_receiver_leaks``), the raw information
    of one nonempty cell (``_mi_received_masks``) and of every transmitter
    mask against all receivers (``_received_column``), and its ``kind``."""

    kind: str
    dims: tuple[int, int]
    _leaks: np.ndarray | None = None
    _received: np.ndarray | None = None

    def oracle(self) -> CapacityOracle:
        """The capacity oracle of the pair: the model itself."""
        return self

    def leak(self, receivers: Iterable[int] | None = None) -> float:
        """``I(Yq_W ; Y_W | X_all)`` at the given receivers (all by default):
        their :meth:`leak_column` entry, added from their terms alone."""
        m_out = self.dims[1]
        mask = (1 << m_out) - 1 if receivers is None else _to_mask(receivers, m_out)
        terms = (self._leak_terms[w - 1] for w in _mask_indices(mask))
        return max(0.0, functools.reduce(operator.add, terms, 0.0))

    @functools.cached_property
    def _leak_terms(self) -> list[float]:
        return self._receiver_leaks()

    def leak_column(self) -> np.ndarray:
        """``leak(W)`` of every receiver mask ``W``, indexed by ``W``: the
        per-receiver terms added in ascending receiver order, floored at 0
        (a NaN or signed-zero total gives 0.0, as ``max(0.0, total)``)."""
        if self._leaks is None:
            sums = _subset_sums(self._leak_terms)
            column = np.where(sums > 0.0, sums, 0.0)
            column.flags.writeable = False
            self._leaks = column
        return self._leaks

    def mi_received(self, transmitters: Iterable[int], receivers: Iterable[int]) -> float:
        """Mutual information against the raw (unquantized) received signals."""
        umask = _to_mask(transmitters, self.dims[0])
        vmask = _to_mask(receivers, self.dims[1])
        if umask == 0 or vmask == 0:
            return 0.0
        return self._mi_received_masks(umask, vmask)

    def mi_received_column(self) -> np.ndarray:
        """``mi_received(U, all receivers)`` of every transmitter mask ``U``,
        indexed by ``U``."""
        if self._received is None:
            column = self._received_column()
            column.flags.writeable = False
            self._received = column
        return self._received


class _SubsetIndex(NamedTuple):
    """Every subset mask of one layer width, grouped by size: ``by_popcount[k]``
    lists the masks of ``k`` set bits ascending (``int64``), ``positions[k]``
    their 0-based set-bit positions ascending, one ``uint8`` row of ``k`` per
    mask, ``rank[mask]`` the mask's row in its group (``int32``) and
    ``popcount[mask]`` its size (``uint8``).  All arrays are read-only."""

    by_popcount: tuple[np.ndarray, ...]
    positions: tuple[np.ndarray, ...]
    rank: np.ndarray
    popcount: np.ndarray

    def positions_of(self, masks: np.ndarray) -> np.ndarray:
        """The ``positions`` rows of ``masks``, which share one popcount."""
        return self.positions[self.popcount[masks[0]]][self.rank[masks]]


def _build_subset_index(width: int) -> _SubsetIndex:
    masks = np.arange(1 << width)
    popcount = np.zeros(masks.size, dtype=np.uint8)
    for bit in range(width):
        popcount += (masks >> bit & 1).astype(np.uint8)
    rank = np.empty(masks.size, dtype=np.int32)
    by_popcount, positions = [], []
    for k in range(width + 1):
        group = masks[popcount == k]
        rank[group] = np.arange(group.size)
        # fill each row's positions left to right, one bit at a time
        pos = np.empty((group.size, k), dtype=np.uint8)
        filled = np.zeros(group.size, dtype=np.intp)
        for bit in range(width):
            rows = np.flatnonzero(group >> bit & 1)
            pos[rows, filled[rows]] = bit
            filled[rows] += 1
        by_popcount.append(group)
        positions.append(pos)
    for arr in (*by_popcount, *positions, rank, popcount):
        arr.flags.writeable = False
    return _SubsetIndex(tuple(by_popcount), tuple(positions), rank, popcount)


#: subset indexes up to ``LAYER_GUARD`` bits, kept.  A wider side, which
#: only a table built directly from its oracle has, gets an index for that
#: table alone.
_kept_subset_index = functools.cache(_build_subset_index)


def _subset_index(width: int) -> _SubsetIndex:
    """The :class:`_SubsetIndex` of ``width``-bit masks, built once per
    width up to ``LAYER_GUARD`` and kept.

    It holds ``(13 + width / 2) * 2^width`` bytes of arrays: 1,376,256
    (1.3 MB) at 16, 2,112 at 7.
    """
    if width > LAYER_GUARD:
        return _build_subset_index(width)
    return _kept_subset_index(width)


def _cell_chunks(m_in: int, m_out: int, chunk_cells):
    """The nonempty cells of a ``2^m_in x 2^m_out`` table as ``(umasks,
    vmasks, upos, vpos)``: masks and their ``_SubsetIndex.positions`` rows,
    grouped by ``(|U|, |V|)``, at most ``chunk_cells(|U|, |V|)`` cells per
    chunk."""
    index_u, index_v = _subset_index(m_in), _subset_index(m_out)
    for n_u in range(1, m_in + 1):
        us, upos = index_u.by_popcount[n_u], index_u.positions[n_u]
        for n_v in range(1, m_out + 1):
            vs, vpos = index_v.by_popcount[n_v], index_v.positions[n_v]
            n, step = us.size * vs.size, chunk_cells(n_u, n_v)
            for lo in range(0, n, step):
                i, j = np.divmod(np.arange(lo, min(lo + step, n)), vs.size)
                yield us[i], vs[j], upos[i], vpos[j]


def _size_chunks(umasks: np.ndarray, vmasks: np.ndarray, index: _SubsetIndex):
    """Index arrays into ``(umasks, vmasks)``, masks of ``index``'s width,
    grouping the pairs by ``(|U|, |V|)``, at most ``_BLOCK_CELLS`` per chunk."""
    # |U| in the high byte, |V| in the low one
    key = index.popcount[umasks].astype(np.intp) << 8 | index.popcount[vmasks]
    order = np.argsort(key, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        for lo in range(0, group.size, _BLOCK_CELLS):
            yield group[lo : lo + _BLOCK_CELLS]


def _blocks(mat: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``mat[np.ix_(rows[i], cols[i])]`` of every row pair of two position
    arrays (broadcast against each other), stacked."""
    return mat[rows[:, :, None], cols[:, None, :]]


class AdditiveOracle(CapacityOracle):
    """Sum of per-link capacities ``c[u][v]`` over the chosen pair."""

    kind = "additive"

    def __init__(self, matrix: Sequence[Sequence[float]]):
        c = np.asarray(matrix, dtype=float)
        if c.ndim != 2:
            raise InputError("additive capacity matrix must be 2-D")
        _require_finite(c, "additive capacity entries")
        if (c < 0).any():
            raise InputError("additive capacity entries must be nonnegative")
        super().__init__((c.shape[0], c.shape[1]))
        self.matrix = c

    def _value(self, umask: int, vmask: int) -> float:
        rows = [i - 1 for i in _mask_indices(umask)]
        cols = [j - 1 for j in _mask_indices(vmask)]
        return float(self.matrix[np.ix_(rows, cols)].sum())

    def _cells(self, umasks, vmasks, upos, vpos) -> np.ndarray:
        # one C-order row per cell: the same pairwise sum as ``_value``'s
        return _blocks(self.matrix, upos, vpos).reshape(umasks.size, -1).sum(axis=-1)


class RankGF2Oracle(CapacityOracle):
    """Rank over GF(2) of the transfer submatrix ``g[V, U]``.

    ``g`` has one row per receiver and one column per transmitter, so a
    receive vector is the GF(2)-linear image of the transmit vector.
    """

    kind = "rank_gf2"

    def __init__(self, matrix: Sequence[Sequence[int]]):
        g = np.asarray(matrix, dtype=float)
        if g.ndim != 2:
            raise InputError("GF(2) transfer matrix must be 2-D")
        # NaN and +-inf are not in (0, 1) either
        if not np.isin(g, (0, 1)).all():
            raise InputError("GF(2) transfer matrix entries must be 0 or 1")
        g = g.astype(int)
        super().__init__((g.shape[1], g.shape[0]))
        self.matrix = g
        # each row packed as an int over transmitter columns
        self._packed_rows = [
            sum(int(g[w, u]) << u for u in range(g.shape[1])) for w in range(g.shape[0])
        ]

    def _value(self, umask: int, vmask: int) -> float:
        rows = [
            self._packed_rows[w - 1] & umask for w in _mask_indices(vmask)
        ]
        return float(_gf2_rank(rows))

    def _cells(self, umasks, vmasks, upos, vpos) -> np.ndarray:
        packed = np.array(self._packed_rows)[vpos]
        basis: list[np.ndarray] = []
        # ``_gf2_rank`` on every cell at once; a zero row in the basis is inert
        for row in (packed & umasks[:, None]).T:
            for b in basis:
                row = np.where(row & (b & -b), row ^ b, row)
            basis.append(row)
        return np.count_nonzero(basis, axis=0).astype(float)


def _gf2_rank(rows: list[int]) -> int:
    """Rank of bit-packed rows via Gaussian elimination on the low set bit."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            basis.append(row)
    return len(basis)


class GaussianLogDetOracle(CapacityOracle, LayerModel):
    """Complex linear Gaussian layer, capacity oracle and layer model in one
    (``GaussianLayerModel`` is another name for it).

    ``h`` has one row per receiver and one column per transmitter; inputs
    are independent unit circular Gaussians.  Receiver noise and the
    quantization noise added to the received signal both have variance 1,
    so the capacity ``log2 det(I + H[V,U] H[V,U]^* / 2)`` carries a 1/2, and
    the leak is exactly 1 bit per receiver.
    """

    kind = "gaussian"

    def __init__(self, h: Sequence[Sequence[complex]]):
        hm = np.asarray(h, dtype=complex)
        if hm.ndim != 2:
            raise InputError("channel matrix must be 2-D")
        _require_finite(hm, "channel matrix entries")
        super().__init__((hm.shape[1], hm.shape[0]))
        self.h = hm

    def _value(self, umask: int, vmask: int) -> float:
        return _logdet_mi(self.h, umask, vmask, noise=2.0)

    def _cells(self, umasks, vmasks, upos, vpos) -> np.ndarray:
        return _logdet_mi_stack(_blocks(self.h, vpos, upos), noise=2.0)

    def _chunk_cells(self, n_u: int, n_v: int) -> int:
        # a cell's (|V|, |U|) channel block and (|V|, |V|) Gram matrix, complex
        return max(1, _BLOCK_BYTES // (16 * n_v * (n_u + n_v)))

    def _receiver_leaks(self) -> list[float]:
        return [1.0] * self.dims[1]

    def _mi_received_masks(self, umask: int, vmask: int) -> float:
        return _logdet_mi(self.h, umask, vmask, noise=1.0)

    def _received_column(self) -> np.ndarray:
        """One batched log-det per ``|U|``, with ``_logdet_mi``'s float operations."""
        m_in, m_out = self.dims
        index = _subset_index(m_in)
        receivers = np.arange(m_out)[None]
        column = np.zeros(1 << m_in)
        for umasks, upos in zip(index.by_popcount[1:], index.positions[1:]):
            column[umasks] = _logdet_mi_stack(_blocks(self.h, receivers, upos), noise=1.0)
        return column


GaussianLayerModel = GaussianLogDetOracle


def _cholesky(gram: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky``, whose breakdown (tied gains near ``1e8`` swamp
    the identity in float64) is a numerical failure, not an input error."""
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Gaussian log-det: Cholesky failed ({exc})") from exc


@_quiet_arithmetic
def _logdet_mi(h: np.ndarray, umask: int, vmask: int, noise: float) -> float:
    """``log2 det(I + H_sub H_sub^* / noise)`` via Cholesky in the log domain."""
    rows = [w - 1 for w in _mask_indices(vmask)]
    cols = [u - 1 for u in _mask_indices(umask)]
    sub = h[np.ix_(rows, cols)]
    gram = np.eye(len(rows), dtype=complex) + sub @ sub.conj().T / noise
    gram = (gram + gram.conj().T) / 2.0
    chol = _cholesky(gram)
    return float(2.0 * np.log2(np.real(np.diag(chol))).sum())


@_quiet_arithmetic
def _logdet_mi_stack(sub: np.ndarray, noise: float) -> np.ndarray:
    """``_logdet_mi`` of each matrix in a ``(k, receivers, senders)`` stack of
    channel submatrices, with the same float operations per matrix."""
    gram = np.eye(sub.shape[1], dtype=complex) + sub @ sub.conj().swapaxes(1, 2) / noise
    gram = (gram + gram.conj().swapaxes(1, 2)) / 2.0
    chol = _cholesky(gram)
    return 2.0 * np.log2(np.real(np.diagonal(chol, axis1=1, axis2=2))).sum(axis=-1)


class ExplicitTableOracle(CapacityOracle):
    """Capacity values stored per subset pair; unlisted pairs default to 0."""

    kind = "table"

    def __init__(
        self,
        dims: tuple[int, int],
        values: dict[tuple[tuple[int, ...], tuple[int, ...]], float],
    ):
        super().__init__(dims)
        self._table: dict[tuple[int, int], float] = {}
        for (u, v), val in values.items():
            umask = _to_mask(u, self.dims[0])
            vmask = _to_mask(v, self.dims[1])
            val = float(val)
            _require_finite(val, "table values")
            if (umask == 0 or vmask == 0) and val != 0.0:
                raise InputError("table entries with an empty side must be 0")
            self._table[(umask, vmask)] = val

    def _value(self, umask: int, vmask: int) -> float:
        return self._table.get((umask, vmask), 0.0)


@dataclass
class AxiomReport:
    """Outcome of the exhaustive capacity-axiom check."""

    passed: bool
    bisubmodular: bool
    monotone: bool
    zero_on_empty: bool
    counterexample: dict | None
    n_checks: int


def _leq(lhs: float, rhs: float, tol: float) -> bool:
    """lhs <= rhs with absolute tolerance scaled by max(1, magnitude)."""
    return lhs <= rhs + tol * max(1.0, abs(lhs), abs(rhs))


def _leq_cells(
    lhs: np.ndarray, rhs: np.ndarray, tol: float, bound: np.ndarray | None = None
) -> np.ndarray:
    """``_leq`` cell by cell: ``lhs <= rhs + tol * max(1, |lhs|, |rhs|)``.

    ``bound``, of ``lhs``'s shape, is scratch space (allocated when not
    given).  ``|lhs|`` is taken as ``max(lhs, -lhs)`` by negating ``lhs`` in
    place and back, which is exact, so no other float array is allocated.
    """
    bound = np.abs(rhs, out=bound)
    np.maximum(bound, 1.0, out=bound)
    np.maximum(bound, lhs, out=bound)
    np.maximum(bound, np.negative(lhs, out=lhs), out=bound)
    np.negative(lhs, out=lhs)
    bound *= tol
    bound += rhs
    return lhs <= bound


def check_capacity_axioms(oracle: CapacityOracle, tol: float = 1e-9) -> AxiomReport:
    """Exhaustively verify bisubmodularity, monotonicity, and zero-on-empty.

    Every check compares two table cells with ``_leq``, except zero-on-empty,
    which requires exact zeros.  The counterexample is the first failing
    check in this order:

    1. zero-on-empty: the ``V = {}`` column by ascending ``U``, then the
       ``U = {}`` row by ascending ``V``; each stops at its first failure;
    2. monotonicity, single-element steps: by ``(U, V)`` in row-major mask
       order, adding each absent transmitter, then each absent receiver, in
       ascending index order;
    3. bisubmodularity: by ``(U1, V1, U2, V2)`` mask order with
       ``U2 >= U1`` and, when ``U2 == U1``, ``V2 >= V1``.

    ``n_checks`` counts every check of families 2 and 3 and the zero checks
    made up to each one's first failure.  Families 2 and 3 are whole-table
    comparisons: family 2 one per added node, family 3 in blocks of at most
    ``_BLOCK_CELLS`` cells (several ``U1`` each on small tables), or one row
    over ``V2`` where that is longer.  Each comparison first takes the plain
    margins ``rhs - lhs`` (:func:`_plainly_leq`): when all are finite and at
    least ``-tol / 2`` (``0 <= tol < inf``), every cell provably passes
    ``_leq`` and the comparison is done; otherwise ``_leq_cells`` decides
    cell by cell.  The report is the same either way.

    Raises:
        InputError, NegativeRate: a ``tol`` that is not a real number, NaN,
            infinite or negative, first.
        TooLarge: if the layer pair exceeds the enumeration guard
            (``m_in + m_out`` above 16).
        NumericalFailure: a table cell is NaN or infinite (an overflowing
            sum, say); it names the first such cell in row-major order.
    """
    _require_rates([tol], "tol")
    m_in, m_out = oracle.dims
    if m_in + m_out > AXIOM_GUARD_BITS:
        raise TooLarge(
            f"axiom check limited to {AXIOM_GUARD_BITS} nodes per layer pair"
        )
    nu, nv = 1 << m_in, 1 << m_out
    tab = oracle.table()
    if not np.isfinite(tab).all():
        u, v = np.argwhere(~np.isfinite(tab))[0].tolist()
        raise NumericalFailure(
            f"capacity at U={list(_mask_indices(u))}, V={list(_mask_indices(v))} "
            f"is {tab[u, v]}, not a finite number"
        )
    counterexample = None

    n_checks = 0
    for cells, side in ((tab[:, 0], "U"), (tab[0], "V")):
        bad = np.flatnonzero(cells != 0.0)
        n_checks += int(bad[0]) + 1 if bad.size else cells.size
        if bad.size and counterexample is None:
            empty = {"U": (), "V": ()}
            empty[side] = _mask_indices(int(bad[0]))
            counterexample = {"axiom": "zero_on_empty", **empty}
    zero_ok = counterexample is None

    # single-element steps imply monotonicity along every inclusion chain
    monotone = _first_monotone_failure(tab, m_in, m_out, tol)
    bisubmodular = _first_bisubmodular_failure(tab, tol)
    n_checks += nu * nv * (m_in + m_out) // 2
    n_checks += nv * nv * nu * (nu - 1) // 2 + nu * nv * (nv + 1) // 2
    mono_ok, bisub_ok = monotone is None, bisubmodular is None
    counterexample = counterexample or monotone or bisubmodular

    return AxiomReport(
        passed=zero_ok and mono_ok and bisub_ok,
        bisubmodular=bisub_ok,
        monotone=mono_ok,
        zero_on_empty=zero_ok,
        counterexample=counterexample,
        n_checks=n_checks,
    )


def _plainly_leq(lhs: np.ndarray, rhs: np.ndarray, tol: float) -> bool:
    """Whether every cell passes ``_leq(lhs, rhs, tol)`` by the plain
    comparison alone: ``0 <= tol < inf`` and every margin ``rhs - lhs``
    finite and at least ``-tol / 2``.  ``lhs`` and ``rhs`` are only read.

    A finite margin has finite operands, and the rounded difference of two
    floats is within a factor ``1 +- 2^-53`` of the exact one, so ``rhs +
    tol > lhs`` exactly (``rhs >= lhs`` when ``tol = 0``).  Rounding is
    monotone and ``lhs`` is a float, so ``lhs <= fl(rhs + tol)``, and the
    bound ``rhs + tol * max(1, |lhs|, |rhs|)`` is no smaller.  ``False``
    claims nothing, and the caller runs ``_leq_cells``.  That is always so
    for NaN, for overflowed sums (with ``tol = 0`` an infinite operand makes
    the bound ``0 * inf = NaN``, which fails) and for a negative, NaN or
    infinite ``tol``: at ``tol = inf`` the margin ``-inf`` of ``rhs = -inf``
    is not below ``-tol / 2``, yet ``_leq``'s bound ``-inf + inf`` is NaN.
    """
    if not 0.0 <= tol < math.inf:
        return False
    margins = np.subtract(rhs, lhs)
    return bool(margins.min() >= -0.5 * tol and margins.max() < math.inf)


@_quiet_arithmetic
def _first_monotone_failure(
    tab: np.ndarray, m_in: int, m_out: int, tol: float
) -> dict | None:
    """First failing step ``tab[U, V] <= tab[U + i, V]`` (transmitters ``i``)
    or ``tab[U, V] <= tab[U, V + j]`` (receivers ``j``) in ``(U, V, step)``
    order, steps ordered transmitters first, each by ascending index.  A
    one-argument set function is the ``m_out = 0`` case: a one-column
    ``tab``, whose steps add one element each, in ``(U, element)`` order.

    A step compares two strided views of the table: the cells whose mask
    lacks the added node, with the mask split into the bits above and below
    it, and the same cells with it."""
    nu, nv = tab.shape
    first = None  # (U, V, step)
    for step in range(m_in + m_out):
        if step < m_in:
            bit = step
            pairs = tab.reshape(-1, 2, 1 << bit, nv)
            without, with_node = pairs[:, 0], pairs[:, 1]
        else:
            bit = step - m_in
            pairs = tab.reshape(nu, -1, 2, 1 << bit)
            without, with_node = pairs[:, :, 0], pairs[:, :, 1]
        if _plainly_leq(without, with_node, tol):
            continue
        failed = ~_leq_cells(without.copy(), with_node, tol)
        if failed.any():
            a, b, c = (int(i) for i in np.unravel_index(int(np.argmax(failed)), failed.shape))
            cell = (a << (bit + 1) | b, c) if step < m_in else (a, b << (bit + 1) | c)
            first = min(first or (*cell, step), (*cell, step))
    if first is None:
        return None
    u, v, step = first
    if step < m_in:
        key, added, larger = "added_transmitter", step + 1, (u | 1 << step, v)
    else:
        key, added, larger = "added_receiver", step - m_in + 1, (u, v | 1 << (step - m_in))
    return {
        "axiom": "monotone",
        "U": _mask_indices(u),
        "V": _mask_indices(v),
        key: added,
        "value": float(tab[u, v]),
        "larger_set_value": float(tab[larger]),
    }


@_quiet_arithmetic
def _first_bisubmodular_failure(tab: np.ndarray, tol: float) -> dict | None:
    """First failing check of ``tab[U1|U2, V1&V2] + tab[U1&U2, V1|V2] <=
    tab[U1, V1] + tab[U2, V2]`` in ``(U1, V1, U2, V2)`` order, over
    ``U2 >= U1`` and, on ``U2 == U1``, ``V2 >= V1``.  On a one-column
    ``tab`` (a one-argument set function, ``m_out = 0``) every ``V`` is
    empty and this is submodularity, by ``(U1, U2 >= U1)``.

    The cells are taken in C-order blocks ``(U1, V1, U2, V2)`` of at most
    ``_BLOCK_CELLS`` cells, or one ``V2`` row where that is longer.  A block
    holds as many consecutive ``U1`` as fit with all of ``(V1, U2, V2)`` for
    ``U2`` from the first of them; its cells with ``U2`` before their own
    ``U1`` are computed but not checked (each mirrors a check of an earlier
    ``U1``).  Where one ``U1`` does not fit, its block holds whole ``(U2,
    V2)`` planes for some ``V1``, or some rows of one plane.  So the first
    failing cell of the first failing block is the first failure.
    """
    nu, nv = tab.shape
    cells = tab.ravel()
    v_all = np.arange(nv)
    u_step = max(1, _BLOCK_CELLS // nv)
    u1_lo = 0
    while u1_lo < nu:
        n_u2 = nu - u1_lo
        u1 = np.arange(u1_lo, min(nu, u1_lo + max(1, _BLOCK_CELLS // (n_u2 * nv * nv))))
        v_step = max(1, _BLOCK_CELLS // (n_u2 * nv))
        for v_lo in range(0, nv, v_step):
            v1 = v_all[v_lo : v_lo + v_step]
            v_and = (v1[:, None] & v_all)[None, :, None, :]
            v_or = (v1[:, None] | v_all)[None, :, None, :]
            for u_lo in range(u1_lo, nu, u_step):
                u2 = np.arange(u_lo, min(u_lo + u_step, nu))
                lhs = cells.take((u1[:, None] | u2)[:, None, :, None] * nv + v_and)
                lhs += cells.take((u1[:, None] & u2)[:, None, :, None] * nv + v_or)
                rhs = tab[u1, v_lo : v_lo + v_step][:, :, None, None] + tab[u2]
                if _plainly_leq(lhs, rhs, tol):
                    continue
                failed = ~_leq_cells(lhs, rhs, tol)
                if u_lo == u1_lo:
                    # U2 > U1, or U2 == U1 and V2 >= V1
                    later = (u2 > u1[:, None])[:, None, :, None]
                    same = (u2 == u1[:, None])[:, None, :, None]
                    failed &= later | same & (v_all >= v1[:, None])[None, :, None, :]
                if failed.any():
                    i, j, k, v2 = np.unravel_index(int(np.argmax(failed)), failed.shape)
                    return {
                        "axiom": "bisubmodular",
                        "U1": _mask_indices(int(u1[i])),
                        "V1": _mask_indices(int(v1[j])),
                        "U2": _mask_indices(int(u2[k])),
                        "V2": _mask_indices(int(v2)),
                        "lhs": float(lhs[i, j, k, v2]),
                        "rhs": float(rhs[i, j, k, v2]),
                    }
        u1_lo += u1.size
    return None


# ---------------------------------------------------------------------------
# Layer models: the discrete one and the deterministic wrapper.  The base
# class and the Gaussian model are above.
# ---------------------------------------------------------------------------

#: largest layer pair (m_in + m_out) of a discrete oracle, whose every
#: table cell sums over a joint pmf
DISCRETE_GUARD_BITS = 12


class DiscreteLayerModel(CapacityOracle, LayerModel):
    """Finite-alphabet layer: independent per-transmitter input pmfs, one
    channel conditional per receiver, one quantizer conditional per receiver.

    As a capacity oracle its value is the exact mutual information
    ``I(X_U ; Yq_V | X_rest)`` between ``X_U`` and the quantized outputs of
    ``V``, conditioned on the remaining transmitters of the layer.

    Shapes:
        ``input_pmfs[u]``: 1-D over the alphabet of transmitter ``u``.
        ``channels[w]``: input axes in transmitter order, then the receive
            axis, i.e. ``p(y_w | x_1..x_m)``.
        ``quantizers[w]``: rows over the receive alphabet, columns over the
            quantized alphabet, i.e. ``p(yq_w | y_w)``.
    """

    kind = "discrete"

    def __init__(
        self,
        input_pmfs: Sequence[np.ndarray],
        channels: Sequence[np.ndarray],
        quantizers: Sequence[np.ndarray],
    ):
        self.input_pmfs = [np.asarray(p, dtype=float) for p in input_pmfs]
        self.channels = [np.asarray(c, dtype=float) for c in channels]
        self.quantizers = [np.asarray(q, dtype=float) for q in quantizers]
        if len(self.channels) != len(self.quantizers):
            raise InputError("need one quantizer per receiver")
        m_in, m_out = len(self.input_pmfs), len(self.channels)
        if m_in < 1 or m_out < 1:
            raise InputError("layer model needs at least one node per side")
        super().__init__((m_in, m_out))

        for u, p in enumerate(self.input_pmfs):
            if p.ndim != 1:
                raise InputError(f"input pmf {u + 1} must be a 1-D array, not {p.ndim}-D")
            _check_pmf(p, f"input pmf {u + 1}")
        x_shape = tuple(p.size for p in self.input_pmfs)
        for w, c in enumerate(self.channels):
            if c.shape[:-1] != x_shape:
                raise InputError(f"channel {w + 1} input axes do not match the layer")
            _check_pmf(c, f"channel {w + 1}", axis=-1)
        for w, q in enumerate(self.quantizers):
            if q.ndim != 2 or q.shape[0] != self.channels[w].shape[-1]:
                raise InputError(f"quantizer {w + 1} does not match its channel output")
            _check_pmf(q, f"quantizer {w + 1}", axis=-1)

        # the largest joint pmf: inputs and all quantized, or all raw, outputs
        outputs = max(
            math.prod(q.shape[1] for q in self.quantizers),
            math.prod(c.shape[-1] for c in self.channels),
        )
        cells = math.prod(x_shape) * outputs
        if cells > MAX_JOINT_CELLS:
            raise TooLarge(
                f"discrete layer model joint table exceeds the cell cap: {cells:,} cells, "
                f"{8 * cells:,} bytes, over {MAX_JOINT_CELLS:,} cells"
            )

        # joint input pmf as an array with one axis per transmitter
        self._p_x = functools.reduce(np.multiply.outer, self.input_pmfs, np.ones(()))
        # quantized per-receiver conditionals p(yq_w | x), x axes first
        self._quantized = [
            np.tensordot(self.channels[w], self.quantizers[w], axes=([-1], [0]))
            for w in range(m_out)
        ]

    def oracle(self) -> "DiscreteLayerModel":
        """The model itself; ``TooLarge`` above ``DISCRETE_GUARD_BITS`` nodes."""
        if sum(self.dims) > DISCRETE_GUARD_BITS:
            raise TooLarge(
                f"discrete capacity oracle limited to {DISCRETE_GUARD_BITS} nodes per layer pair"
            )
        return super().oracle()

    def table(self) -> np.ndarray:
        # the size guard before any cell, also for a model used as it is
        self.oracle()
        return super().table()

    def _value(self, umask: int, vmask: int) -> float:
        return float(self.table()[umask, vmask])

    def quantized_conditional(self, receiver: int) -> np.ndarray:
        """``p(yq_w | x)`` for receiver ``w`` (1-based), input axes first."""
        return self._quantized[receiver - 1]

    def mutual_information(
        self, transmitters: Iterable[int], receivers: Iterable[int]
    ) -> float:
        """``I(X_U ; Yq_V | X_rest)`` by exact summation over the joint pmf."""
        return self.mutual_information_masks(
            _to_mask(transmitters, self.dims[0]), _to_mask(receivers, self.dims[1])
        )

    def mutual_information_masks(self, umask: int, vmask: int) -> float:
        return self._information(self._quantized, umask, vmask)

    def _information(self, conditionals: Sequence[np.ndarray], umask: int, vmask: int) -> float:
        """``I(X_U ; out_V | X_rest)`` with per-receiver ``conditionals``
        (quantized or raw), by exact summation over the joint pmf."""
        if umask == 0 or vmask == 0:
            return 0.0
        joint = self._joint(conditionals, vmask)
        u_axes = tuple(i - 1 for i in _mask_indices(umask))
        h_x_all = _entropy(self._p_x)
        h_x_rest = _entropy(self._p_x.sum(axis=u_axes))
        h_out_x_rest = _entropy(joint.sum(axis=u_axes))
        h_joint = _entropy(joint)
        # I(X_U; out | X_rest) = H(X_all) + H(out, X_rest) - H(all joint) - H(X_rest)
        return max(0.0, h_x_all + h_out_x_rest - h_joint - h_x_rest)

    def _joint(self, conditionals: Sequence[np.ndarray], vmask: int) -> np.ndarray:
        """Joint pmf of the inputs and the outputs of receivers ``vmask``
        under per-receiver ``conditionals`` (input axes first, then one output
        axis per receiver, ascending)."""
        joint, x_shape = self._p_x, self._p_x.shape
        for w in _mask_indices(vmask):
            arr = conditionals[w - 1]
            # append one output axis; existing axes broadcast
            joint = joint[..., None] * arr.reshape(
                x_shape + (1,) * (joint.ndim - len(x_shape)) + (arr.shape[-1],)
            )
        return joint

    @functools.cached_property
    def _input_entropies(self) -> tuple[float, list[tuple[tuple[int, ...], float]]]:
        """``H(X_all)``, and the summed axes and ``H(X_rest)`` of each
        transmitter mask ``1 .. 2^m_in - 1``."""
        u_axes = [tuple(i - 1 for i in _mask_indices(u)) for u in range(1, 1 << self.dims[0])]
        rests = [(axes, _entropy(self._p_x.sum(axis=axes))) for axes in u_axes]
        return _entropy(self._p_x), rests

    def _information_row(self, joint: np.ndarray) -> list[float]:
        """``_information``'s expression for every transmitter mask ``1 ..
        2^m_in - 1`` against the outputs of ``joint``, with ``H(joint)``
        once."""
        h_x_all, rests = self._input_entropies
        h_joint = _entropy(joint)
        return [
            max(0.0, h_x_all + _entropy(joint.sum(axis=axes)) - h_joint - h_rest)
            for axes, h_rest in rests
        ]

    def _nonempty_cells(self):
        """``mutual_information_masks(umask, vmask)`` of every nonempty cell
        with the same float operations, yielded per receiver mask for
        ``umask = 1 .. 2^m_in - 1``."""
        umasks = np.arange(1, 1 << self.dims[0])
        for vmask in range(1, 1 << self.dims[1]):
            yield umasks, vmask, self._information_row(self._joint(self._quantized, vmask))

    def _mi_received_masks(self, umask: int, vmask: int) -> float:
        return self._information(self.channels, umask, vmask)

    def _received_column(self) -> np.ndarray:
        """One row against the raw-channel joint pmf of all receivers."""
        joint = self._joint(self.channels, (1 << self.dims[1]) - 1)
        return np.array([0.0] + self._information_row(joint))

    def _receiver_leaks(self) -> list[float]:
        """``H(Yq_w | X) - H(Yq_w | Y_w)`` of each receiver: given all inputs,
        receiver chains are independent, so the leak of a receiver set is
        the sum of its terms.  Each term's two sums are left folds of ``p *
        H(row)`` over the rows of one conditional, whose entropies come from
        one ``_entropies`` call."""
        p_x_flat = self._p_x.ravel()
        terms = []
        for w in range(self.dims[1]):
            q_given_x = self._quantized[w].reshape(p_x_flat.size, -1)
            h_q_given_x = float(
                sum(p * h for p, h in zip(p_x_flat, _entropies(q_given_x)))
            )
            chan = self.channels[w].reshape(p_x_flat.size, -1)
            p_y = p_x_flat @ chan
            h_q_given_y = float(
                sum(p * h for p, h in zip(p_y, _entropies(self.quantizers[w])))
            )
            terms.append(h_q_given_x - h_q_given_y)
        return terms


def _check_pmf(arr: np.ndarray, what: str, axis: int | None = None) -> None:
    if (arr < 0).any():
        raise NonNormalizedPMF(f"{what} has negative entries")
    sums = arr.sum() if axis is None else arr.sum(axis=axis)
    # np.allclose(sums, 1.0, rtol=0.0, atol=PMF_TOL)'s verdict, NaN and inf failing
    if not np.all(np.abs(sums - 1.0) <= PMF_TOL):
        raise NonNormalizedPMF(f"{what} does not sum to 1 within {PMF_TOL}")


class DeterministicLayerModel(LayerModel):
    """Wrapper declaring a layer noiseless: quantized output equals the
    received symbol, so the quantizer leak is exactly zero and the raw
    information is the wrapped oracle's capacity."""

    kind = "deterministic"

    def __init__(self, wrapped: CapacityOracle):
        self.wrapped = wrapped
        self.dims = wrapped.dims

    def oracle(self) -> CapacityOracle:
        return self.wrapped

    def _receiver_leaks(self) -> list[float]:
        return [0.0] * self.dims[1]

    def _mi_received_masks(self, umask: int, vmask: int) -> float:
        return self.wrapped.value_masks(umask, vmask)

    def _received_column(self) -> np.ndarray:
        """The last column of the wrapped oracle's table."""
        return self.wrapped.table()[:, -1]


def quantizer_leak(model: LayerModel, receivers: Iterable[int] | None = None) -> float:
    """Rate spent describing quantization noise at the given receivers.

    Raises:
        UnsupportedModel: for inputs that are not layer models (additive,
            GF(2) and table oracles carry no quantizer information).
    """
    if isinstance(model, LayerModel):
        return model.leak(receivers)
    raise UnsupportedModel(
        "quantizer leak needs a layer model; wrap plain oracles in "
        "DeterministicLayerModel to declare a zero leak"
    )
