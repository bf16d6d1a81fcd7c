import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relayflow import (
    AdditiveOracle,
    DeterministicLayerModel,
    DiscreteLayerModel,
    InputError,
    RankGF2Oracle,
    ExplicitTableOracle,
    GaussianLayerModel,
    GaussianLogDetOracle,
    NonNormalizedPMF,
    NumericalFailure,
    OutOfRange,
    RankGF2Oracle,
    TooLarge,
    UnsupportedModel,
    build_network,
    check_capacity_axioms,
    min_cut,
    network_from_models,
    quantizer_leak,
)
from relayflow import capacity
from relayflow.capacity import (
    PMF_TOL,
    _entropies,
    _entropy,
    _leq,
    _leq_cells,
    _plainly_leq,
    _subset_index,
)
from relayflow.oracle import FAMILIES, SplitMix64, discrete_mi_reference


def identity_channel():
    chan = np.zeros((2, 2))
    chan[0, 0] = chan[1, 1] = 1.0
    return chan


def uniform_binary_model(quantizer=None):
    q = np.eye(2) if quantizer is None else quantizer
    return DiscreteLayerModel([np.array([0.5, 0.5])], [identity_channel()], [q])


# --- per-kind evaluation -----------------------------------------------------


def test_additive_diamond_values():
    orc = AdditiveOracle([[1.0, 2.0]])
    assert orc.value([1], [1, 2]) == 3.0
    assert orc.value([1], [2]) == 2.0
    assert orc.value([], [1, 2]) == 0.0
    assert orc.value([1], []) == 0.0


def test_rank_gf2_identical_rows():
    orc = RankGF2Oracle([[1, 0], [1, 0]])
    assert orc.value([1, 2], [1, 2]) == 1.0
    assert orc.value([2], [1, 2]) == 0.0


def test_rank_gf2_bounded_by_set_sizes():
    orc = RankGF2Oracle([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    for umask in range(1, 8):
        for vmask in range(1, 8):
            u = [i + 1 for i in range(3) if umask >> i & 1]
            v = [i + 1 for i in range(3) if vmask >> i & 1]
            val = orc.value(u, v)
            assert val == int(val)
            assert val <= min(len(u), len(v))


def test_gaussian_scalar_half_noise():
    orc = GaussianLogDetOracle(np.array([[1.0 + 0j]]))
    assert orc.value([1], [1]) == pytest.approx(math.log2(1.5), abs=1e-12)


def test_gaussian_monotone_exhaustive():
    rngish = np.array(
        [
            [0.3 + 0.1j, -1.2 + 0.4j, 0.9 - 0.2j],
            [1.1 - 0.7j, 0.2 + 0.2j, -0.5 + 1.3j],
            [-0.8 + 0.9j, 0.6 - 1.1j, 0.4 + 0.0j],
        ]
    )
    orc = GaussianLogDetOracle(rngish)
    for umask in range(8):
        for vmask in range(8):
            base = orc.value_masks(umask, vmask)
            for bit in range(3):
                if not umask >> bit & 1:
                    assert orc.value_masks(umask | 1 << bit, vmask) >= base - 1e-12
                if not vmask >> bit & 1:
                    assert orc.value_masks(umask, vmask | 1 << bit) >= base - 1e-12


def test_table_oracle_lookup_and_default():
    orc = ExplicitTableOracle((2, 1), {((1,), (1,)): 1.0, ((1, 2), (1,)): 0.5})
    assert orc.value([1], [1]) == 1.0
    assert orc.value([2], [1]) == 0.0
    assert orc.value([], [1]) == 0.0


def test_out_of_range_indices():
    orc = AdditiveOracle([[1.0]])
    with pytest.raises(OutOfRange):
        orc.value([2], [1])
    with pytest.raises(OutOfRange):
        orc.value([1], [0])


def test_discrete_identity_channel_one_bit():
    model = uniform_binary_model()
    assert model.value([1], [1]) == pytest.approx(1.0, abs=1e-12)
    assert discrete_mi_reference(model, [1], [1]) == pytest.approx(1.0, abs=1e-12)


def test_discrete_mi_two_paths_agree():
    rng = np.random.default_rng(7)
    pmfs = [rng.dirichlet(np.ones(2)) for _ in range(2)]
    channels = [rng.dirichlet(np.ones(2), size=(2, 2)) for _ in range(2)]
    quantizers = [rng.dirichlet(np.ones(2), size=2) for _ in range(2)]
    model = DiscreteLayerModel(pmfs, channels, quantizers)
    for u in ([1], [2], [1, 2]):
        for v in ([1], [2], [1, 2]):
            assert model.mutual_information(u, v) == pytest.approx(
                discrete_mi_reference(model, u, v), abs=1e-9
            )


def test_discrete_mi_mixed_alphabets():
    # transmit alphabets 3 and 2; receive alphabets 2 and 4, quantized to 3 and 2
    rng = np.random.default_rng(123)
    pmfs = [rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2))]
    channels = [
        rng.dirichlet(np.ones(2), size=(3, 2)),
        rng.dirichlet(np.ones(4), size=(3, 2)),
    ]
    quantizers = [rng.dirichlet(np.ones(3), size=2), rng.dirichlet(np.ones(2), size=4)]
    model = DiscreteLayerModel(pmfs, channels, quantizers)
    for u in ([1], [2], [1, 2]):
        for v in ([1], [2], [1, 2]):
            assert model.mutual_information(u, v) == pytest.approx(
                discrete_mi_reference(model, u, v), abs=1e-9
            )
    assert check_capacity_axioms(model.oracle()).passed
    cap = sum(np.log2(q.shape[1]) for q in quantizers)
    assert 0.0 <= model.leak() <= cap + 1e-12


def _pmf_verdict(arr, axis=None):
    from relayflow.capacity import _check_pmf

    try:
        _check_pmf(np.array(arr, dtype=float), "pmf", axis=axis)
    except NonNormalizedPMF:
        return False
    return True


def test_pmf_validation(monkeypatch):
    from relayflow import capacity

    with pytest.raises(NonNormalizedPMF):
        DiscreteLayerModel([np.array([0.6, 0.6])], [identity_channel()], [np.eye(2)])
    bad_chan = np.array([[0.9, 0.0], [0.0, 1.0]])
    with pytest.raises(NonNormalizedPMF):
        DiscreteLayerModel([np.array([0.5, 0.5])], [bad_chan], [np.eye(2)])

    # edge verdicts match np.allclose(sums, 1.0, rtol=0.0, atol=tol), at the
    # real tolerance and at one that sums near 1 can sit exactly on
    exact = 2.0**-39
    for tol in (PMF_TOL, exact):
        monkeypatch.setattr(capacity, "PMF_TOL", tol)
        sums = [1.0, np.nan, np.inf, -np.inf, 1.0 + tol, 1.0 - tol]
        for side in (2.0, 0.0):
            # the last representable sums inside the tolerance, the first outside
            step = np.nextafter(1.0, side) - 1.0
            k = math.floor(tol / abs(step))
            sums += [1.0 + k * step, 1.0 + (k + 1) * step]
        for s in sums:
            want = bool(np.allclose(s, 1.0, rtol=0.0, atol=tol))
            assert _pmf_verdict([s]) == want, (tol, s)
            assert _pmf_verdict([[0.5, 0.5], [s, 0.0]], axis=-1) == want, (tol, s)
        # a sum exactly the tolerance away passes
        assert _pmf_verdict([1.0 + exact]) == _pmf_verdict([0.5, 0.5 - exact]) == (tol == exact)
    assert not _pmf_verdict([np.nan]) and not _pmf_verdict([np.inf])


def test_input_pmf_must_be_one_dimensional():
    # four input symbols laid out 2 x 2 sum to 1 as a whole, but the channel
    # reads them along one axis of four
    chan = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError, match=re.escape("input pmf 1 must be a 1-D array, not 2-D")):
        DiscreteLayerModel([np.full((2, 2), 0.25)], [chan], [np.eye(2)])
    with pytest.raises(InputError, match=re.escape("input pmf 2 must be a 1-D array, not 0-D")):
        DiscreteLayerModel([np.full(4, 0.25), np.array(1.0)], [chan[:, None]], [np.eye(2)])
    model = DiscreteLayerModel([np.full(4, 0.25)], [chan], [np.eye(2)])
    assert model.mutual_information([1], [1]) == model.mi_received([1], [1]) == 1.0


def test_raw_channel_joint_counts_against_the_cell_cap():
    # three 2-symbol quantizers keep the quantized joint at 2 * 2^3 cells;
    # the raw joint, built for mi_received, holds 2 * 400^3
    chan = np.full((2, 400), 1 / 400)
    quant = np.repeat(np.eye(2), 200, axis=0)
    message = re.escape(
        "discrete layer model joint table exceeds the cell cap: 128,000,000 cells, "
        "1,024,000,000 bytes, over 10,000,000 cells"
    )
    with pytest.raises(TooLarge, match=message):
        DiscreteLayerModel([np.full(2, 0.5)], [chan] * 3, [quant] * 3)
    # two such receivers, 320,000 cells, are within the cap
    model = DiscreteLayerModel([np.full(2, 0.5)], [chan] * 2, [quant] * 2)
    assert model.mi_received_column()[1] == pytest.approx(0.0, abs=1e-9)
    # the quantized joint still counts where it is the larger: 2 * 10^7 cells
    with pytest.raises(TooLarge, match="cell cap: 20,000,000 cells, 160,000,000 bytes"):
        DiscreteLayerModel([np.full(2, 0.5)], [np.ones((2, 1))] * 7, [np.full((1, 10), 0.1)] * 7)


# --- axiom checker -----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(0.0, 4.0), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    )
)
def test_additive_always_passes_axioms(matrix):
    assert check_capacity_axioms(AdditiveOracle(matrix)).passed


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 1), min_size=3, max_size=3),
        min_size=2,
        max_size=2,
    )
)
def test_rank_gf2_always_passes_axioms(matrix):
    assert check_capacity_axioms(RankGF2Oracle(matrix)).passed


def test_discrete_mi_passes_axioms():
    rng = np.random.default_rng(3)
    pmfs = [rng.dirichlet(np.ones(2)) for _ in range(2)]
    channels = [rng.dirichlet(np.ones(2), size=(2, 2)) for _ in range(2)]
    quantizers = [rng.dirichlet(np.ones(2), size=2) for _ in range(2)]
    model = DiscreteLayerModel(pmfs, channels, quantizers)
    assert check_capacity_axioms(model.oracle()).passed


def test_constructed_table_fails_monotonicity():
    orc = ExplicitTableOracle((2, 1), {((1,), (1,)): 1.0, ((1, 2), (1,)): 0.5})
    report = check_capacity_axioms(orc)
    assert not report.passed
    assert not report.monotone
    assert report.counterexample["axiom"] == "monotone"


def test_axiom_guard():
    with pytest.raises(TooLarge):
        check_capacity_axioms(AdditiveOracle(np.ones((9, 9))))


def _reference_axioms(oracle, tol=1e-9):
    """The axiom check as a loop over every cell and pair, kept verbatim as
    the reference."""
    from relayflow.capacity import AxiomReport, _leq, _mask_indices

    m_in, m_out = oracle.dims
    nu, nv = 1 << m_in, 1 << m_out
    tab = oracle.table().tolist()
    n_checks = 0
    counterexample = None

    zero_ok = True
    for u in range(nu):
        n_checks += 1
        if tab[u][0] != 0.0:
            zero_ok = False
            counterexample = {"axiom": "zero_on_empty", "U": _mask_indices(u), "V": ()}
            break
    for v in range(nv):
        n_checks += 1
        if tab[0][v] != 0.0:
            zero_ok = False
            counterexample = counterexample or {
                "axiom": "zero_on_empty",
                "U": (),
                "V": _mask_indices(v),
            }
            break

    mono_ok = True
    # single-element steps imply monotonicity along every inclusion chain
    for u in range(nu):
        for v in range(nv):
            base = tab[u][v]
            for i in range(m_in):
                if u & (1 << i):
                    continue
                n_checks += 1
                if not _leq(base, tab[u | (1 << i)][v], tol):
                    mono_ok = False
                    counterexample = counterexample or {
                        "axiom": "monotone",
                        "U": _mask_indices(u),
                        "V": _mask_indices(v),
                        "added_transmitter": i + 1,
                        "value": base,
                        "larger_set_value": tab[u | (1 << i)][v],
                    }
            for j in range(m_out):
                if v & (1 << j):
                    continue
                n_checks += 1
                if not _leq(base, tab[u][v | (1 << j)], tol):
                    mono_ok = False
                    counterexample = counterexample or {
                        "axiom": "monotone",
                        "U": _mask_indices(u),
                        "V": _mask_indices(v),
                        "added_receiver": j + 1,
                        "value": base,
                        "larger_set_value": tab[u][v | (1 << j)],
                    }

    bisub_ok = True
    for u1 in range(nu):
        for v1 in range(nv):
            for u2 in range(u1, nu):
                for v2 in range(nv):
                    if u2 == u1 and v2 < v1:
                        continue
                    n_checks += 1
                    lhs = tab[u1 | u2][v1 & v2] + tab[u1 & u2][v1 | v2]
                    rhs = tab[u1][v1] + tab[u2][v2]
                    if not _leq(lhs, rhs, tol):
                        bisub_ok = False
                        counterexample = counterexample or {
                            "axiom": "bisubmodular",
                            "U1": _mask_indices(u1),
                            "V1": _mask_indices(v1),
                            "U2": _mask_indices(u2),
                            "V2": _mask_indices(v2),
                            "lhs": lhs,
                            "rhs": rhs,
                        }

    return AxiomReport(
        passed=zero_ok and mono_ok and bisub_ok,
        bisubmodular=bisub_ok,
        monotone=mono_ok,
        zero_on_empty=zero_ok,
        counterexample=counterexample,
        n_checks=n_checks,
    )


def _family_oracle(family, m_in, m_out, seed):
    """A seeded oracle of ``family`` with ``m_in`` transmitters and ``m_out``
    receivers, drawn like ``random_instance`` draws its pairs (which caps
    layers at 4 nodes)."""
    rng = SplitMix64(seed)
    if family == "additive":
        return AdditiveOracle(
            [[4.0 * rng.random() for _ in range(m_out)] for _ in range(m_in)]
        )
    if family == "rank_gf2":
        return RankGF2Oracle([[rng.bit() for _ in range(m_in)] for _ in range(m_out)])
    if family == "gaussian":
        return GaussianLogDetOracle(
            np.array([[rng.complex_normal() for _ in range(m_in)] for _ in range(m_out)])
        )
    pmfs = [np.array([1.0 - p, p]) for p in (0.2 + 0.6 * rng.random() for _ in range(m_in))]
    channels = []
    for _ in range(m_out):
        flat = [(1.0 - p, p) for p in (0.1 + 0.8 * rng.random() for _ in range(2**m_in))]
        channels.append(np.array(flat).reshape((2,) * m_in + (2,)))
    quantizers = [
        np.array([(1.0 - p, p) for p in (0.1 + 0.8 * rng.random() for _ in range(2))])
        for _ in range(m_out)
    ]
    return DiscreteLayerModel(pmfs, channels, quantizers).oracle()


def _with_table(oracle, table):
    """``oracle`` answering from ``table`` instead of its own cells."""
    oracle._dense = np.array(table, dtype=float)
    return oracle


@pytest.mark.parametrize("family", FAMILIES)
def test_axiom_check_matches_loop_reference(family):
    for m_in in range(1, 6):
        for m_out in range(1, 6):
            orc = _family_oracle(family, m_in, m_out, seed=10 * m_in + m_out)
            report = check_capacity_axioms(orc)
            assert report.passed, (family, m_in, m_out)
            assert repr(report) == repr(_reference_axioms(orc)), (m_in, m_out)
            # one cell lowered: monotonicity or bisubmodularity breaks
            table = orc.table().copy()
            table[-1, -1] -= 0.25
            bent = _with_table(AdditiveOracle(np.zeros((m_in, m_out))), table)
            assert repr(check_capacity_axioms(bent)) == repr(_reference_axioms(bent))


def _first_failure_cases():
    """Additive tables, perturbed so that each fails one axiom first, as
    ``(name, table, expected counterexample axiom, extra check)``."""
    for m_in, m_out in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 3)):
        base = _family_oracle("additive", m_in, m_out, seed=m_in * m_out).table()
        nu, nv = base.shape
        full_u, full_v = nu - 1, nv - 1

        table = base.copy()
        table[2, 0] = 0.5
        yield "zero U side", table, "zero_on_empty", lambda c: c["U"] == (2,)

        table = base.copy()
        table[0, nv // 2] = 1e-300
        yield "zero V side", table, "zero_on_empty", lambda c: c["U"] == ()

        table = base.copy()
        table[3, 1] = table[1, 1] - 0.5
        yield "added transmitter", table, "monotone", lambda c: "added_transmitter" in c

        table = base.copy()
        table[1, 1] += 100.0  # every step out of (U, V) = ({1}, {1}) fails
        yield "first step", table, "monotone", lambda c: c.get("added_transmitter") == 2

        table = base.copy()
        table[1, 3] = table[1, 1] - 0.5
        table[3, 3] = table[1, 3] + table[2, 3]  # keep the transmitter steps monotone
        yield "added receiver", table, "monotone", lambda c: "added_receiver" in c

        table = base.copy()
        table[1:, full_v] += 1.0
        yield "diagonal", table, "bisubmodular", lambda c: c["U1"] == c["U2"]

        table = base.copy()
        table[full_u, 1:] += 1.0
        yield "off diagonal", table, "bisubmodular", lambda c: c["U1"] != c["U2"]


def test_axiom_check_first_failure_matches_loop_reference():
    for name, table, axiom, holds in _first_failure_cases():
        m_in, m_out = (int(n).bit_length() - 1 for n in table.shape)
        orc = _with_table(AdditiveOracle(np.zeros((m_in, m_out))), table)
        report = check_capacity_axioms(orc)
        assert report.counterexample["axiom"] == axiom, (name, report)
        assert holds(report.counterexample), (name, report)
        assert repr(report) == repr(_reference_axioms(orc)), name
        assert all(isinstance(i, int) for key in ("U", "V", "U1", "V1", "U2", "V2")
                   for i in report.counterexample.get(key, ()))
        assert all(type(report.counterexample[key]) is float
                   for key in ("value", "larger_set_value", "lhs", "rhs")
                   if key in report.counterexample)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(
        st.tuples(
            st.integers(0, 63),
            st.integers(0, 63),
            st.sampled_from([0.0, -0.5, 0.5, 1e-10, -1e-10, 2.0, math.inf, math.nan]),
        ),
        max_size=4,
    ),
    st.sampled_from([1e-9, 0.0, 0.1]),
)
def test_axiom_check_matches_reference_on_perturbed_tables(m_in, m_out, changes, tol):
    table = _family_oracle("additive", m_in, m_out, seed=m_in + 7 * m_out).table().copy()
    for u, v, delta in changes:
        table[u % table.shape[0], v % table.shape[1]] += delta
    orc = _with_table(AdditiveOracle(np.zeros((m_in, m_out))), table)
    cells = table.tolist()
    non_finite = [
        (u, v) for u, row in enumerate(cells) for v, x in enumerate(row) if not math.isfinite(x)
    ]
    if non_finite:
        # the first non-finite cell in row-major order is named, not checked
        u, v = non_finite[0]
        us = [i + 1 for i in range(m_in) if u >> i & 1]
        vs = [j + 1 for j in range(m_out) if v >> j & 1]
        message = f"capacity at U={us}, V={vs} is {cells[u][v]}"
        with pytest.raises(NumericalFailure, match=re.escape(message)):
            check_capacity_axioms(orc, tol)
    else:
        assert repr(check_capacity_axioms(orc, tol)) == repr(_reference_axioms(orc, tol))


def test_axiom_check_memory_is_blocked():
    # one broadcast over every bisubmodular pair of a 6x6 pair would hold
    # 2^23 cells per temporary, 64 MB each
    orc = _family_oracle("additive", 6, 6, seed=66)
    orc.table()
    tracemalloc.start()
    try:
        report = check_capacity_axioms(orc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 8 * 2**20


#: block entries: signed zeros, infinities, NaN, the largest magnitudes and
#: subnormals
_BLOCK_ENTRIES = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324, 2.5e-308, 1.0]
) | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
@np.errstate(over="ignore", invalid="ignore")
def _block_pairs(draw):
    """``(lhs, rhs, tol)``: ``rhs`` drawn on its own, or ``lhs`` moved by
    offsets around the plain comparison's threshold ``-tol / 2``."""
    tol = draw(st.sampled_from([0.0, 1e-9, 0.1, math.inf, math.nan]))
    n = draw(st.integers(1, 6))
    lhs = np.array(draw(st.lists(_BLOCK_ENTRIES, min_size=n, max_size=n)))
    if draw(st.booleans()):
        rhs = np.array(draw(st.lists(_BLOCK_ENTRIES, min_size=n, max_size=n)))
    else:
        near = st.sampled_from(
            [0.0, -0.0, 5e-324, -5e-324, tol / 2, -tol / 2, -tol / 2 * (1 + 2**-52), -tol]
        )
        offsets = near | near | st.just(math.inf) | _BLOCK_ENTRIES
        rhs = lhs + np.array(draw(st.lists(offsets, min_size=n, max_size=n)))
    shape = draw(st.sampled_from([(n,), (1, n), (n, 1)]))
    return lhs.reshape(shape), rhs.reshape(shape), tol


@settings(max_examples=500, deadline=None)
@given(_block_pairs())
@np.errstate(over="ignore", invalid="ignore")
def test_plain_comparison_skips_only_blocks_that_pass(pair):
    lhs, rhs, tol = pair
    before = lhs.tobytes(), rhs.tobytes()
    plain = _plainly_leq(lhs, rhs, tol)
    assert (lhs.tobytes(), rhs.tobytes()) == before
    if plain:
        assert _leq_cells(lhs.copy(), rhs, tol).all()
        assert all(map(_leq, lhs.ravel().tolist(), rhs.ravel().tolist(), [tol] * lhs.size))


@pytest.mark.parametrize(
    "lhs,rhs,tol,plain",
    [
        (1.0, 1.0, 0.0, True),
        (0.0, -0.0, 0.0, True),
        (1.0, 1.0 - 2**-52, 1e-9, True),  # rounding noise of an equality
        (1.0, 1.0 - 2**-52, 0.0, False),
        (1.0, 1.0 - 0.4e-9, 1e-9, True),
        (1.0, 1.0 - 0.6e-9, 1e-9, False),
        (5e-324, 0.0, 0.0, False),
        (math.inf, math.inf, 1e-9, False),  # passes _leq, but not plainly
        (math.inf, math.inf, 0.0, False),  # fails _leq: 0 * inf is NaN
        (1e308, math.inf, 0.1, False),
        (math.nan, 1.0, 0.1, False),
        (1.0, 2.0, -1e-9, False),
        (1.0, 2.0, math.nan, False),
        (0.0, -math.inf, math.inf, False),  # fails _leq: -inf + inf is NaN
        (-math.inf, 0.0, math.inf, False),
        (math.inf, 0.0, math.inf, False),
        (1.0, 2.0, math.inf, False),
    ],
)
@np.errstate(invalid="ignore")
def test_plain_comparison_cases(lhs, rhs, tol, plain):
    assert _plainly_leq(np.array([lhs]), np.array([rhs]), tol) is plain


def _checked_with_spy(orc, tol=1e-9):
    """``check_capacity_axioms(orc, tol)``, and whether each block it skipped
    passes ``_leq_cells`` in every cell."""
    skipped = []

    def spy(lhs, rhs, tol):
        plain = _plainly_leq(lhs, rhs, tol)
        if plain:
            skipped.append(bool(_leq_cells(lhs.copy(), rhs, tol).all()))
        return plain

    with mock.patch("relayflow.capacity._plainly_leq", spy):
        return check_capacity_axioms(orc, tol), skipped


def test_axiom_check_skips_blocks_of_valid_oracles():
    for family in FAMILIES:
        for m_in, m_out in ((1, 2), (2, 2), (3, 4), (4, 4)):
            orc = _family_oracle(family, m_in, m_out, seed=m_in * m_out)
            report, skipped = _checked_with_spy(orc)
            assert report.passed and skipped and all(skipped), (family, m_in, m_out)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(
        st.sampled_from([0.0, -0.0, 5e-324, 2.5e-308, 0.5, 1.0, 1e307, 1e308]),
        min_size=64,
        max_size=64,
    ),
    st.sampled_from([0.0, 1e-9, 0.1]),
)
def test_axiom_check_skips_only_passing_blocks(m_in, m_out, entries, tol):
    # finite tables whose sums overflow and whose cells tie, with signed zeros
    table = np.array(entries[: 1 << m_in + m_out]).reshape(1 << m_in, 1 << m_out)
    table[0] = table[:, 0] = 0.0
    orc = _with_table(AdditiveOracle(np.zeros((m_in, m_out))), table)
    report, skipped = _checked_with_spy(orc, tol)
    assert all(skipped)
    assert repr(report) == repr(_reference_axioms(orc, tol))


# --- dense tables -------------------------------------------------------------


def test_huge_gaussian_gain_gives_nan_cells_without_a_warning():
    # |h|^2 of a 1e200 gain overflows, and every cell and raw information
    # that sees the gain is NaN, which the readers refuse; numpy says nothing
    model = GaussianLogDetOracle([[1e200], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = model.table()
        assert np.isnan(table[1, [1, 3]]).all()
        assert math.isnan(model.value([1], [1]))
        assert model.value([1], [2]) == table[1, 2] and math.isfinite(table[1, 2])
        assert math.isnan(model.mi_received([1], [1, 2]))
        assert math.isfinite(model.mi_received([1], [2]))
        assert math.isnan(model.mi_received_column()[1])


class _OverflowingOracle(capacity.CapacityOracle):
    """A family outside the library whose own numpy arithmetic overflows."""

    kind = "overflowing"

    def _value(self, umask, vmask):
        return float(np.float64(1e300) * (1e300 * (umask + vmask)))


def test_custom_oracle_overflow_is_quiet_through_both_doors():
    orc = _OverflowingOracle((2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert orc.value_masks(3, 1) == math.inf
        assert orc.table()[1:, 1].tolist() == [math.inf] * 3


def _with_zero_inputs(model):
    """The discrete ``model`` with every other transmitter's input fixed to
    one symbol, so the joint pmf has zero-probability cells."""
    pmfs = [p if u % 2 else np.array([0.0, 1.0]) for u, p in enumerate(model.input_pmfs)]
    return DiscreteLayerModel(pmfs, model.channels, model.quantizers).oracle()


def _table_cases(widths=range(1, 7)):
    rng = np.random.default_rng(29)
    yield ExplicitTableOracle(
        (2, 2), {((1,), (1,)): 1.0, ((2,), (2,)): 0.5, ((1, 2), (1, 2)): 1.25}
    )
    for m_in in widths:
        for m_out in widths:
            for family in FAMILIES:
                orc = _family_oracle(family, m_in, m_out, seed=10 * m_in + m_out)
                yield orc
                if family == "gaussian":
                    yield GaussianLogDetOracle(orc.h * 30.0)
                if family == "discrete":
                    yield _with_zero_inputs(orc)
                    if m_in <= 3 and m_out <= 3:
                        # marginals of mixed sizes within one table
                        yield _sparse_discrete_model(rng, m_in, m_out)


def _assert_tables_match_value_masks(widths=range(1, 7)):
    kinds = set()
    for orc in _table_cases(widths):
        tab = orc.table()
        m_in, m_out = orc.dims
        assert tab.shape == (1 << m_in, 1 << m_out)
        assert tab.dtype == np.float64
        # a discrete oracle's value_masks reads its table; its scalar
        # definition is the model's
        value = orc.mutual_information_masks if orc.kind == "discrete" else orc.value_masks
        want = np.array([[value(u, v) for v in range(1 << m_out)] for u in range(1 << m_in)])
        assert np.array_equal(tab.view(np.int64), want.view(np.int64)), (orc.kind, orc.dims)
        assert orc.table() is tab
        kinds.add(orc.kind)
    assert kinds == {"table", *FAMILIES}


def test_table_matches_value_masks():
    _assert_tables_match_value_masks()


def test_table_matches_value_masks_in_tiny_chunks(monkeypatch):
    # three cells per chunk, and one per Gaussian chunk
    monkeypatch.setattr("relayflow.capacity._BLOCK_CELLS", 3)
    monkeypatch.setattr("relayflow.capacity._BLOCK_BYTES", 1)
    _assert_tables_match_value_masks(widths=range(1, 5))


#: link capacities and channel gains: zeros, subnormals, ties and large entries
_ENTRIES = st.sampled_from([0.0, 5e-324, 2.5e-308, 0.5, 1.0, 1e150, 1e308]) | st.floats(
    0.0, 1e308
)


@st.composite
def _drawn_oracles(draw):
    family = draw(st.sampled_from(["table", *FAMILIES]))
    m_in, m_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def matrix(rows, cols, entries):
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]

    if family == "additive":
        return AdditiveOracle(matrix(m_in, m_out, _ENTRIES))
    if family == "rank_gf2":
        return RankGF2Oracle(matrix(m_out, m_in, st.integers(0, 1)))
    if family == "gaussian":
        # from 1e8 on, Cholesky can fail on I + H H^* / 2 of tied rows
        gains = st.sampled_from(
            [0.0, 5e-324, 2.5e-308, 0.5, 1.0, -1.0, 1e6, 1e8, -1e8, 1e9]
        ) | st.floats(-1e6, 1e6) | st.floats(-1e9, 1e9)
        re, im = (np.array(matrix(m_out, m_in, gains)) for _ in range(2))
        return GaussianLogDetOracle(re + 1j * im)
    if family == "table":
        cells = st.tuples(
            st.lists(st.integers(1, m_in), min_size=1, unique=True),
            st.lists(st.integers(1, m_out), min_size=1, unique=True),
        ).map(lambda uv: (tuple(sorted(uv[0])), tuple(sorted(uv[1]))))
        values = draw(st.dictionaries(cells, _ENTRIES, max_size=8))
        return ExplicitTableOracle((m_in, m_out), values)
    # discrete: binary alphabets, rows with zeros and ties
    rows = st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (1.0, 5e-324)]) | st.floats(
        0.0, 1.0
    ).map(lambda p: (1.0 - p, p))
    pmfs = [np.array(draw(rows)) for _ in range(m_in)]
    channels = [
        np.array([draw(rows) for _ in range(2**m_in)]).reshape((2,) * m_in + (2,))
        for _ in range(m_out)
    ]
    quantizers = [np.array([draw(rows), draw(rows)]) for _ in range(m_out)]
    return DiscreteLayerModel(pmfs, channels, quantizers).oracle()


@settings(max_examples=300, deadline=None)
@given(_drawn_oracles())
def test_every_table_matches_value_masks_cell_by_cell(orc):
    m_in, m_out = orc.dims
    value = orc.mutual_information_masks if orc.kind == "discrete" else orc.value_masks

    def cell(u, v):
        try:
            return value(u, v)
        except NumericalFailure:
            return None

    want = [[cell(u, v) for v in range(1 << m_out)] for u in range(1 << m_in)]
    try:
        tab = orc.table()
    except NumericalFailure:
        # tied large Gaussian gains: the one-cell definition fails too
        assert any(None in row for row in want)
        return
    assert not any(None in row for row in want)
    assert np.array_equal(tab.view(np.int64), np.array(want).view(np.int64))


def test_table_memory_is_chunked():
    orc = _family_oracle("additive", 10, 10, seed=1010)
    tracemalloc.start()
    try:
        orc.table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2^20-cell table itself is 8 MB
    assert peak < 8 * 2**20 + 8 * 2**20


def test_gaussian_table_memory_is_bounded_in_bytes():
    rng = np.random.default_rng(99)
    orc = GaussianLogDetOracle(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)))
    tracemalloc.start()
    try:
        orc.table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 2^18-cell table is 2 MB; chunks of 8,192 cells peaked 17.75 MB above it
    assert peak < 2 * 2**20 + 4 * 2**20


def _reference_bit_positions(masks):
    """The per-call set-bit positions loop that the subset index replaced,
    kept verbatim as the reference."""
    out = np.empty((masks.size, int(masks[0]).bit_count()), dtype=np.intp)
    for j in range(out.shape[1]):
        low = masks & -masks
        out[:, j] = np.frexp(low)[1] - 1
        masks = masks ^ low
    return out


def test_subset_index_matches_the_per_call_loops():
    for width in range(1, 17):
        index = _subset_index(width)
        masks = np.arange(1 << width)
        counts = np.zeros_like(masks)
        for bit in range(width):
            counts += masks >> bit & 1
        assert np.array_equal(index.popcount, counts)
        for k in range(width + 1):
            group = masks[counts == k]
            assert np.array_equal(index.by_popcount[k], group)
            assert np.array_equal(index.positions[k], _reference_bit_positions(group))
            assert np.array_equal(index.rank[group], np.arange(group.size))
            picked = group[::-7]
            assert np.array_equal(index.positions_of(picked), _reference_bit_positions(picked))


@pytest.mark.parametrize("family", FAMILIES)
def test_capacity_tables_are_read_only(family):
    oracle = _family_oracle(family, 2, 2, seed=3)
    table = oracle.table()
    with pytest.raises(ValueError):
        table[1, 1] = 5.0
    assert oracle.table() is table
    assert table[1, 1] == oracle.value_masks(1, 1)


def test_subset_index_is_kept_per_width_and_read_only():
    index = _subset_index(5)
    arrays = [*index.by_popcount, *index.positions, index.rank, index.popcount]
    before = [a.tobytes() for a in arrays]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        index.rank[3] = 0
    for family in FAMILIES:
        for dims in ((5, 3), (3, 5)):
            assert check_capacity_axioms(_family_oracle(family, *dims, seed=8)).passed
    assert _subset_index(5) is index
    assert [a.tobytes() for a in arrays] == before
    # wider sides than any network's layer are indexed per table
    assert _subset_index(17) is not _subset_index(17)


def test_widest_subset_index_holds_the_stated_bytes():
    # (13 + width / 2) * 2^width bytes: 1,376,256 at the widest layer of 16
    width = capacity.LAYER_GUARD
    tracemalloc.start()
    try:
        index = capacity._build_subset_index(width)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = [*index.by_popcount, *index.positions, index.rank, index.popcount]
    assert sum(a.nbytes for a in arrays) == (13 + width // 2) * 2**width == 1_376_256
    assert retained < 1_376_256 + 16384


def test_table_guard_refuses_before_any_cell(oracle_calls):
    with pytest.raises(TooLarge):
        AdditiveOracle(np.ones((13, 12))).table()
    assert oracle_calls == []


# --- quantizer leak ----------------------------------------------------------


def test_gaussian_leak_one_bit_per_receiver():
    model = GaussianLayerModel(np.array([[1.0 + 0j], [0.5 - 0.5j]]))
    assert quantizer_leak(model) == 2.0
    assert model.leak([2]) == 1.0


def test_deterministic_discrete_leak_zero():
    assert uniform_binary_model().leak() == pytest.approx(0.0, abs=1e-12)


def test_independent_quantizer_leak_zero():
    # quantizer output ignores the received symbol entirely
    quant = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert uniform_binary_model(quant).leak() == pytest.approx(0.0, abs=1e-12)


def test_leak_needs_a_model():
    with pytest.raises(UnsupportedModel):
        quantizer_leak(AdditiveOracle([[1.0]]))


@pytest.mark.parametrize(
    "model",
    [
        GaussianLayerModel(np.ones((2, 1))),
        DiscreteLayerModel([np.full(2, 0.5)], [np.eye(2)] * 2, [np.eye(2)] * 2),
        DeterministicLayerModel(AdditiveOracle(np.ones((1, 2)))),
    ],
    ids=lambda model: type(model).__name__,
)
def test_leak_refuses_a_receiver_outside_the_layer(model):
    with pytest.raises(OutOfRange):
        model.leak([model.dims[1] + 1])
    with pytest.raises(OutOfRange):
        quantizer_leak(model, [1, model.dims[1] + 1])


def _indices(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _bits(values):
    return np.array(values, dtype=float).view(np.int64)


def _leak_term(model, w):
    """Receiver ``w``'s leak term with one ``_entropy`` call per row, the
    loop body of ``DiscreteLayerModel.leak`` before the terms were cached
    and batched, kept verbatim."""
    p_x_flat = model._p_x.ravel()
    q_given_x = model._quantized[w - 1].reshape(p_x_flat.size, -1)
    h_q_given_x = float(
        sum(p * _entropy(row) for p, row in zip(p_x_flat, q_given_x))
    )
    chan = model.channels[w - 1].reshape(p_x_flat.size, -1)
    p_y = p_x_flat @ chan
    quant = model.quantizers[w - 1]
    h_q_given_y = float(
        sum(p * _entropy(quant[y]) for y, p in enumerate(p_y))
    )
    return h_q_given_x - h_q_given_y


def _leak_per_call(model, receivers=None):
    """``DiscreteLayerModel.leak`` as it was before the per-receiver terms
    were cached: every term recomputed on every call."""
    from relayflow.capacity import _mask_indices, _to_mask

    if receivers is None:
        wset = range(1, model.dims[1] + 1)
    else:
        wset = _mask_indices(_to_mask(receivers, model.dims[1]))
    total = 0.0
    for w in wset:
        total += _leak_term(model, w)
    return max(0.0, total)


def test_cached_leak_matches_per_call_leak():
    n_models = 0
    for m_in in (1, 2, 3):
        for m_out in range(1, 6):
            orc = _family_oracle("discrete", m_in, m_out, seed=100 * m_in + m_out)
            for model in (orc, _with_zero_inputs(orc)):
                # the full set first, so later masks read terms cached by it
                want = [_leak_per_call(model)] + [
                    _leak_per_call(model, _indices(v)) for v in range(1 << m_out)
                ]
                got = [model.leak()] + [model.leak(_indices(v)) for v in range(1 << m_out)]
                assert np.array_equal(_bits(got), _bits(want)), (m_in, m_out)
                n_models += 1
    assert n_models == 30


@st.composite
def _entropy_rows(draw):
    """A 2-D array for ``_entropies``: 1-200 rows of width 1-300, cells of
    unit, pmf, widely spread or subnormal magnitude (pmf rows normalized,
    the others not), with +0.0, -0.0 and negative cells; often some rows
    without a positive cell, and often many rows sharing one count of
    positive cells."""
    n, width = draw(st.integers(1, 200)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.random((n, width))
    scale = draw(st.sampled_from(["unit", "pmf", "wide", "subnormal"]))
    if scale == "pmf":
        rows /= rows.sum(axis=1, keepdims=True)
    elif scale == "wide":
        rows *= 10.0 ** rng.integers(-320, 300, rows.shape)
    elif scale == "subnormal":
        rows *= 2.2e-308
    rows[rng.random(rows.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    rows[rng.random(rows.shape) < 0.05] *= -1.0
    if draw(st.booleans()):
        # a share of the rows with exactly k positive cells
        k = int(rng.integers(0, width + 1))
        shared = rng.random(n) < draw(st.sampled_from([0.5, 1.0]))
        keep = np.argsort(rng.random((n, width)), axis=1) < k
        rows[shared] = np.where(keep, 0.5 + rng.random((n, width)), 0.0)[shared]
    rows[rng.random(n) < draw(st.sampled_from([0.0, 0.1]))] *= -1.0
    return rows


@settings(max_examples=200, deadline=None)
@given(_entropy_rows())
def test_entropies_match_entropy_row_by_row(rows):
    want = np.array([_entropy(row) for row in rows])
    assert np.array_equal(_entropies(rows).view(np.int64), want.view(np.int64))


def test_entropy_of_no_positive_cell_is_negative_zero():
    # the sum is negated after it is taken: -(0.0) for no positive cell, and
    # -(1.0 * log2(1.0)) for one certain symbol
    rows = np.array([[0.0, -0.0, -1.0], [1.0, 0.0, -0.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    want = [-0.0, -0.0, -0.0, 1.0]
    assert np.array_equal(_bits([_entropy(row) for row in rows]), _bits(want))
    assert np.array_equal(_bits(_entropies(rows)), _bits(want))
    assert _entropies(np.zeros((0, 3))).shape == (0,)


def _sparse_discrete_model(rng, m_in, m_out):
    """A discrete layer model over alphabets of 1-3 symbols whose input
    pmfs, channels and quantizers have zero and certain (0/1) rows."""

    def pmf(shape):
        arr = rng.random(shape)
        arr[rng.random(shape) < 0.4] = 0.0
        arr[..., 0] += arr.sum(axis=-1) == 0.0
        return arr / arr.sum(axis=-1, keepdims=True)

    x_shape = tuple(int(rng.integers(1, 4)) for _ in range(m_in))
    received = [int(rng.integers(1, 4)) for _ in range(m_out)]
    return DiscreteLayerModel(
        [pmf(k) for k in x_shape],
        [pmf(x_shape + (k,)) for k in received],
        [pmf((k, int(rng.integers(1, 4)))) for k in received],
    )


def test_receiver_leak_terms_match_the_per_row_loop():
    rng = np.random.default_rng(31)
    models = []
    for m_in in (1, 2, 3):
        for m_out in range(1, 5):
            orc = _family_oracle("discrete", m_in, m_out, seed=100 * m_in + m_out)
            models += [orc, _with_zero_inputs(orc), _sparse_discrete_model(rng, m_in, m_out)]
    for model in models:
        got = model._receiver_leaks()
        want = [_leak_term(model, w) for w in range(1, model.dims[1] + 1)]
        assert np.array_equal(_bits(got), _bits(want)), model.dims
        assert all(type(term) is float for term in got)
    assert len(models) == 36


def _received_cases():
    from relayflow import DeterministicLayerModel

    rng = np.random.default_rng(29)
    yield DeterministicLayerModel(
        ExplicitTableOracle((2, 2), {((1,), (1, 2)): 1.0, ((1, 2), (1, 2)): 1.25})
    )
    for m_in in range(1, 7):
        for m_out in range(1, 7):
            for family in FAMILIES:
                orc = _family_oracle(family, m_in, m_out, seed=10 * m_in + m_out)
                if family == "gaussian":
                    yield GaussianLayerModel(orc.h)
                    yield GaussianLayerModel(orc.h * 30.0)
                elif family == "discrete":
                    yield orc
                    yield _with_zero_inputs(orc)
                    if m_in <= 3 and m_out <= 3:
                        yield _sparse_discrete_model(rng, m_in, m_out)
                else:
                    yield DeterministicLayerModel(orc)


def test_received_column_matches_mi_received():
    kinds = set()
    for model in _received_cases():
        m_in, m_out = model.dims
        column = model.mi_received_column()
        everyone = _indices((1 << m_out) - 1)
        want = [model.mi_received(_indices(u), everyone) for u in range(1 << m_in)]
        assert column.shape == (1 << m_in,) and column.dtype == np.float64
        assert np.array_equal(column.view(np.int64), _bits(want)), (type(model), model.dims)
        # cached on the model (a deterministic model reads its oracle's table)
        assert np.shares_memory(model.mi_received_column(), column)
        kinds.add(type(model).__name__)
    assert kinds == {"DeterministicLayerModel", "GaussianLogDetOracle", "DiscreteLayerModel"}


def test_gaussian_scalar_leak_from_covariances():
    # one receiver, conditional covariance algebra done by hand:
    # given the inputs, the received symbol has variance 1 and its
    # quantized version variance 2, so the description rate is 1 bit.
    var_received = 1.0
    var_quantized = var_received + 1.0
    by_hand = math.log2(var_quantized) - math.log2(var_quantized - var_received)
    model = GaussianLayerModel(np.array([[2.0 + 1.0j]]))
    assert model.leak() == pytest.approx(by_hand, abs=1e-12)


# --- halving the effective noise: per-dimension cost vs the one-bit bound ----


def test_half_noise_gap_at_most_one_bit_per_dimension():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        full = GaussianLayerModel(h).mi_received([*range(1, n + 1)], [*range(1, n + 1)])
        halved = GaussianLogDetOracle(h).value([*range(1, n + 1)], [*range(1, n + 1)])
        assert full - halved <= n + 1e-9


def test_half_noise_gap_can_exceed_half_bit_per_dimension():
    # the per-dimension cost of doubling the noise approaches one bit;
    # a gain of sqrt(2) already puts it above half a bit
    h = np.array([[math.sqrt(2.0) + 0j]])
    full = GaussianLayerModel(h).mi_received([1], [1])
    halved = GaussianLogDetOracle(h).value([1], [1])
    assert full - halved > 0.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_refuse_non_finite_numbers(bad):
    with pytest.raises(InputError, match="finite"):
        AdditiveOracle([[1.0, bad]])
    with pytest.raises(InputError, match="0 or 1"):
        RankGF2Oracle([[1, bad]])
    for h in ([[1.0, bad]], [[1.0, complex(0.0, bad)]]):
        with pytest.raises(InputError, match="finite"):
            GaussianLogDetOracle(h)
        with pytest.raises(InputError, match="finite"):
            GaussianLayerModel(np.array(h, dtype=complex))
    with pytest.raises(InputError, match="finite"):
        ExplicitTableOracle((1, 1), {((1,), (1,)): bad})


def test_tied_large_gaussian_gains_are_a_numerical_failure():
    # the Cholesky of I + H H^* / 2 breaks down on tied gains near 1e8,
    # although the capacity (about 53 bits) is well defined
    orc = GaussianLogDetOracle([[1e8], [1e8]])
    with pytest.raises(NumericalFailure, match="Cholesky failed"):
        orc.value_masks(1, 3)
    with pytest.raises(NumericalFailure, match="Cholesky failed"):
        orc.table()
    with pytest.raises(NumericalFailure, match="Cholesky failed"):
        orc.mi_received([1], [1, 2])
    # one order of magnitude lower still factors, scalar and batched alike
    tab = GaussianLogDetOracle([[1e7], [1e7]]).table()
    assert tab[1, 3] == GaussianLogDetOracle([[1e7], [1e7]]).value_masks(1, 3)
    assert 46 < tab[1, 3] < 47


def test_discrete_node_limit_fires_at_oracle_and_table_not_at_build(oracle_calls):
    def uniform(m_in, m_out):
        return DiscreteLayerModel(
            [np.full(2, 0.5)] * m_in,
            [np.full((2,) * m_in + (2,), 0.5)] * m_out,
            [np.eye(2)] * m_out,
        )

    wide = uniform(1, 13)
    assert wide.dims == (1, 13)
    with pytest.raises(TooLarge, match="discrete capacity oracle limited to 12 nodes"):
        wide.oracle()
    with pytest.raises(TooLarge, match="discrete capacity oracle limited to 12 nodes"):
        network_from_models([wide, uniform(13, 1)])
    # a model handed to build_network as it is trips the guard at its table
    net = build_network([1, 13, 1], [wide, AdditiveOracle(np.ones((13, 1)))])
    with pytest.raises(TooLarge, match="discrete capacity oracle limited to 12 nodes"):
        min_cut(net)
    assert oracle_calls == []
    assert uniform(6, 6).oracle().table().shape == (64, 64)
