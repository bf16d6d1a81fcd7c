import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relayflow import (
    AdditiveOracle,
    DiscreteLayerModel,
    DiscreteMIOracle,
    ExplicitTableOracle,
    GaussianLayerModel,
    GaussianLogDetOracle,
    NonNormalizedPMF,
    OutOfRange,
    RankGF2Oracle,
    TooLarge,
    UnsupportedModel,
    check_capacity_axioms,
    quantizer_leak,
)
from relayflow.oracle import (
    FAMILIES,
    InstanceSpec,
    discrete_mi_reference,
    random_instance,
)


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
    orc = DiscreteMIOracle(model)
    assert orc.value([1], [1]) == pytest.approx(1.0, abs=1e-12)
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


def test_pmf_validation():
    with pytest.raises(NonNormalizedPMF):
        DiscreteLayerModel([np.array([0.6, 0.6])], [identity_channel()], [np.eye(2)])
    bad_chan = np.array([[0.9, 0.0], [0.0, 1.0]])
    with pytest.raises(NonNormalizedPMF):
        DiscreteLayerModel([np.array([0.5, 0.5])], [bad_chan], [np.eye(2)])


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


# --- dense tables -------------------------------------------------------------


def test_table_matches_value_masks():
    oracles = [
        ExplicitTableOracle(
            (2, 2), {((1,), (1,)): 1.0, ((2,), (2,)): 0.5, ((1, 2), (1, 2)): 1.25}
        )
    ]
    for family in FAMILIES:
        oracles += random_instance(InstanceSpec(5, (1, 3, 2), {family: 1.0})).network.oracles
    for orc in oracles:
        tab = orc.table()
        m_in, m_out = orc.dims
        assert tab.shape == (1 << m_in, 1 << m_out)
        assert tab.dtype == np.float64
        for u in range(1 << m_in):
            for v in range(1 << m_out):
                assert tab[u, v] == orc.value_masks(u, v), (orc.kind, u, v)
        assert orc.table() is tab


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
