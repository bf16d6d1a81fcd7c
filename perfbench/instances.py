"""Seeded instance generator for the benchmark.

Layer widths up to 4 go through :func:`relayflow.oracle.random_instance`
unchanged.  Wider instances are drawn from the same ``SplitMix64`` stream in
the same per-pair order (family pick, then the family's parameters in
row-major order) and their oracles are built directly: ``InstanceSpec`` caps
widths at 4, and the exhaustive axiom check it runs on every pair would take
minutes at 8x8.

Every instance leaves this module as a network-file object, so the program
reads its inputs through :mod:`relayflow.fileformat` like any other file.
"""

from __future__ import annotations

import numpy as np

from relayflow.capacity import (
    AdditiveOracle,
    DeterministicLayerModel,
    DiscreteLayerModel,
    GaussianLayerModel,
    RankGF2Oracle,
)
from relayflow.fileformat import network_to_dict
from relayflow.netgraph import build_network
from relayflow.oracle import (
    InstanceSpec,
    SplitMix64,
    _pick_family,
    random_instance,
)

#: widest layer ``random_instance`` accepts
SPEC_WIDTH_CAP = 4


def draw_direct(seed: int, layers, weights) -> tuple[list, list]:
    """Oracles and layer models drawn exactly as ``random_instance`` draws
    them, without its width cap and without the axiom check."""
    rng = SplitMix64(seed)
    oracles, models = [], []
    for l in range(len(layers) - 1):
        m_in, m_out = layers[l], layers[l + 1]
        family = _pick_family(rng, weights)
        if family == "additive":
            matrix = [[4.0 * rng.random() for _ in range(m_out)] for _ in range(m_in)]
            oracle = AdditiveOracle(matrix)
            model = DeterministicLayerModel(oracle)
        elif family == "rank_gf2":
            g = [[rng.bit() for _ in range(m_in)] for _ in range(m_out)]
            oracle = RankGF2Oracle(g)
            model = DeterministicLayerModel(oracle)
        elif family == "gaussian":
            h = np.array(
                [[rng.complex_normal() for _ in range(m_in)] for _ in range(m_out)]
            )
            model = GaussianLayerModel(h)
            oracle = model.oracle()
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
            last_pair = l == len(layers) - 2
            for _ in range(m_out):
                if last_pair:
                    quantizers.append(np.eye(2))
                else:
                    q = np.empty((2, 2))
                    for y in range(2):
                        p1 = 0.1 + 0.8 * rng.random()
                        q[y] = (1.0 - p1, p1)
                    quantizers.append(q)
            model = DiscreteLayerModel(pmfs, channels, quantizers)
            oracle = model.oracle()
        oracles.append(oracle)
        models.append(model)
    return oracles, models


def generate(seed: int, layers, family: str, gain: float = 1.0) -> dict:
    """Network-file object for one seeded instance.

    ``family`` is a capacity family name or ``"mixed"`` (all four families
    weighted equally).  ``gain`` scales every Gaussian channel matrix after
    the draw.
    """
    layers = tuple(int(m) for m in layers)
    if family == "mixed":
        weights = {"additive": 1.0, "rank_gf2": 1.0, "gaussian": 1.0, "discrete": 1.0}
    else:
        weights = {family: 1.0}
    if max(layers) <= SPEC_WIDTH_CAP:
        instance = random_instance(InstanceSpec(seed, layers, weights))
        oracles, models = list(instance.network.oracles), list(instance.models)
    else:
        oracles, models = draw_direct(seed, layers, weights)
    if gain != 1.0:
        for i, model in enumerate(models):
            if isinstance(model, GaussianLayerModel):
                models[i] = GaussianLayerModel(model.h * gain)
                oracles[i] = models[i].oracle()
    return network_to_dict(build_network(layers, oracles), models)
