"""The network file format: a JSON object with layer sizes, one capacity
spec per layer pair, optional per-pair model markers, and optional boundary
data.

Model markers say how each layer pair behaves beyond its capacity values:
``{"kind": "gaussian"}`` and ``{"kind": "discrete"}`` reuse the channel
data already present in the capacity spec, ``{"kind": "deterministic"}``
declares a zero quantizer leak, and ``{"kind": "none"}`` (or a missing
marker on a table/additive/rank capacity) leaves the pair without a model,
so rate planning on it is rejected.  A JSON schema for the format ships in
``schema/network.schema.json``.
"""

from __future__ import annotations

from typing import Any

from .capacity import (
    CapacityOracle,
    DeterministicLayerModel,
    DiscreteLayerModel,
    GaussianLayerModel,
    LayerModel,
    oracle_from_spec,
    oracle_to_spec,
)
from .errors import InputError
from .netgraph import LayeredNetwork, build_network


def network_from_dict(
    data: dict,
) -> tuple[LayeredNetwork, list[LayerModel | None], dict[str, Any]]:
    """Parse a network file object into the network, its per-pair models
    (``None`` where no model applies), and the raw boundary section."""
    if not isinstance(data, dict):
        raise InputError("network file must be a JSON object")
    for key in ("layers", "models"):
        if not isinstance(data.get(key, []), list):
            raise InputError(f"'{key}' must be an array")
    try:
        layers = [int(m) for m in data["layers"]]
        capacity_specs = list(data["capacities"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"network file needs 'layers' and 'capacities': {exc}") from exc

    if len(capacity_specs) != len(layers) - 1:
        raise InputError(f"{len(layers)} layers need {len(layers) - 1} capacity specs")
    oracles: list[CapacityOracle] = []
    derived: list[LayerModel | None] = []
    for i, spec in enumerate(capacity_specs):
        oracle, model = oracle_from_spec(spec, dims=(layers[i], layers[i + 1]))
        oracles.append(oracle)
        derived.append(model)
    net = build_network(layers, oracles)

    markers = data.get("models")
    if markers is not None:
        if len(markers) != len(oracles):
            raise InputError("need one model marker per layer pair")
        for i, marker in enumerate(markers):
            kind = marker.get("kind") if isinstance(marker, dict) else None
            if kind == "deterministic":
                derived[i] = DeterministicLayerModel(oracles[i])
            elif kind == "gaussian":
                if not isinstance(derived[i], GaussianLayerModel):
                    raise InputError(
                        f"layer pair {i + 1}: gaussian marker on a "
                        f"{oracles[i].kind} capacity"
                    )
            elif kind == "discrete":
                if not isinstance(derived[i], DiscreteLayerModel):
                    raise InputError(
                        f"layer pair {i + 1}: discrete marker on a "
                        f"{oracles[i].kind} capacity"
                    )
            elif kind == "none":
                derived[i] = None
            else:
                raise InputError(f"unknown model marker {marker!r}")

    boundary = data.get("boundary", {})
    if not isinstance(boundary, dict):
        raise InputError("'boundary' must be an object")
    return net, derived, boundary


def network_to_dict(
    net: LayeredNetwork,
    models: list[LayerModel | None] | None = None,
    boundary: dict[str, Any] | None = None,
) -> dict:
    """Serialize a network (and optional models / boundary data) to the
    file format."""
    data: dict[str, Any] = {
        "layers": list(net.layer_sizes),
        "capacities": [oracle_to_spec(o) for o in net.oracles],
    }
    if models is not None:
        markers = []
        for model in models:
            if model is None:
                markers.append({"kind": "none"})
            elif isinstance(model, DeterministicLayerModel):
                markers.append({"kind": "deterministic"})
            elif isinstance(model, GaussianLayerModel):
                markers.append({"kind": "gaussian"})
            elif isinstance(model, DiscreteLayerModel):
                markers.append({"kind": "discrete"})
            else:
                raise InputError(f"cannot serialize model {model!r}")
        data["models"] = markers
    if boundary:
        data["boundary"] = boundary
    return data
