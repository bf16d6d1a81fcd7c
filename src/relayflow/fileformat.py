"""The network file format, which no other module reads or writes: a JSON
object with layer sizes, one capacity spec per layer pair (see
:func:`oracle_from_spec`), optional per-pair model markers, and optional
boundary data, whose fields :func:`boundary_flows` and :func:`source_rates`
read and check for the commands that use them.

Model markers say how each layer pair behaves beyond its capacity values:
``{"kind": "gaussian"}`` and ``{"kind": "discrete"}`` confirm that the
capacity is its own model, ``{"kind": "deterministic"}`` declares a zero
quantizer leak, and ``{"kind": "none"}`` (or a missing marker on a
table/additive/rank capacity) leaves the pair without a model, so rate
planning on it is rejected.  A JSON schema for the format ships in
``schema/network.schema.json``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .capacity import (
    AdditiveOracle,
    CapacityOracle,
    DeterministicLayerModel,
    DiscreteLayerModel,
    ExplicitTableOracle,
    GaussianLogDetOracle,
    LayerModel,
    RankGF2Oracle,
    _mask_indices,
    _require_finite,
)
from .errors import InputError
from .netgraph import LayeredNetwork, NodeId, build_network

#: the capacity kinds seeded instances are drawn from (``oracle.random_instance``,
#: the CLI's ``gen --family``)
FAMILIES = ("additive", "rank_gf2", "gaussian", "discrete")

#: capacity kinds whose oracle is also the layer pair's model
_MODEL_KINDS = ("gaussian", "discrete")


def oracle_from_spec(spec: dict, dims: tuple[int, int] | None = None) -> CapacityOracle:
    """Build an oracle from a JSON spec fragment.

    ``dims`` supplies the layer-pair sizes for table specs that omit their
    own ``dims`` field (network files infer them from the layer list).
    A discrete spec above the discrete node limit raises ``TooLarge``.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError("oracle spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "additive":
            return AdditiveOracle(spec["matrix"])
        if kind == "rank_gf2":
            return RankGF2Oracle(spec["matrix"])
        if kind == "gaussian":
            h_re = np.asarray(spec["h_re"], dtype=float)
            h_im = np.asarray(spec["h_im"], dtype=float)
            # before 1j * inf makes a NaN real part, with a warning
            _require_finite(h_re, "channel matrix entries")
            _require_finite(h_im, "channel matrix entries")
            return GaussianLogDetOracle(h_re + 1j * h_im)
        if kind == "table":
            if "dims" in spec:
                dims = (int(spec["dims"][0]), int(spec["dims"][1]))
            if dims is None:
                raise InputError("table spec needs 'dims' outside a network file")
            values = {}
            for key, val in spec["values"].items():
                u_part, _, v_part = key.partition(";")
                u = tuple(int(t) for t in u_part.split(",") if t)
                v = tuple(int(t) for t in v_part.split(",") if t)
                values[(u, v)] = float(val)
            return ExplicitTableOracle(dims, values)
        if kind == "discrete":
            return DiscreteLayerModel(
                [np.asarray(p, dtype=float) for p in spec["pmfs"]],
                [np.asarray(c, dtype=float) for c in spec["channel"]],
                [np.asarray(q, dtype=float) for q in spec["quantizer"]],
            ).oracle()
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed {kind!r} oracle spec: {exc}") from exc
    raise InputError(f"unknown oracle kind {kind!r}")


def oracle_to_spec(oracle: CapacityOracle) -> dict:
    """Serialize an oracle back to its JSON spec fragment."""
    if isinstance(oracle, AdditiveOracle):
        return {"kind": "additive", "matrix": oracle.matrix.tolist()}
    if isinstance(oracle, RankGF2Oracle):
        return {"kind": "rank_gf2", "matrix": oracle.matrix.tolist()}
    if isinstance(oracle, GaussianLogDetOracle):
        return {
            "kind": "gaussian",
            "h_re": np.real(oracle.h).tolist(),
            "h_im": np.imag(oracle.h).tolist(),
        }
    if isinstance(oracle, ExplicitTableOracle):
        values = {
            ",".join(map(str, _mask_indices(u)))
            + ";"
            + ",".join(map(str, _mask_indices(v))): val
            for (u, v), val in sorted(oracle._table.items())
        }
        return {"kind": "table", "dims": list(oracle.dims), "values": values}
    if isinstance(oracle, DiscreteLayerModel):
        return {
            "kind": "discrete",
            "pmfs": [p.tolist() for p in oracle.input_pmfs],
            "channel": [c.tolist() for c in oracle.channels],
            "quantizer": [q.tolist() for q in oracle.quantizers],
        }
    raise InputError(f"cannot serialize oracle kind {oracle.kind!r}")


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
    oracles = [
        oracle_from_spec(spec, dims=(layers[i], layers[i + 1]))
        for i, spec in enumerate(capacity_specs)
    ]
    net = build_network(layers, oracles)
    models: list[LayerModel | None] = [o if o.kind in _MODEL_KINDS else None for o in oracles]

    markers = data.get("models")
    if markers is not None:
        if len(markers) != len(oracles):
            raise InputError("need one model marker per layer pair")
        for i, marker in enumerate(markers):
            kind = marker.get("kind") if isinstance(marker, dict) else None
            if kind == "deterministic":
                models[i] = DeterministicLayerModel(oracles[i])
            elif kind in _MODEL_KINDS:
                if oracles[i].kind != kind:
                    raise InputError(
                        f"layer pair {i + 1}: {kind} marker on a "
                        f"{oracles[i].kind} capacity"
                    )
            elif kind == "none":
                models[i] = None
            else:
                raise InputError(f"unknown model marker {marker!r}")

    boundary = data.get("boundary", {})
    if not isinstance(boundary, dict):
        raise InputError("'boundary' must be an object")
    return net, models, boundary


def _numbers(boundary: dict, key: str) -> list | None:
    """``boundary[key]``, which must be missing or an array of numbers."""
    values = boundary.get(key)
    # JSON numbers parse to int or float (true and false to bool)
    if values is not None and not (
        isinstance(values, list) and all(type(v) in (int, float) for v in values)
    ):
        raise InputError(f"boundary.{key} must be an array of numbers")
    return values


def boundary_flows(net: LayeredNetwork, boundary: dict) -> dict[NodeId, float] | None:
    """The boundary section's fixed flows of the first and last layer
    (``source_flows`` and ``destination_flows``), or ``None`` if it gives
    neither."""
    src = _numbers(boundary, "source_flows")
    dst = _numbers(boundary, "destination_flows")
    if src is None and dst is None:
        return None
    if src is None or dst is None:
        raise InputError("boundary flows need both source_flows and destination_flows")
    flows = dict(zip(net.layer_nodes(1), map(float, src), strict=True))
    flows.update(zip(net.layer_nodes(net.num_layers), map(float, dst), strict=True))
    return flows


def source_rates(boundary: dict) -> list:
    """The boundary section's per-source rates (``source_rates``)."""
    rates = _numbers(boundary, "source_rates")
    if rates is None:
        raise InputError("multi-source check needs boundary.source_rates")
    return rates


def network_to_dict(
    net: LayeredNetwork,
    models: list[LayerModel | None] | None = None,
) -> dict:
    """Serialize a network (and optional models) to the file format."""
    data: dict[str, Any] = {
        "layers": list(net.layer_sizes),
        "capacities": [oracle_to_spec(o) for o in net.oracles],
    }
    if models is not None:
        for model in models:
            if not (model is None or isinstance(model, LayerModel)):
                raise InputError(f"cannot serialize model {model!r}")
        data["models"] = [{"kind": "none" if m is None else m.kind} for m in models]
    return data
