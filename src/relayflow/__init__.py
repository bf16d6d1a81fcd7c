"""relayflow: node-flows on layered networks with bisubmodular capacities,
and compression-rate planning for compress-and-forward relaying with
layered (backward) decoding.

The package namespace is lazy (PEP 562): ``import relayflow`` loads no
submodule, and each public name imports its submodule the first time it
is read."""

import importlib

#: each submodule and the public names it defines, the one list of them
_EXPORTS = {
    "capacity": (
        "AdditiveOracle", "AxiomReport", "CapacityOracle", "DeterministicLayerModel",
        "DiscreteLayerModel", "ExplicitTableOracle", "GaussianLayerModel",
        "GaussianLogDetOracle", "RankGF2Oracle", "check_capacity_axioms", "quantizer_leak",
    ),
    "cutflow": (
        "BoundaryFunction", "FlowCheck", "boundary_function", "cut_value", "max_flow",
        "min_cut", "polymatroid_intersect", "verify_flow",
    ),
    "errors": (
        "BadRange", "DimensionMismatch", "EmptyLayer", "Infeasible", "InfeasibleBoundary",
        "InputError", "NegativeRate", "NonNormalizedPMF", "NumericalFailure", "OutOfRange",
        "RateCountMismatch", "RelayFlowError", "TooFewLayers", "TooLarge",
        "UnsupportedModel",
    ),
    "netgraph": (
        "Cut", "Flow", "LayeredNetwork", "NodeId", "attach_supernode", "build_network",
        "subnetwork",
    ),
    "oracle": (
        "GeneratedInstance", "InstanceSpec", "SplitMix64", "brute_max_flow",
        "brute_min_cut", "dump_fixture", "random_instance",
    ),
    "rateplan": (
        "FeasibilityReport", "MultiSourceReport", "RatePlan", "check_joint_feasible",
        "check_layered_feasible", "check_multi_source", "decoding_complexity",
        "gaussian_gap", "network_from_models", "penalty_recursion", "plan_rates",
    ),
}

#: public name -> the submodule that defines it
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNERS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and bind the name here, so
    that later reads skip this hook."""
    try:
        module = _OWNERS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
