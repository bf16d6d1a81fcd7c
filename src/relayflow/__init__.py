"""relayflow: node-flows on layered networks with bisubmodular capacities,
and compression-rate planning for compress-and-forward relaying with
layered (backward) decoding."""

from .capacity import (
    AdditiveOracle,
    AxiomReport,
    CapacityOracle,
    DeterministicLayerModel,
    DiscreteLayerModel,
    ExplicitTableOracle,
    GaussianLayerModel,
    GaussianLogDetOracle,
    RankGF2Oracle,
    check_capacity_axioms,
    quantizer_leak,
)
from .cutflow import (
    BoundaryFunction,
    FlowCheck,
    boundary_function,
    cut_value,
    max_flow,
    min_cut,
    polymatroid_intersect,
    verify_flow,
)
from .errors import (
    BadRange,
    DimensionMismatch,
    EmptyLayer,
    Infeasible,
    InfeasibleBoundary,
    InputError,
    NegativeRate,
    NonNormalizedPMF,
    NumericalFailure,
    OutOfRange,
    RateCountMismatch,
    RelayFlowError,
    TooFewLayers,
    TooLarge,
    UnsupportedModel,
)
from .netgraph import (
    Cut,
    Flow,
    LayeredNetwork,
    NodeId,
    attach_supernode,
    build_network,
    subnetwork,
)
from .oracle import (
    GeneratedInstance,
    InstanceSpec,
    SplitMix64,
    brute_max_flow,
    brute_min_cut,
    dump_fixture,
    random_instance,
)
from .rateplan import (
    FeasibilityReport,
    MultiSourceReport,
    RatePlan,
    check_joint_feasible,
    check_layered_feasible,
    check_multi_source,
    decoding_complexity,
    gaussian_gap,
    network_from_models,
    penalty_recursion,
    plan_rates,
)

__version__ = "0.1.0"
