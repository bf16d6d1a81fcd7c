"""The public surface: the names ``relayflow`` exports, the names the
benchmark imports, and the one-object-per-channel layer models."""

import ast
import importlib
import types
from pathlib import Path

import numpy as np

import relayflow
from relayflow import (
    AdditiveOracle,
    DeterministicLayerModel,
    DiscreteLayerModel,
    GaussianLayerModel,
    GaussianLogDetOracle,
    network_from_models,
)
from relayflow.oracle import InstanceSpec, random_instance

PERFBENCH = Path(__file__).parent.parent / "perfbench"

#: every public name of the package; a change here is an API change
PUBLIC_NAMES = {
    "AdditiveOracle", "AxiomReport", "BadRange", "BoundaryFunction", "CapacityOracle",
    "Cut", "DeterministicLayerModel", "DimensionMismatch", "DiscreteLayerModel",
    "EmptyLayer", "ExplicitTableOracle", "FeasibilityReport", "Flow", "FlowCheck",
    "GaussianLayerModel", "GaussianLogDetOracle", "GeneratedInstance", "Infeasible",
    "InfeasibleBoundary", "InputError", "InstanceSpec", "LayeredNetwork",
    "MultiSourceReport", "NegativeRate", "NodeId", "NonNormalizedPMF",
    "NumericalFailure", "OutOfRange", "RankGF2Oracle", "RateCountMismatch", "RatePlan",
    "RelayFlowError", "SplitMix64", "TooFewLayers", "TooLarge", "UnsupportedModel",
    "attach_supernode", "boundary_function", "brute_max_flow", "brute_min_cut",
    "build_network", "check_capacity_axioms", "check_joint_feasible",
    "check_layered_feasible", "check_multi_source", "cut_value", "decoding_complexity",
    "dump_fixture", "gaussian_gap", "max_flow", "min_cut", "network_from_models",
    "penalty_recursion", "plan_rates", "polymatroid_intersect", "quantizer_leak",
    "random_instance", "subnetwork", "verify_flow",
}


def test_public_names_are_pinned():
    names = {
        name
        for name, obj in vars(relayflow).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert names == PUBLIC_NAMES


def test_names_the_benchmark_imports_exist():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("relayflow"):
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert ("instances.py", "relayflow.capacity", "GaussianLayerModel") in imported
    for filename, module, name in imported:
        assert hasattr(importlib.import_module(module), name), (filename, module, name)


def _models():
    """Gaussian and discrete models of seeded (1, 2, 2, 1) instances."""
    for family in ("gaussian", "discrete"):
        yield from random_instance(InstanceSpec(3, (1, 2, 2, 1), {family: 1.0})).models


def test_gaussian_and_discrete_models_are_their_own_oracles():
    assert GaussianLayerModel is GaussianLogDetOracle
    models = list(_models())
    assert {type(m) for m in models} == {GaussianLogDetOracle, DiscreteLayerModel}
    for model in models:
        assert model.oracle() is model
    for family in ("gaussian", "discrete"):
        models = list(random_instance(InstanceSpec(5, (1, 3, 2, 1), {family: 1.0})).models)
        net = network_from_models(models)
        assert all(o is m for o, m in zip(net.oracles, models, strict=True))


def test_deterministic_model_wraps_its_oracle():
    oracle = AdditiveOracle(np.ones((2, 1)))
    model = DeterministicLayerModel(oracle)
    assert model.oracle() is oracle
    assert network_from_models([model]).oracles[0] is oracle
