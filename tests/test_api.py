"""The public surface: the names ``relayflow`` exports, the modules a
process loads for them, the names the benchmark imports, and the
one-object-per-channel layer models."""

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

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
DATA = Path(__file__).parent / "data"

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
    # the namespace is lazy: a name is bound in vars() once it is first read
    assert set(relayflow.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(relayflow))
    for name in PUBLIC_NAMES:
        obj = getattr(relayflow, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("relayflow.") and getattr(module, name) is obj
    names = {
        name
        for name, obj in vars(relayflow).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert names == PUBLIC_NAMES
    with pytest.raises(AttributeError, match="has no attribute 'cli_main'"):
        relayflow.cli_main


def _imported(*args: str) -> set[str]:
    """The modules a fresh ``python <args>`` process imports, as its
    ``-X importtime`` report on stderr names them."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "command,loads,skips",
    [
        ("validate", "capacity", ("cutflow", "rateplan", "oracle")),
        ("mincut", "cutflow", ("rateplan", "oracle")),
        ("maxflow", "cutflow", ("rateplan", "oracle")),
        ("plan", "rateplan", ("oracle",)),
    ],
)
def test_each_cli_command_imports_only_what_it_runs(command, loads, skips):
    imported = _imported("-m", "relayflow.cli", command, str(DATA / "diamond.json"))
    assert f"relayflow.{loads}" in imported
    assert not imported & {f"relayflow.{module}" for module in skips}


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    imported = _imported("-c", "import relayflow")
    assert "relayflow" in imported
    assert "numpy" not in imported
    assert not {name for name in imported if name.startswith("relayflow.")}


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
