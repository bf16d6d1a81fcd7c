"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

They check that the generator reproduces ``random_instance``, that the
recorded goldens agree with the brute-force references, and that tracing
changes no answer.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_library()

import instances  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import relayflow  # noqa: E402
from relayflow import cutflow, rateplan  # noqa: E402
from relayflow.fileformat import network_to_dict  # noqa: E402
from relayflow.netgraph import build_network  # noqa: E402
from relayflow.oracle import (  # noqa: E402
    FAMILIES,
    InstanceSpec,
    brute_max_flow,
    brute_min_cut,
    random_instance,
)

GOLDEN_SLOTS = (0, 5)

#: ``brute_max_flow`` runs on networks of up to 12 nodes and this many
#: (U, V) cells; its exact rational simplex takes minutes on (1,5,5,1)
BRUTE_FLOW_CELLS = 320


def _cells(net) -> int:
    return sum(1 << (a + b) for a, b in zip(net.layer_sizes, net.layer_sizes[1:]))


def _goldens(workload: str) -> dict:
    return json.loads((BENCH / "goldens" / f"{workload}.json").read_text())


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


@pytest.mark.parametrize("family", [*FAMILIES, "mixed"])
@pytest.mark.parametrize("layers", [(1, 2, 1), (1, 3, 3, 1), (2, 4, 4, 1), (1, 4, 2, 4, 1), (4, 4)])
def test_direct_draw_reproduces_random_instance(family, layers):
    weights = (
        {name: 1.0 for name in FAMILIES} if family == "mixed" else {family: 1.0}
    )
    for seed in (0, 1, 7, 2**40 + 3):
        instance = random_instance(InstanceSpec(seed, layers, weights))
        oracles, models = instances.draw_direct(seed, layers, weights)
        direct = network_to_dict(build_network(layers, oracles), models)
        assert direct == network_to_dict(instance.network, list(instance.models))


def test_generate_scales_only_gaussian_pairs():
    plain = instances.generate(3, (1, 3, 3, 1), "mixed")
    scaled = instances.generate(3, (1, 3, 3, 1), "mixed", gain=10.0)
    for a, b in zip(plain["capacities"], scaled["capacities"]):
        if a["kind"] == "gaussian":
            assert b["h_re"] == [[10.0 * x for x in row] for row in a["h_re"]]
        else:
            assert a == b


@pytest.mark.parametrize("slot", GOLDEN_SLOTS)
@pytest.mark.parametrize("workload", ["flow-ladder", "wide-split", "regions"])
def test_goldens_agree_with_references(workload, slot):
    golden = _goldens(workload)
    ops, _ = workloads.setup_in_process(workload, slot)
    assert [op.name for op in ops] == golden["names"]
    for op, expected in zip(ops, golden["slots"][str(slot)]):
        record = op.run()
        assert workloads.digest(record) == expected, op.name
        net = op.net
        if "max_flow" in record:
            value = record["max_flow"]["value"]
            assert record["verify_flow"]["pass"], op.name
            if "min_cut" in record:
                assert _close(record["min_cut"]["value"], value, 1e-9), op.name
            if net.is_unicast and net.node_count <= 20:
                assert _close(brute_min_cut(net)[0], value, 1e-9), op.name
            if net.node_count <= 12 and _cells(net) <= BRUTE_FLOW_CELLS:
                flows = None
                if not net.is_unicast:
                    flows = {
                        relayflow.NodeId.from_key(k): v
                        for k, v in record["max_flow"]["flow"].items()
                        if k.split(".")[0] in ("1", str(net.num_layers))
                    }
                assert _close(brute_max_flow(net, flows), value, 1e-6), op.name


@pytest.mark.parametrize("slot", GOLDEN_SLOTS)
def test_cli_goldens(slot, tmp_path):
    golden = _goldens("cli")
    ops, _ = workloads.setup_cli(slot, run.ROOT, tmp_path)
    assert [op.name for op in ops] == golden["names"]
    outputs = {}
    for op, expected in zip(ops, golden["slots"][str(slot)]):
        proc = subprocess.run(workloads.cli_command(op.argv), cwd=run.ROOT,
                              env=run._cli_env(), capture_output=True, timeout=120)
        assert workloads.cli_record(proc.stdout, proc.returncode) == expected, op.name
        outputs[op.name] = proc.stdout
    for target in ("@gen:gauss", "@data:diamond.json"):
        mincut = outputs.get(f"mincut {target}")
        maxflow = outputs.get(f"maxflow {target}")
        if mincut and maxflow:
            assert _close(json.loads(mincut)["value"], json.loads(maxflow)["value"], 1e-9)


def _cheap(op) -> bool:
    return max(op.net.layer_sizes) <= 5 and op.net.node_count <= 12


@pytest.mark.parametrize("workload", ["flow-ladder", "wide-split", "regions"])
def test_tracing_changes_no_answer(workload):
    ops, _ = workloads.setup_in_process(workload, 3)
    ops = [op for op in ops if _cheap(op)] or ops[:1]
    plain = [workloads.canon(op.run()) for op in ops]
    tracer = Tracer()
    original = cutflow.max_flow
    tracer.install()
    try:
        assert rateplan.max_flow is not original and relayflow.max_flow is not original
        traced = []
        for i, op in enumerate(ops):
            span = tracer.begin_op(i)
            traced.append(workloads.canon(op.run()))
            tracer.end_op(span)
    finally:
        tracer.uninstall()
    assert cutflow.max_flow is original and rateplan.max_flow is original
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert "op" in names
    if workload != "regions":
        assert {"cutflow.max_flow", "cutflow.max_flow.depth0",
                "cutflow.polymatroid_intersect"} <= names
        assert tracer.counts["capacity.value_masks.calls"] > 0


def test_traced_cli_matches_plain(tmp_path):
    ops, _ = workloads.setup_cli(3, run.ROOT, tmp_path / "files")
    for op in ops[:3] + ops[-6:]:
        plain = subprocess.run(workloads.cli_command(op.argv), cwd=run.ROOT,
                               env=run._cli_env(), capture_output=True, timeout=120)
        out = tmp_path / "trace.json"
        traced = subprocess.run(
            [sys.executable, str(BENCH / "cli_traced.py"), str(out), *op.argv],
            cwd=run.ROOT, env=run._cli_env(), capture_output=True, timeout=120,
        )
        assert (traced.stdout, traced.returncode) == (plain.stdout, plain.returncode), op.name
        spans = json.loads(out.read_text())["spans"]
        assert any(span[0] == "cli.main" for span in spans), op.name


def test_reference_scales_by_the_units_around_the_work(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run, "perf_counter", lambda: clock[0])
    unit_s = [0.002]

    def unit():
        clock[0] += unit_s[0]

    reference = run.Reference(unit, 0.001)
    assert reference.times == [0.002]
    # the machine runs at half the nominal speed around the work, then at a
    # quarter: the work is scaled by the mean unit time before and after it
    unit_s[0] = 0.004
    assert math.isclose(reference.scale(0.1), 0.1 * 0.001 / 0.003)
    ran = len(reference.times) - 1
    assert ran * 0.004 > run.REF_SHARE * 0.1 >= (ran - 1) * 0.004


def test_hd_quantile_matches_the_beta_weights():
    scipy_stats = pytest.importorskip("scipy.stats")
    values = sorted(1.0 + (i * 37 % 101) ** 1.5 for i in range(60))
    for q in (0.5, 0.9):
        a, b = 61 * q, 61 * (1 - q)
        cdf = [scipy_stats.beta.cdf(i / 60, a, b) for i in range(61)]
        expected = sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(values))
        assert math.isclose(run._hd_quantile(values, q), expected, rel_tol=1e-4)
    assert run._hd_quantile([5.0] * 30, 0.9) == pytest.approx(5.0)
