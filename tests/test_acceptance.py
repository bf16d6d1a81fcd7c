"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The shared 200-instance batch is computed once per session.
"""

import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import relayflow as rf
from relayflow import cutflow
from relayflow.oracle import (
    FAMILIES,
    InstanceSpec,
    SplitMix64,
    brute_max_flow,
    brute_min_cut,
    random_instance,
)

DATA = Path(__file__).parent / "data"

MIXES = (
    {name: 1.0 for name in FAMILIES},
    {"additive": 1.0},
    {"rank_gf2": 1.0},
    {"gaussian": 1.0},
    {"discrete": 1.0},
)


def duality_specs(count=200):
    """Seeded instance list: layer counts cycle 2..4, widths up to 3,
    family mixes cycle through mixed and the four pure families."""
    specs = []
    for i in range(count):
        seed = i + 1
        rng = SplitMix64(seed * 0x9E37)
        L = 2 + i % 3
        sizes = tuple([1] + [1 + rng.next_u64() % 3 for _ in range(L - 2)] + [1])
        specs.append(InstanceSpec(seed, sizes, MIXES[i % 5]))
    return specs


@dataclass
class SuiteRecord:
    spec: InstanceSpec
    instance: object
    mincut: float
    brute_cut: float
    brute_flow: float
    flow: rf.Flow
    flow_total: float
    boundary_fns: list = field(default_factory=list)


@pytest.fixture(scope="module")
def suite():
    records = []
    boundary_function = cutflow.boundary_function

    def recording(*args, **kwargs):
        # collects into the current instance's list, bound in the loop below
        fn = boundary_function(*args, **kwargs)
        collected.append(fn)
        return fn

    start = time.monotonic()
    for spec in duality_specs():
        instance = random_instance(spec)
        net = instance.network
        mincut, _ = rf.min_cut(net)
        bcut, _ = brute_min_cut(net)
        bflow = brute_max_flow(net)
        collected = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cutflow, "boundary_function", recording)
            flow = rf.max_flow(net)
        records.append(
            SuiteRecord(
                spec,
                instance,
                mincut,
                bcut,
                bflow,
                flow,
                flow.total(net.layer_nodes(1)),
                collected,
            )
        )
    elapsed = time.monotonic() - start
    return records, elapsed


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS — {detail}")


def test_criterion_1_duality_suite(suite):
    records, elapsed = suite
    assert len(records) == 200
    n_exact = 0
    for rec in records:
        scale = max(1.0, abs(rec.mincut))
        values = (rec.mincut, rec.flow_total, rec.brute_cut, rec.brute_flow)
        for v in values:
            assert abs(v - rec.mincut) <= 1e-6 * scale, (rec.spec, values)
        if all(f == "rank_gf2" for f in rec.instance.families):
            n_exact += 1
            assert rec.mincut == float(int(rec.mincut))
            assert rec.flow_total == rec.mincut, rec.spec
            assert rec.brute_cut == rec.mincut, rec.spec
            assert rec.brute_flow == rec.mincut, rec.spec
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    _report(
        "criterion 1",
        f"duality on 200 instances ({n_exact} exact-integer), {elapsed:.1f}s",
    )


def test_criterion_2_flow_feasibility(suite):
    records, _ = suite
    worst = 0.0
    for rec in records:
        report = rf.verify_flow(rec.instance.network, rec.flow)
        assert report.worst_excess <= 1e-6, (rec.spec, report.worst_excess)
        assert report.conservation_gap <= 1e-6
        worst = max(worst, report.worst_excess)
    _report("criterion 2", f"all flows feasible, worst constraint excess {worst:.2e}")


def test_criterion_3_discrete_information_axioms():
    checked = 0
    for seed in range(1, 51):
        rng = SplitMix64(seed * 101)
        m_in = 1 + rng.next_u64() % 3
        m_out = 1 + rng.next_u64() % 3
        inst = random_instance(InstanceSpec(seed, (1, m_in, m_out), {"discrete": 1.0}))
        for oracle in inst.network.oracles:
            report = rf.check_capacity_axioms(oracle, tol=1e-9)
            assert report.passed, (seed, report.counterexample)
            checked += 1
    _report("criterion 3", f"{checked} discrete information oracles pass all axioms")


def test_criterion_4_boundary_function_lemma(suite):
    records, _ = suite
    checked = 0
    for rec in records:
        for fn in rec.boundary_fns:
            ok, why = fn.check_polymatroid(tol=1e-9)
            assert ok, (rec.spec, fn.side, why)
            assert fn.values[0] == 0.0
            checked += 1
    assert checked > 0
    _report(
        "criterion 4",
        f"{checked} boundary functions are normalized monotone submodular",
    )


def test_criterion_5_deterministic_specialization():
    for seed in range(1, 31):
        rng = SplitMix64(seed * 31)
        L = 2 + seed % 3
        sizes = tuple([1] + [1 + rng.next_u64() % 3 for _ in range(L - 2)] + [1])
        inst = random_instance(InstanceSpec(seed, sizes, {"rank_gf2": 1.0}))
        plan = rf.plan_rates(inst.network, inst.models)
        assert plan.penalties == (0.0,) * (L - 1)
        mincut, _ = rf.min_cut(inst.network)
        assert mincut == float(int(mincut))
        assert plan.rate == mincut, (seed, plan.rate, mincut)
        report = rf.check_layered_feasible(inst.network, inst.models, plan)
        assert report.passed
        assert report.margin >= 0.0, (seed, report.margin)
    _report("criterion 5", "30 linear-deterministic plans meet the integer cut exactly")


def test_criterion_6_gaussian_constants():
    import numpy as np

    rng = SplitMix64(606)
    for trial in range(20):
        m_in = 1 + rng.next_u64() % 3
        m_out = 1 + rng.next_u64() % 3
        h = np.array(
            [[rng.complex_normal() for _ in range(m_in)] for _ in range(m_out)]
        )
        model = rf.GaussianLayerModel(h)
        assert abs(rf.quantizer_leak(model) - m_out * 1.0) <= 1e-9

    three = rf.build_network(
        [1, 1, 1], [rf.AdditiveOracle([[1.0]]), rf.AdditiveOracle([[1.0]])]
    )
    assert rf.gaussian_gap(three) == (9.0, 7.0)

    for trial in range(20):
        L = 2 + rng.next_u64() % 3
        sizes = tuple([1] + [1 + rng.next_u64() % 3 for _ in range(L - 2)] + [1])
        net = rf.build_network(
            sizes,
            [
                rf.AdditiveOracle([[1.0] * sizes[i + 1]] * sizes[i])
                for i in range(L - 1)
            ],
        )
        # layer l pays one bit, plus n(l+1) times the next layer's penalty
        want = [float(sum(math.prod(sizes[l:k]) for k in range(l, L - 1))) for l in range(1, L)]
        assert rf.penalty_recursion(net, leaks=[1.0] * (L - 1)) == want
    _report(
        "criterion 6",
        "unit leaks, gap constants (9, 7), and penalty recursions all exact",
    )


def test_criterion_7_layered_consistency(suite):
    records, _ = suite
    qualifying = 0
    worst = 0.0
    for rec in records:
        if not all(f in ("gaussian", "discrete") for f in rec.instance.families):
            continue
        plan = rf.plan_rates(rec.instance.network, rec.instance.models)
        if plan.flags:
            continue  # some flow fell below its layer penalty
        qualifying += 1
        report = rf.check_layered_feasible(
            rec.instance.network, rec.instance.models, plan
        )
        assert report.margin >= -1e-6, (rec.spec, report.margin, report.binding)
        worst = min(worst, report.margin)
    assert qualifying > 0
    _report(
        "criterion 7",
        f"{qualifying} planned instances stay in the layered region "
        f"(worst margin {worst:.2e})",
    )


def test_criterion_8_multi_source_agreement():
    rng = SplitMix64(808)
    for seed in range(1, 21):
        width = 1 + seed % 3
        sizes = (2, width, 1)
        mix = MIXES[seed % 5]
        inst = random_instance(InstanceSpec(seed, sizes, mix))
        rates = [2.0 * rng.random(), 2.0 * rng.random()]
        report = rf.check_multi_source(inst.network, inst.models, rates)
        assert abs(report.margin - report.supernode_margin) <= 1e-9 * max(
            1.0, abs(report.margin)
        )
        assert report.passed == (report.supernode_margin >= -1e-9)
    _report("criterion 8", "direct and supernode margins agree on 20 instances")


def test_criterion_9_cli_determinism_and_goldens():
    goldens = {
        ("mincut", "line.json"): '{"cut": ["1.1", "2.1"], "value": 2.0}\n',
        ("mincut", "diamond.json"): '{"cut": ["1.1", "2.2"], "value": 2.0}\n',
        (
            "maxflow",
            "diamond.json",
        ): '{"flow": {"1.1": 2.0, "2.1": 1.0, "2.2": 1.0, "3.1": 2.0}, "value": 2.0}\n',
    }
    for (command, fname), expected in sorted(goldens.items()):
        outs = set()
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "relayflow.cli", command, str(DATA / fname)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0
            outs.add(proc.stdout)
        assert outs == {expected}, (command, fname, outs)
    _report("criterion 9", "CLI output byte-identical and golden fixtures exact")
