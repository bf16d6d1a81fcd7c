"""Seed slot 7 of every benchmark workload, replayed through
``perfbench/workloads.py``: every op's digest (a CLI op's stdout hash and
exit code) must equal the one recorded in ``perfbench/goldens/<workload>.json``,
so a changed answer fails here and not only in the benchmark.  The goldens
are read, never written."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SLOT = 7


def _bench_module(name):
    # perfbench's modules import each other as top-level names
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", ["flow-ladder", "wide-split", "regions"])
def test_slot_matches_its_golden_digests(workload):
    workloads = _bench_module("workloads")
    golden = json.loads((BENCH / "goldens" / f"{workload}.json").read_text())
    ops, _ = workloads.setup_in_process(workload, SLOT)
    assert [op.name for op in ops] == golden["names"]
    changed = [
        f"op {k} {op.name}"
        for k, (op, want) in enumerate(zip(ops, golden["slots"][str(SLOT)], strict=True))
        if workloads.digest(op.run()) != want
    ]
    assert not changed


def test_cli_slot_matches_its_golden_records(tmp_path):
    workloads = _bench_module("workloads")
    golden = json.loads((BENCH / "goldens" / "cli.json").read_text())
    ops, _ = workloads.setup_cli(SLOT, ROOT, tmp_path)
    assert [op.name for op in ops] == golden["names"]
    # the checkout's sources first, as the benchmark runs them
    env = _bench_module("run")._cli_env()
    changed = []
    for k, (op, want) in enumerate(zip(ops, golden["slots"][str(SLOT)], strict=True)):
        proc = subprocess.run(
            workloads.cli_command(op.argv), cwd=ROOT, env=env, capture_output=True, timeout=60
        )
        if workloads.cli_record(proc.stdout, proc.returncode) != want:
            changed.append(f"op {k} {op.name}: exit {proc.returncode}")
    assert not changed
