"""Seed slot 7 of the in-process benchmark workloads, replayed through
``perfbench/workloads.py``: every op's digest must equal the one recorded in
``perfbench/goldens/<workload>.json``, so a changed answer fails here and not
only in the benchmark.  The goldens are read, never written."""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SLOT = 7


def _workloads():
    # perfbench's modules import each other as top-level names
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("workload", ["flow-ladder", "wide-split", "regions"])
def test_slot_matches_its_golden_digests(workload):
    workloads = _workloads()
    golden = json.loads((BENCH / "goldens" / f"{workload}.json").read_text())
    ops, _ = workloads.setup_in_process(workload, SLOT)
    assert [op.name for op in ops] == golden["names"]
    changed = [
        f"op {k} {op.name}"
        for k, (op, want) in enumerate(zip(ops, golden["slots"][str(SLOT)], strict=True))
        if workloads.digest(op.run()) != want
    ]
    assert not changed
