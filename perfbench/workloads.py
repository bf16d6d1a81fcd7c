"""The benchmark's workloads: seeded op lists, their set-up, and the
canonical record each op's output is checked by.

A workload turns a seed into a list of ops.  The seed selects one of
``SLOTS`` input sets (``seed % SLOTS``); every op of a slot has a golden
digest recorded in ``goldens/<workload>.json``.  Inside a slot, instance
seeds come from one ``SplitMix64`` stream, drawn in op order.

In-process workloads (``flow-ladder``, ``wide-split``, ``regions``) hand the
program network-file objects: set-up generates each instance, writes it as
JSON text and parses it back through :func:`relayflow.fileformat.network_from_dict`.
The ``cli`` workload writes the files to disk and runs one
``python -m relayflow.cli`` process per op.

Ops call the library through module attributes (``cutflow.min_cut``), so
the tracer's rebinding reaches them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from relayflow import capacity, cutflow, fileformat, rateplan
from relayflow.netgraph import NodeId, attach_supernode
from relayflow.oracle import SplitMix64

import instances

SLOTS = 32

#: magnitudes below this are rounding noise of the summation order and are
#: recorded as 0
ZERO_SNAP = 1e-9

#: gain applied to the Gaussian rungs of the ladder that should plan unclamped
LADDER_GAIN = 1000.0

#: instances drawn per rung of the ladder
LADDER_DRAWS = 2

WORKLOADS = ("flow-ladder", "wide-split", "regions", "cli")


# ---------------------------------------------------------------------------
# Canonical records.
# ---------------------------------------------------------------------------


def canon(value):
    """JSON-ready copy with floats at 12 significant digits (as the CLI
    prints them) and near-zero noise snapped to 0."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value) and abs(value) < ZERO_SNAP:
            return 0.0
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return canon(value.item())
    raise TypeError(f"cannot record {type(value).__name__}")


def digest(record) -> str:
    text = json.dumps(canon(record), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cut(value, cut) -> dict:
    return {"value": value, "cut": sorted(n.key() for n in cut.members)}


def _flow(net, flow) -> dict:
    return {
        "value": flow.total(net.layer_nodes(1)),
        "flow": {n.key(): flow.at(n) for n in net.nodes()},
    }


def _flow_check(check) -> dict:
    return {
        "pass": check.passed,
        "margin": -check.worst_excess,
        "conservation_gap": check.conservation_gap,
        "n_constraints": check.n_constraints,
    }


def _plan(plan) -> dict:
    return {
        "R": plan.rate,
        "r": {n.key(): v for n, v in sorted(plan.compression.items())},
        "kappa": list(plan.penalties),
        "flags": list(plan.flags),
    }


def _region(report) -> dict:
    return {
        "pass": report.passed,
        "margin": report.margin,
        "binding": report.binding,
        "n_constraints": report.n_constraints,
    }


# ---------------------------------------------------------------------------
# Op runners: each takes the parsed inputs and returns the op's record.
# ---------------------------------------------------------------------------


def run_ladder(net, models, boundary, spec) -> dict:
    value, cut = cutflow.min_cut(net)
    flow = cutflow.max_flow(net)
    check = cutflow.verify_flow(net, flow)
    plan = rateplan.plan_rates(net, models)
    layered = rateplan.check_layered_feasible(net, models, plan)
    return {
        "min_cut": _cut(value, cut),
        "max_flow": _flow(net, flow),
        "verify_flow": _flow_check(check),
        "plan": _plan(plan),
        "layered": _region(layered),
    }


def run_wide(net, models, boundary, spec) -> dict:
    flow = cutflow.max_flow(net)
    check = cutflow.verify_flow(net, flow)
    return {"max_flow": _flow(net, flow), "verify_flow": _flow_check(check)}


def _boundary_flows(net, boundary) -> dict:
    flows = dict(zip(net.layer_nodes(1), boundary["source_flows"]))
    flows.update(zip(net.layer_nodes(net.num_layers), boundary["destination_flows"]))
    return flows


def run_boundary(net, models, boundary, spec) -> dict:
    flows = _boundary_flows(net, boundary)
    value, cut = cutflow.min_cut(net, flows)
    flow = cutflow.max_flow(net, flows)
    check = cutflow.verify_flow(net, flow)
    return {
        "min_cut": _cut(value, cut),
        "max_flow": _flow(net, flow),
        "verify_flow": _flow_check(check),
    }


def run_joint(net, models, boundary, spec) -> dict:
    relays = [n for l in range(2, net.num_layers) for n in net.layer_nodes(l)]
    compression = dict(zip(relays, spec["compression"]))
    report = rateplan.check_joint_feasible(net, models, spec["rate"], compression)
    return _region(report)


def run_multi(net, models, boundary, spec) -> dict:
    report = rateplan.check_multi_source(net, models, boundary["source_rates"])
    return {
        "pass": report.passed,
        "margin": report.margin,
        "binding": _cut(report.binding.value, report.binding),
        "supernode_margin": report.supernode_margin,
        "n_constraints": report.n_constraints,
    }


def run_axioms(net, models, boundary, spec) -> dict:
    report = capacity.check_capacity_axioms(net.oracles[0])
    return {
        "pass": report.passed,
        "bisubmodular": report.bisubmodular,
        "monotone": report.monotone,
        "zero_on_empty": report.zero_on_empty,
        "counterexample": report.counterexample,
        "n_checks": report.n_checks,
    }


RUNNERS: dict[str, Callable] = {
    "ladder": run_ladder,
    "wide": run_wide,
    "boundary": run_boundary,
    "joint": run_joint,
    "multi": run_multi,
    "axioms": run_axioms,
}


# ---------------------------------------------------------------------------
# Op lists.  Each spec is plain data; ``seed`` is filled in per slot.
# ---------------------------------------------------------------------------


def _ladder_shape(width: int, depth: int) -> tuple[int, ...]:
    """One rung: the width appears in one or two inner layers, the other
    inner layers stay at 2-3 wide so the widest pair sets the cost."""
    if depth == 3:
        return (1, width, 1)
    if depth == 4:
        return (1, width, width, 1)
    if depth == 5:
        return (1, 2, width, 2, 1)
    return (1, 2, width, min(width, 3), 2, 1)


def _ladder_specs() -> list[dict]:
    """Every rung twice, with its own draw: the cost of one rung changes
    with the pair parameters drawn, and the ops near the p90 are few, so
    one draw per rung lets the seed move the p90 by a fifth."""
    rungs = []
    widths = {"additive": range(2, 8), "rank_gf2": range(2, 8), "gaussian": range(2, 7),
              "discrete": range(2, 6)}
    for family, ws in widths.items():
        for w in ws:
            for depth in (3, 4, 5, 6):
                rungs.append({"op": "ladder", "family": family,
                              "layers": _ladder_shape(w, depth), "gain": 1.0})
    for layers in ((1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 6, 1), (1, 2, 2, 1),
                   (1, 3, 3, 1), (1, 2, 2, 2, 1), (1, 2, 3, 2, 1)):
        rungs.append({"op": "ladder", "family": "gaussian", "layers": layers,
                      "gain": LADDER_GAIN})
    return [rung for rung in rungs for _ in range(LADDER_DRAWS)]


def _wide_specs() -> list[dict]:
    """Additive (1, m, 1) networks only.  With wider outer layers the
    simplex pivot count varies several-fold from seed to seed, and Gaussian
    oracle calls cost enough that the oracle, not the simplex, would lead.
    The simplex time of one instance still varies about 15% from draw to
    draw, so each width has several.  The counts are 1 : 3 : 1, so that the
    median falls on the middle one of the fifteen (1, 10, 1) ops and the
    p90 on the middle one of the five (1, 11, 1) ops."""
    shapes = [(1, 9, 1)] * 5 + [(1, 10, 1)] * 15 + [(1, 11, 1)] * 5
    return [{"op": "wide", "family": "additive", "layers": s, "gain": 1.0} for s in shapes]


def _regions_specs() -> list[dict]:
    """The repeated discrete (1, 3, 1) joint checks and additive (3, 3, 3, 1)
    multi-source checks cost about the same, every seed; they put the
    median inside a cluster of like ops rather than in a gap."""
    specs = []
    for family, layers in (
        ("discrete", (1, 2, 1)), ("discrete", (1, 3, 1)), ("discrete", (1, 3, 1)),
        ("discrete", (1, 3, 1)), ("discrete", (1, 3, 1)), ("discrete", (1, 2, 2, 1)),
        ("discrete", (1, 4, 1)), ("discrete", (1, 2, 1, 2, 1)), ("discrete", (1, 3, 2, 1)),
        ("gaussian", (1, 2, 1)), ("gaussian", (1, 2, 2, 1)), ("gaussian", (1, 3, 3, 1)),
        ("gaussian", (1, 2, 2, 2, 1)), ("gaussian", (1, 6, 1)),
    ):
        specs.append({"op": "joint", "family": family, "layers": layers, "gain": 1.0})
    for family, layers in (
        ("additive", (3, 3, 3, 1)), ("additive", (3, 3, 3, 1)), ("additive", (3, 3, 3, 1)),
        ("gaussian", (3, 3, 3, 1)), ("rank_gf2", (3, 4, 3, 1)),
        ("additive", (4, 4, 4, 1)), ("gaussian", (4, 4, 4, 1)), ("rank_gf2", (4, 4, 4, 1)),
    ):
        specs.append({"op": "multi", "family": family, "layers": layers, "gain": 1.0})
    for family, layers in (
        ("additive", (3, 3)), ("gaussian", (3, 3)), ("rank_gf2", (4, 4)),
        ("discrete", (4, 4)), ("gaussian", (4, 5)), ("additive", (5, 5)),
    ):
        specs.append({"op": "axioms", "family": family, "layers": layers, "gain": 1.0})
    for family, layers in (
        ("additive", (2, 3, 2)), ("additive", (3, 4, 3)), ("rank_gf2", (3, 3, 3)),
        ("gaussian", (2, 4, 4, 2)), ("gaussian", (3, 3, 2)), ("additive", (2, 3, 3, 2)),
    ):
        specs.append({"op": "boundary", "family": family, "layers": layers, "gain": 1.0})
    return specs


#: generated network files of the ``cli`` workload, keyed by name
CLI_FILES = {
    "gauss": ("gaussian", (1, 2, 2, 1)),
    "disc": ("discrete", (1, 2, 1)),
    "mixed": ("mixed", (1, 3, 3, 1)),
    "multi": ("additive", (3, 2, 1)),
}

#: (arguments, file) per op; ``{file}`` and ``{seed}`` are filled in per slot
CLI_OPS = [
    (("validate", "{file}"), "data:diamond.json"),
    (("mincut", "{file}"), "data:line.json"),
    (("maxflow", "{file}"), "data:diamond.json"),
    (("plan", "{file}"), "data:diamond.json"),
    (("check", "{file}", "--mode", "layered"), "data:diamond.json"),
    (("complexity", "{file}", "--block-length", "10", "--quantizer-points", "1024"),
     "data:diamond.json"),
    (("validate", "{file}"), "gen:gauss"),
    (("mincut", "{file}"), "gen:gauss"),
    (("maxflow", "{file}"), "gen:gauss"),
    (("plan", "{file}"), "gen:gauss"),
    (("check", "{file}", "--mode", "layered"), "gen:gauss"),
    (("check", "{file}", "--mode", "joint"), "gen:gauss"),
    (("complexity", "{file}", "--block-length", "4", "--quantizer-points", "16"),
     "gen:gauss"),
    (("plan", "{file}"), "gen:disc"),
    (("check", "{file}", "--mode", "joint"), "gen:disc"),
    (("validate", "{file}"), "gen:mixed"),
    (("maxflow", "{file}"), "gen:mixed"),
    (("mincut", "{file}"), "gen:multi"),
    (("check", "{file}", "--mode", "multi"), "gen:multi"),
    (("gen", "--seed", "{seed}", "--layers", "1,3,2,1", "--family", "mixed"), None),
]


def op_specs(workload: str, seed: int) -> list[dict]:
    """The op list of ``workload`` for ``seed``, with instance seeds drawn."""
    if workload == "flow-ladder":
        specs = _ladder_specs()
    elif workload == "wide-split":
        specs = _wide_specs()
    elif workload == "regions":
        specs = _regions_specs()
    elif workload == "cli":
        specs = [{"op": "cli", "args": a, "file": f} for a, f in CLI_OPS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    slot = seed % SLOTS
    rng = SplitMix64((WORKLOADS.index(workload) << 32) | slot)
    out = []
    for spec in specs:
        spec = dict(spec, seed=rng.next_u64() & 0xFFFFFFFF)
        if spec["op"] == "joint":
            n_relays = sum(spec["layers"][1:-1])
            spec["rate"] = 0.5 * rng.random()
            spec["compression"] = [0.5 * rng.random() for _ in range(n_relays)]
        elif spec["op"] == "multi":
            spec["source_rates"] = [0.5 * rng.random() for _ in range(spec["layers"][0])]
        out.append(spec)
    return out


def op_name(spec: dict) -> str:
    if spec["op"] == "cli":
        target = spec["file"] or "-"
        return " ".join(a for a in spec["args"] if a != "{file}") + f" @{target}"
    gain = "" if spec["gain"] == 1.0 else f"x{spec['gain']:g}"
    return f"{spec['op']}:{spec['family']}{gain}:" + "-".join(map(str, spec["layers"]))


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------


def _feasible_boundary(data: dict) -> dict:
    """Boundary flows at half of a max flow through both-side supernodes,
    strictly inside the feasible region."""
    net, _, _ = fileformat.network_from_dict(data)
    ext = attach_supernode(net, "before_sources", [1000.0] * net.layer_sizes[0])
    ext = attach_supernode(ext, "after_destinations", [1000.0] * net.layer_sizes[-1])
    flow = cutflow.max_flow(ext)
    src = [0.5 * flow.at(NodeId(2, i)) for i in range(1, net.layer_sizes[0] + 1)]
    dst = [
        0.5 * flow.at(NodeId(net.num_layers + 1, i))
        for i in range(1, net.layer_sizes[-1] + 1)
    ]
    return {"source_flows": src, "destination_flows": dst}


def file_object(spec: dict) -> dict:
    """The network-file object of one in-process op or generated CLI file."""
    data = instances.generate(spec["seed"], spec["layers"], spec["family"], spec["gain"])
    if spec["op"] == "multi":
        data["boundary"] = {"source_rates": list(spec["source_rates"])}
    elif spec["op"] == "boundary":
        data["boundary"] = _feasible_boundary(data)
    return data


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    net: object


@dataclass
class SetupStats:
    generate_s: float = 0.0
    parse_s: float = 0.0
    bytes_parsed: int = 0


def setup_in_process(workload: str, seed: int) -> tuple[list[Op], SetupStats]:
    """Generate, write and parse every input of an in-process workload."""
    stats = SetupStats()
    ops = []
    for spec in op_specs(workload, seed):
        t0 = time.perf_counter()
        data = file_object(spec)
        stats.generate_s += time.perf_counter() - t0
        text = json.dumps(data)
        t0 = time.perf_counter()
        net, models, boundary = fileformat.network_from_dict(json.loads(text))
        stats.parse_s += time.perf_counter() - t0
        stats.bytes_parsed += len(text)
        run = functools.partial(RUNNERS[spec["op"]], net, models, boundary, spec)
        ops.append(Op(op_name(spec), run, net))
    return ops, stats


@dataclass
class CliOp:
    name: str
    argv: list[str]
    bytes_in: int


def setup_cli(seed: int, root: Path, workdir: Path) -> tuple[list[CliOp], SetupStats]:
    """Write the generated network files and build one argv per op."""
    stats = SetupStats()
    specs = op_specs("cli", seed)
    paths: dict[str, Path] = {}
    workdir.mkdir(parents=True, exist_ok=True)
    file_seeds = SplitMix64(seed % SLOTS)
    for key, (family, layers) in CLI_FILES.items():
        spec = {"op": "multi" if layers[-1] == 1 and layers[0] > 1 else "file",
                "family": family, "layers": layers, "gain": 1.0,
                "seed": file_seeds.next_u64() & 0xFFFFFFFF}
        if spec["op"] == "multi":
            spec["source_rates"] = [0.5 * file_seeds.random() for _ in range(layers[0])]
        t0 = time.perf_counter()
        data = file_object(spec)
        stats.generate_s += time.perf_counter() - t0
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(data, indent=1))
        paths[f"gen:{key}"] = path
    ops = []
    for spec in specs:
        target = spec["file"]
        path = None
        if target is not None:
            path = paths[target] if target.startswith("gen:") else (
                root / "tests" / "data" / target.split(":", 1)[1]
            )
        argv = [
            str(path) if a == "{file}" else a.replace("{seed}", str(seed % SLOTS))
            for a in spec["args"]
        ]
        size = path.stat().st_size if path is not None else 0
        ops.append(CliOp(op_name(spec), argv, size))
    return ops, stats


def cli_record(stdout: bytes, returncode: int) -> str:
    return f"{hashlib.sha256(stdout).hexdigest()}:{returncode}"


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "relayflow.cli", *argv]
