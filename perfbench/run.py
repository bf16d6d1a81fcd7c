"""Seeded benchmark of relayflow.

    python3 perfbench/run.py --workload flow-ladder --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop from this process (one client, one op
at a time), checks every op's output against the goldens recorded in
``perfbench/goldens/``, prints a table of metrics with their sample counts,
and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the
separate traced run: it times whole passes with spans around the library's
public functions, replays the same passes untraced to measure the tracing
overhead, and reports the per-layer metrics.  Spans are written to
``.perfbench_out/`` at exit.

The library is imported from ``src/`` of the checkout this file sits in;
without it the run exits non-zero before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

#: set-up runs at least this many times, and on until this share of the
#: run's seconds is spent; the median is reported
SETUP_REPS = 3
SETUP_SHARE = 0.1
#: smallest sample that leaves 10 samples above the p90
MIN_OPS = 100
#: after each timed piece of work, reference units run for at least this
#: share of its time
REF_SHARE = 0.12
#: interpreter start-up probes per traced run
PROBE_REPS = 3
#: longest a single CLI op may take before it counts as failed
CLI_TIMEOUT_S = 120

END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("capacity.value_masks.calls", "count"),
    ("capacity.value_masks.s", "s"),
    ("capacity.distinct_ratio", "ratio"),
    ("capacity.check_capacity_axioms.self_s", "s"),
    ("capacity.check_capacity_axioms.n_checks", "count"),
    ("cutflow.min_cut.self_s", "s"),
    ("cutflow.min_cut.calls", "count"),
    ("cutflow.boundary_function.self_s", "s"),
    ("cutflow.boundary_function.calls", "count"),
    ("cutflow.max_flow.self_s", "s"),
    ("cutflow.max_flow.depth0.self_s", "s"),
    ("cutflow.max_flow.depth1.self_s", "s"),
    ("cutflow.max_flow.depth2.self_s", "s"),
    ("cutflow.max_flow.depth3.self_s", "s"),
    ("cutflow.polymatroid_intersect.self_s", "s"),
    ("cutflow.polymatroid_intersect.calls", "count"),
    ("cutflow.polymatroid_intersect.ground_size", "count"),
    ("cutflow.polymatroid_intersect.tableau_bytes_computed", "bytes"),
    ("cutflow.verify_flow.self_s", "s"),
    ("cutflow.verify_flow.n_constraints", "count"),
    ("rateplan.plan_rates.self_s", "s"),
    ("rateplan.check_layered_feasible.self_s", "s"),
    ("rateplan.check_layered_feasible.n_constraints", "count"),
    ("rateplan.check_joint_feasible.self_s", "s"),
    ("rateplan.check_joint_feasible.n_constraints", "count"),
    ("rateplan.check_multi_source.self_s", "s"),
    ("rateplan.check_multi_source.n_constraints", "count"),
    ("fileformat.network_from_dict.s", "s"),
    ("fileformat.bytes_in", "bytes"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("oracle.generate.s", "s"),
    ("capacity.errors", "count"),
    ("cutflow.errors", "count"),
    ("rateplan.errors", "count"),
    ("fileformat.errors", "count"),
    ("cli.errors", "count"),
    ("trace.op_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: per-layer counts that are a maximum over calls, not a per-pass total
MAX_COUNTS = (
    "cutflow.polymatroid_intersect.ground_size",
    "cutflow.polymatroid_intersect.tableau_bytes_computed",
)

perf_counter = time.perf_counter


def _import_library() -> None:
    """Import relayflow from this checkout's ``src/``."""
    if not (SRC / "relayflow" / "__init__.py").is_file():
        sys.exit(f"error: no relayflow sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import relayflow

    if Path(relayflow.__file__).resolve().parent != SRC / "relayflow":
        sys.exit(f"error: imported relayflow from {relayflow.__file__}, not {SRC}")


#: timed inside a fresh interpreter, so interpreter start-up is left out
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import relayflow; "
    "print(time.perf_counter() - t)"
)


def _import_s() -> float:
    """Seconds ``import relayflow`` takes in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=_cli_env(), check=True, capture_output=True, text=True)
    return float(proc.stdout)


def _hd_quantile(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: the mean of the order
    statistics weighted by how much of the Beta((n+1)q, (n+1)(1-q)) density
    falls in each of n equal steps of [0, 1].  The densities are integrated
    by the midpoint rule on 64 points a step.

    A nearest-rank percentile is one sample; where few ops lie near it, a
    seed that redraws one instance can move it by a fifth.  This estimate
    spreads over the samples around the quantile, a few percent of the
    sample on either side."""
    n = len(sorted_values)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    x = (np.arange(n * 64) + 0.5) / (n * 64)
    log_density = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    weights = np.exp(log_density - log_density.max()).reshape(n, 64).sum(axis=1)
    return float(np.dot(weights / weights.sum(), sorted_values))


def _load_goldens(workload: str, seed: int, names: list[str]) -> list[str]:
    from workloads import SLOTS

    path = BENCH / "goldens" / f"{workload}.json"
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read goldens {path}: {exc}")
    if data["names"] != names:
        sys.exit(f"error: op list of {workload} differs from the one in {path}")
    return data["slots"][str(seed % SLOTS)]


def _interpreter_unit() -> None:
    """A fixed piece of interpreter and numpy work, about 1 ms on a 2-vCPU
    Xeon VM."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(4000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        total += i % 7
    a = np.arange(64, dtype=float)
    for _ in range(30):
        a = np.minimum(a, a[::-1] + 1.0)


def _process_unit() -> None:
    """Start and end a bare interpreter, site imports included, about 60 ms
    on a 2-vCPU Xeon VM."""
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, capture_output=True)


#: per workload kind: the reference unit and the time it is scaled to.
#: The unit is the same kind of work as the ops, and none of it is relayflow
#: code, so a change to the library does not move it.
REFERENCES = {
    "in-process": (_interpreter_unit, 1e-3),
    "cli": (_process_unit, 60e-3),
}


class Reference:
    """Scales measured times to a fixed machine speed.

    After each timed piece of work, the reference unit runs for at least
    ``REF_SHARE`` of the work's time.  The scaled time is the wall time
    divided by the mean unit time around the work (the units just before
    and just after it), times the unit's nominal time: the time the work
    would take on a machine on which the unit takes its nominal time.  A
    shared machine changes speed from second to second; that slows the work
    and the units around it alike, and the ratio takes much of it out."""

    def __init__(self, unit, nominal_s: float):
        self.unit = unit
        self.nominal_s = nominal_s
        self.times: list[float] = []
        self._last = self._run(0.0)

    def _run(self, seconds: float) -> float:
        """Run units for at least ``REF_SHARE`` of ``seconds``, at least
        one; return their mean time."""
        first = len(self.times)
        spent = 0.0
        while spent <= REF_SHARE * seconds:
            t0 = perf_counter()
            self.unit()
            self.times.append(perf_counter() - t0)
            spent += self.times[-1]
        return spent / (len(self.times) - first)

    def scale(self, seconds: float) -> float:
        after = self._run(seconds)
        scaled = seconds * self.nominal_s / (0.5 * (self._last + after))
        self._last = after
        return scaled


class Loop:
    """Closed-loop runner: whole passes over the op list, one op at a time.
    With a :class:`Reference`, each op's time is also kept scaled."""

    def __init__(self, names: list[str], goldens: list[str], reference: Reference | None = None):
        self.names = names
        self.goldens = goldens
        self.reference = reference
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.elapsed = 0.0

    def record(self, seconds: float) -> None:
        self.times.append(seconds)
        if self.reference:
            self.scaled.append(self.reference.scale(seconds))

    def check(self, i: int, got: str | None, detail: str) -> None:
        self.attempted += 1
        if got != self.goldens[i]:
            self.failed += 1
            print(
                f"FAIL {self.names[i]}: expected {self.goldens[i]}, got {got}\n{detail}",
                file=sys.stderr,
            )

    def run(self, one_pass, seconds: float, min_ops: int, max_passes: int | None = None):
        """Run passes until ``min_ops`` ops are done and another pass would
        end after ``seconds``."""
        start = perf_counter()
        while True:
            t_pass = perf_counter()
            one_pass(self)
            self.passes += 1
            now = perf_counter()
            if max_passes is not None and self.passes >= max_passes:
                break
            if len(self.times) >= min_ops and now - start + (now - t_pass) > seconds:
                break
        self.elapsed += perf_counter() - start


def _in_process_pass(ops, tracer=None):
    from workloads import canon, digest

    def one_pass(loop: Loop) -> None:
        for i, op in enumerate(ops):
            span = tracer.begin_op(f"{loop.passes}:{i}") if tracer else None
            t0 = perf_counter()
            try:
                record, error = op.run(), None
            except Exception:
                record, error = None, traceback.format_exc()
            loop.record(perf_counter() - t0)
            if tracer:
                tracer.end_op(span)
            if error:
                loop.check(i, None, error)
                continue
            got = digest(record)
            loop.check(i, got, "" if got == loop.goldens[i] else json.dumps(canon(record)))

    return one_pass


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _cli_pass(ops, trace_dir: Path | None = None):
    from workloads import cli_command, cli_record

    env = _cli_env()

    def one_pass(loop: Loop) -> None:
        for i, op in enumerate(ops):
            if trace_dir is None:
                cmd = cli_command(op.argv)
            else:
                out = trace_dir / f"{loop.passes}-{i}.json"
                cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(out), *op.argv]
            t0 = perf_counter()
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, env=env, capture_output=True, timeout=CLI_TIMEOUT_S
                )
            except subprocess.TimeoutExpired:
                loop.record(perf_counter() - t0)
                loop.check(i, None, f"timed out after {CLI_TIMEOUT_S} s")
                continue
            loop.record(perf_counter() - t0)
            loop.check(i, cli_record(proc.stdout, proc.returncode),
                       proc.stdout.decode(errors="replace") + proc.stderr.decode(errors="replace"))

    return one_pass


def _setup_once(workload: str, seed: int, workdir: Path):
    """Generate, write and parse every input once; return the ops, the wall
    time and the stage times."""
    import workloads

    t0 = perf_counter()
    if workload == "cli":
        ops, stats = workloads.setup_cli(seed, ROOT, workdir)
    else:
        ops, stats = workloads.setup_in_process(workload, seed)
    return ops, perf_counter() - t0, stats


def _setup(workload: str, seed: int, workdir: Path):
    """Run set-up ``SETUP_REPS`` times; return the last rep's ops and the
    median stage times."""
    gens, parses, bytes_parsed = [], [], 0
    ops = None
    for _ in range(SETUP_REPS):
        ops, _, stats = _setup_once(workload, seed, workdir)
        gens.append(stats.generate_s)
        parses.append(stats.parse_s)
        bytes_parsed = stats.bytes_parsed
    return ops, {
        "oracle.generate.s": statistics.median(gens),
        "fileformat.network_from_dict.s": statistics.median(parses),
        "fileformat.bytes_in": bytes_parsed,
    }


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _probe_s(code: str) -> float:
    walls = []
    for _ in range(PROBE_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_cli_env(), check=True,
                       capture_output=True)
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def _layer_metrics(spans, counts, passes, setup_layers, extra_bytes) -> dict:
    from tracer import span_totals

    totals = span_totals(spans)
    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in MAX_COUNTS:
            values[name] = counts.get(name, 0.0)
        elif name in counts:
            values[name] = counts[name] / passes
        elif field in ("self_s", "calls") and base in totals:
            values[name] = totals[base][field] / passes
        else:
            values[name] = 0.0
    calls = counts.get("capacity.value_masks.calls", 0.0)
    values["capacity.distinct_ratio"] = (
        counts.get("capacity.distinct_cells", 0.0) / calls if calls else 0.0
    )
    values["trace.op_s"] = totals["op"]["s"] / passes if "op" in totals else 0.0
    values["oracle.generate.s"] = setup_layers["oracle.generate.s"]
    values["fileformat.network_from_dict.s"] = (
        setup_layers["fileformat.network_from_dict.s"]
        + (totals["fileformat.network_from_dict"]["s"] / passes
           if "fileformat.network_from_dict" in totals else 0.0)
    )
    values["fileformat.bytes_in"] = setup_layers["fileformat.bytes_in"] + extra_bytes
    return values


def _merge_child_traces(trace_dir: Path) -> tuple[list, dict]:
    """Concatenate the spans of every traced CLI child, re-basing parent
    indices, and sum their counters."""
    spans: list = []
    counts: dict[str, float] = {}
    for path in sorted(trace_dir.glob("*.json")):
        child = json.loads(path.read_text())
        offset = len(spans)
        for span in child["spans"]:
            if span[3] is not None:
                span[3] += offset
            spans.append(span)
        for key, val in child["counts"].items():
            if key in MAX_COUNTS:
                counts[key] = max(counts.get(key, 0.0), val)
            else:
                counts[key] = counts.get(key, 0.0) + val
    return spans, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("flow-ladder", "wide-split", "regions", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    sys.path.insert(0, str(BENCH))
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            ops, setup_layers = _setup(args.workload, args.seed, workdir)
            names = [op.name for op in ops]
            goldens = _load_goldens(args.workload, args.seed, names)
            result = _traced_run(args, ops, names, goldens, workdir, setup_layers)
        else:
            result = _plain_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


def _one_pass(workload, ops, tracer=None, trace_dir=None):
    if workload == "cli":
        return _cli_pass(ops, trace_dir)
    return _in_process_pass(ops, tracer)


def _plain_run(args, workdir: Path) -> dict:
    """Set up ``SETUP_REPS`` times or for ``SETUP_SHARE`` of
    ``args.seconds``, whichever is longer, then time whole passes over the
    last set-up's ops for what is left of ``args.seconds``.  Set-up and op
    times are scaled to reference speed (see :class:`Reference`)."""
    start = perf_counter()
    reference = Reference(*REFERENCES["cli" if args.workload == "cli" else "in-process"])
    setups = []
    while len(setups) < SETUP_REPS or perf_counter() - start < SETUP_SHARE * args.seconds:
        ops, wall, _ = _setup_once(args.workload, args.seed, workdir)
        setups.append(reference.scale(_import_s() + wall))
    names = [op.name for op in ops]
    loop = Loop(names, _load_goldens(args.workload, args.seed, names), reference)
    loop.run(_one_pass(args.workload, ops), args.seconds - (perf_counter() - start), MIN_OPS)
    ref_s = statistics.fmean(reference.times)
    scaled = sorted(loop.scaled)
    values = {
        "op_p50_ms": 1000.0 * _hd_quantile(scaled, 0.5),
        "op_p90_ms": 1000.0 * _hd_quantile(scaled, 0.9),
        "ops_per_s": len(scaled) / sum(scaled),
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _peak_rss_mb(args.workload),
    }
    samples = {
        "op_p50_ms": len(scaled), "op_p90_ms": len(scaled), "ops_per_s": len(scaled),
        "ok_ratio": loop.attempted, "setup_s": len(setups), "peak_rss_mb": 1,
    }
    times = sorted(loop.times)
    p90 = values["op_p90_ms"] / 1000.0
    print(f"{args.workload} seed={args.seed} passes={loop.passes} ops={len(times)} "
          f"elapsed={loop.elapsed:.2f}s samples_above_p90={sum(t > p90 for t in scaled)}")
    print(f"  reference unit: {len(reference.times)} runs, mean {1000 * ref_s:.4f} ms, "
          f"scaled to {1000 * reference.nominal_s:g} ms; unscaled wall: p50 "
          f"{1000 * _hd_quantile(times, 0.5):.6g} ms, p90 {1000 * _hd_quantile(times, 0.9):.6g} ms, "
          f"{len(times) / sum(times):.6g} ops/s")
    for name, unit in END_TO_END:
        print(f"  {name:14s} {values[name]:14.6g} {unit:6s} n={samples[name]}")
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


def _traced_run(args, ops, names, goldens, workdir, setup_layers) -> dict:
    from tracer import Tracer

    traced = Loop(names, goldens)
    tracer = Tracer()
    trace_dir = None
    extra_bytes = 0
    if args.workload == "cli":
        trace_dir = workdir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced.run(_one_pass("cli", ops, trace_dir=trace_dir), args.seconds / 2, 1)
        spans, counts = _merge_child_traces(trace_dir)
        extra_bytes = sum(op.bytes_in for op in ops)
    else:
        tracer.install()
        try:
            traced.run(_one_pass(args.workload, ops, tracer), args.seconds / 2, 1)
        finally:
            tracer.uninstall()
        spans, counts = tracer.spans, dict(tracer.counts)

    plain = Loop(names, goldens)
    plain.run(_one_pass(args.workload, ops), args.seconds, 1, max_passes=traced.passes)

    values = _layer_metrics(spans, counts, traced.passes, setup_layers, extra_bytes)
    interpreter_s = _probe_s("pass")
    values["cli.interpreter_s"] = interpreter_s
    values["cli.import_s"] = _probe_s("import relayflow") - interpreter_s
    values["trace.overhead_ratio"] = plain.elapsed / traced.elapsed

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "passes": traced.passes,
                    "ops": names, "spans": spans, "counts": counts})
    )
    print(f"{args.workload} seed={args.seed} traced passes={traced.passes} "
          f"ops={len(traced.times)} traced={traced.elapsed:.2f}s untraced={plain.elapsed:.2f}s")
    for name, unit in PER_LAYER:
        print(f"  {name:54s} {values[name]:14.6g} {unit}")
    attempted = traced.attempted + plain.attempted
    failed = traced.failed + plain.failed
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
    }


if __name__ == "__main__":
    raise SystemExit(main())
