"""Command-line interface.

Every subcommand reads a network file (see ``schema/network.schema.json``),
writes one deterministic JSON object to stdout with numbers at 12
significant digits, and keeps diagnostics on stderr.  Exit codes: 0 ok,
1 domain failure (infeasible region, axiom violation), 2 input error,
3 enumeration guard.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

import numpy as np

from . import cutflow, oracle, rateplan
from .capacity import check_capacity_axioms
from .errors import (
    DomainError,
    InputError,
    NumericalFailure,
    RelayFlowError,
    TooLarge,
    UnsupportedModel,
)
from .fileformat import boundary_flows, network_from_dict, network_to_dict, source_rates

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _round12(value: Any) -> Any:
    """Normalize floats to 12 significant digits for stable output."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _emit(payload: dict) -> None:
    print(json.dumps(_round12(payload), sort_keys=True))


def _load(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return network_from_dict(data)


def _require_models(models) -> list:
    if any(m is None for m in models):
        raise UnsupportedModel(
            "this command needs a model for every layer pair; add 'models' "
            "markers to the network file"
        )
    return list(models)


def cmd_validate(args) -> int:
    net, _, _ = _load(args.file)
    reports = []
    for l, orc in enumerate(net.oracles, start=1):
        try:
            report = check_capacity_axioms(orc, tol=args.tol)
        except NumericalFailure as exc:
            raise NumericalFailure(f"layer pair {l}: {exc}") from exc
        entry: dict[str, Any] = {"layer_pair": l, "ok": report.passed}
        if not report.passed:
            entry["counterexample"] = report.counterexample
        reports.append(entry)
        if not report.passed:
            _emit({"valid": False, "oracles": reports})
            return EXIT_DOMAIN
    _emit({"valid": True, "oracles": reports})
    return EXIT_OK


def cmd_mincut(args) -> int:
    net, _, boundary = _load(args.file)
    value, cut = cutflow.min_cut(net, boundary_flows(net, boundary))
    _emit({"value": value, "cut": sorted(n.key() for n in cut.members)})
    return EXIT_OK


def cmd_maxflow(args) -> int:
    net, _, boundary = _load(args.file)
    flow = cutflow.max_flow(
        net, boundary_flows(net, boundary), split_layer=args.split_layer
    )
    total = flow.total(net.layer_nodes(1))
    _emit(
        {
            "value": total,
            "flow": {n.key(): flow.at(n) for n in net.nodes()},
        }
    )
    return EXIT_OK


def cmd_plan(args) -> int:
    net, models, _ = _load(args.file)
    plan = rateplan.plan_rates(net, _require_models(models))
    _emit(
        {
            "R": plan.rate,
            "r": {n.key(): v for n, v in sorted(plan.compression.items())},
            "kappa": list(plan.penalties),
            "flags": list(plan.flags),
        }
    )
    return EXIT_OK


def cmd_check(args) -> int:
    net, models, boundary = _load(args.file)
    models = _require_models(models)
    if args.mode == "multi":
        rates = source_rates(boundary)
        report = rateplan.check_multi_source(net, models, rates, tol=args.tol)
        payload = {
            "pass": report.passed,
            "margin": report.margin,
            "binding": {
                "cut": sorted(n.key() for n in report.binding.members),
                "value": report.binding.value,
            },
        }
        _emit(payload)
        return EXIT_OK if report.passed else EXIT_DOMAIN

    plan = rateplan.plan_rates(net, models)
    if args.mode == "layered":
        report = rateplan.check_layered_feasible(net, models, plan, tol=args.tol)
    else:
        report = rateplan.check_joint_feasible(
            net, models, plan.rate, plan.compression, tol=args.tol
        )
    payload = {"pass": report.passed, "margin": report.margin, "binding": report.binding}
    if plan.flags:
        # clamped plans sit outside the planner's feasibility guarantees
        payload["flags"] = list(plan.flags)
    _emit(payload)
    return EXIT_OK if report.passed else EXIT_DOMAIN


def cmd_complexity(args) -> int:
    net, models, _ = _load(args.file)
    plan = rateplan.plan_rates(net, _require_models(models))
    sizes = {
        node: args.quantizer_points
        for l in range(2, net.num_layers)
        for node in net.layer_nodes(l)
    }
    log2_joint, log2_layered = rateplan.decoding_complexity(
        net, plan, args.block_length, sizes
    )
    _emit({"log2_joint": log2_joint, "log2_layered": log2_layered})
    return EXIT_OK


def cmd_gen(args) -> int:
    layers = tuple(int(t) for t in args.layers.split(","))
    if args.family == "mixed":
        weights = {name: 1.0 for name in oracle.FAMILIES}
    else:
        weights = {args.family: 1.0}
    spec = oracle.InstanceSpec(args.seed, layers, weights)
    instance = oracle.random_instance(spec)
    _emit(network_to_dict(instance.network, list(instance.models)))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="relayflow",
        description="Node-flows and compress-and-forward rate plans on layered networks.",
    )
    parser.add_argument(
        "--tol", type=float, default=1e-9, help="tolerance for feasibility checks"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the capacity axioms of every layer pair")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("mincut", help="minimum cut value and one argmin cut")
    p.add_argument("file")
    p.set_defaults(func=cmd_mincut)

    p = sub.add_parser("maxflow", help="construct a maximum node-flow")
    p.add_argument("file")
    p.add_argument("--l0", dest="split_layer", type=int, default=None,
                   help="override the top-level bisection layer")
    p.set_defaults(func=cmd_maxflow)

    p = sub.add_parser("plan", help="compression-rate plan from the max flow")
    p.add_argument("file")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("check", help="feasibility-region checks")
    p.add_argument("file")
    p.add_argument("--mode", choices=("layered", "joint", "multi"), default="layered")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("complexity", help="joint vs layered decoding complexity (log2)")
    p.add_argument("file")
    p.add_argument("--block-length", type=int, default=1)
    p.add_argument("--quantizer-points", type=int, default=2,
                   help="quantization points per relay")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("gen", help="generate a seeded random network file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--layers", required=True, help="comma-separated layer sizes")
    p.add_argument("--family",
                   choices=(*oracle.FAMILIES, "mixed"), default="mixed")
    p.set_defaults(func=cmd_gen)

    args = parser.parse_args(argv)
    try:
        if not math.isfinite(args.tol):
            raise InputError("--tol must be a finite number")
        # an overflowing sum is inf, which the commands refuse themselves
        with np.errstate(over="ignore"):
            return args.func(args)
    except TooLarge as exc:
        _emit({"error": "too_large", "detail": str(exc)})
        return EXIT_GUARD
    except (InputError, ValueError) as exc:
        _emit({"error": "input", "detail": str(exc)})
        return EXIT_INPUT
    except DomainError as exc:
        _emit({"error": "infeasible", "detail": str(exc)})
        return EXIT_DOMAIN
    except RelayFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit({"error": "failure", "detail": str(exc)})
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
