"""One-off report: the single-instance baseline table of ROADMAP.md.

    python3 perfbench/report.py [--seed N]

Times, on instances drawn by the benchmark's generator from ``--seed``
(default 1): ``min_cut``, ``max_flow`` and ``verify_flow`` on additive
(1,8,8,1); ``plan_rates`` on Gaussian (1,6,6,1); the joint-region check of
the planned rates on a discrete network with 6 relays, (1,3,3,1); and the
capacity-axiom check on additive pairs of 3x3, 4x4 and 5x5.  Each entry is
the median of three runs.  Not gated: it prints a table and checks nothing.
"""

from __future__ import annotations

import argparse
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

REPS = 3

#: the figures ROADMAP.md quotes for the same calls, in seconds
ROADMAP_S = {
    "additive (1,8,8,1) min_cut": 0.89,
    "additive (1,8,8,1) max_flow": 2.2,
    "additive (1,8,8,1) verify_flow": 0.88,
    "gaussian (1,6,6,1) plan_rates": 0.35,
    "discrete (1,3,3,1) check_joint_feasible, 6 relays": 6.1,
    "additive 3x3 check_capacity_axioms": 0.0034,
    "additive 4x4 check_capacity_axioms": 0.036,
    "additive 5x5 check_capacity_axioms": 0.331,
}


def _median_s(fn) -> float:
    walls = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    run._import_library()

    import numpy as np
    from instances import generate

    from relayflow import capacity, cutflow, rateplan
    from relayflow.fileformat import network_from_dict

    def load(family, layers):
        net, models, _ = network_from_dict(generate(args.seed, layers, family))
        return net, models

    add, _ = load("additive", (1, 8, 8, 1))
    flow = cutflow.max_flow(add)
    gauss, gauss_models = load("gaussian", (1, 6, 6, 1))
    disc, disc_models = load("discrete", (1, 3, 3, 1))
    plan = rateplan.plan_rates(disc, disc_models)
    pairs = {m: load("additive", (m, m))[0].oracles[0] for m in (3, 4, 5)}

    calls = {
        "additive (1,8,8,1) min_cut": lambda: cutflow.min_cut(add),
        "additive (1,8,8,1) max_flow": lambda: cutflow.max_flow(add),
        "additive (1,8,8,1) verify_flow": lambda: cutflow.verify_flow(add, flow),
        "gaussian (1,6,6,1) plan_rates": lambda: rateplan.plan_rates(gauss, gauss_models),
        "discrete (1,3,3,1) check_joint_feasible, 6 relays": lambda: (
            rateplan.check_joint_feasible(disc, disc_models, plan.rate, plan.compression)
        ),
    }
    for m, oracle in pairs.items():
        calls[f"additive {m}x{m} check_capacity_axioms"] = (
            lambda oracle=oracle: capacity.check_capacity_axioms(oracle)
        )

    print(f"seed {args.seed}; median of {REPS} runs; Python {platform.python_version()}, "
          f"numpy {np.__version__}, {platform.machine()} {platform.processor() or ''}".rstrip())
    print("| call | seconds | ROADMAP baseline (s) |")
    print("|---|---:|---:|")
    for name, fn in calls.items():
        print(f"| {name} | {_median_s(fn):.4g} | {ROADMAP_S[name]:.4g} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
