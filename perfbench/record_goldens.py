"""Record the golden digest of every op of every seed slot.

    python3 perfbench/record_goldens.py flow-ladder [wide-split regions cli]

Writes ``perfbench/goldens/<workload>.json``: the op names, and per slot
the digest of each op's canonical record (in-process workloads) or the
sha256 of stdout and the exit code (``cli``).  Goldens are recorded once,
at the commit that defines the benchmark; a later change that alters an
answer makes the benchmark report ``"correct": false``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_library()

import workloads  # noqa: E402


def record(workload: str) -> dict:
    slots = {}
    names = None
    for slot in range(workloads.SLOTS):
        if workload == "cli":
            workdir = run.WORK / f"record-{slot}"
            try:
                ops, _ = workloads.setup_cli(slot, run.ROOT, workdir)
                digests = []
                for op in ops:
                    proc = subprocess.run(
                        workloads.cli_command(op.argv), cwd=run.ROOT, env=run._cli_env(),
                        capture_output=True, timeout=run.CLI_TIMEOUT_S,
                    )
                    digests.append(workloads.cli_record(proc.stdout, proc.returncode))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        else:
            ops, _ = workloads.setup_in_process(workload, slot)
            digests = [workloads.digest(op.run()) for op in ops]
        names = [op.name for op in ops]
        slots[str(slot)] = digests
        print(f"{workload} slot {slot}: {len(digests)} ops", file=sys.stderr, flush=True)
    return {"names": names, "slots": slots}


def main(argv: list[str]) -> int:
    for workload in argv or workloads.WORKLOADS:
        data = record(workload)
        path = BENCH / "goldens" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
