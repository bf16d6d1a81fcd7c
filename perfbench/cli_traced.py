"""Run one relayflow CLI command under the tracer.

    python3 perfbench/cli_traced.py <trace-file> <relayflow cli arguments...>

Stdout and the exit code are those of ``python -m relayflow.cli``; the
spans and counters go to ``<trace-file>`` as JSON when the command ends.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import relayflow.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    span = tracer.begin_op("cli")
    try:
        code = relayflow.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    finally:
        tracer.end_op(span)
        tracer.uninstall()
        out.write_text(json.dumps({"spans": tracer.spans, "counts": dict(tracer.counts)}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
