"""Run one fpwsim command line with the span tracer installed.

Usage: python trace_child.py SPANS_JSON OP_ID ARG...

Runs ``fpwsim.cli.main(ARG...)`` in this process, writes the spans and
counters it recorded to SPANS_JSON when it ends, and exits with the
command's status. The benchmark's cli_batch workload uses it for traced ops.
"""

import json
import sys

from tracing import Tracer


def main(argv: list[str]) -> int:
    spans_path, op_id, command = argv[0], int(argv[1]), argv[2:]
    import fpwsim.cli

    tracer = Tracer()
    tracer.op_id = op_id
    tracer.install()
    try:
        status = fpwsim.cli.main(command)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as handle:
            json.dump(tracer.to_json(), handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
