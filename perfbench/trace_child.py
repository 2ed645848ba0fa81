"""Run one fairsurv CLI command in-process with spans on.

Usage: python3 trace_child.py SPANS_JSON CLI_ARG...

The spans and call counters are written to SPANS_JSON after the command
returns; the process exits with the command's exit code.
"""

import json
import sys

from tracing import Tracer


def main(argv):
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    cli_main = tracer.install()
    code = cli_main(cli_argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
