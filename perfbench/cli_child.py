"""Run one `loglap` subcommand with its module calls traced.

Usage: python3 perfbench/cli_child.py SPANS_JSON <loglap arguments...>

Times the import of `loglap.cli`, runs `loglap.cli.main` with the layers
of `spans.LAYERS` instrumented, writes the spans and computed counts to
SPANS_JSON and exits with the subcommand's status.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import loglap.cli
    end = time.perf_counter()

    from spans import Tracer, instrument

    tracer = Tracer()
    tracer.spans.append(["cli.import", start, end, -1, None])
    instrument(tracer)
    status = loglap.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    sys.exit(status)
