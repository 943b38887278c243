"""Child entry point: runs one `hess2` CLI call, timed, optionally traced.

    PERFBENCH_RECORD=<file> PERFBENCH_SPAWN=<monotonic> [PERFBENCH_TRACE=1] \
        python3 perfbench/child.py <hess2 arguments>

It does what the `hess2` console script does (`sys.exit(hess2.cli.main())`)
and writes a JSON record when the call ends: startup time measured from the
parent's spawn instant on the shared monotonic clock, the time spent inside
`cli.main`, and with tracing on the spans and counters of the call.  The
stdout and exit code are the CLI's own.
"""

import json
import os
import sys
import time


def main() -> int:
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    import hess2.cli

    imported = time.monotonic()
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    started = time.monotonic()
    code = "exception"
    try:
        code = hess2.cli.main(sys.argv[1:])
        return code
    finally:
        finished = time.monotonic()
        sys.stdout.flush()
        record = {"import_s": imported - spawned, "main_s": finished - started, "exit": code}
        if tracer is not None:
            record.update(spans=tracer.spans, counts=tracer.counts)
        with open(os.environ["PERFBENCH_RECORD"], "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
