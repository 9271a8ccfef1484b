"""Run one `paybid` command in this fresh process with spans recorded.

    python3 bench/trace_child.py SPANS_OUT -- paybid-arguments...

`import paybid.cli` is recorded as the span of layer `startup`; then every
public function of the layer modules is wrapped and `paybid.cli.main` runs on
the arguments. The spans are written to SPANS_OUT when the command ends.
"""

import sys
import time

start = time.perf_counter_ns()
import paybid.cli  # noqa: E402  (the import is what the startup span measures)
imported = time.perf_counter_ns()

from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS_OUT -- paybid-arguments...")
    tracer = Tracer()
    tracer.add_span("startup", "import paybid.cli", start, imported)
    tracer.install()
    try:
        return paybid.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(Path(out))


if __name__ == "__main__":
    sys.exit(main())
