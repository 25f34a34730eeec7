"""Traced stand-in for ``python -m fixsing.cli``.

    python cli_traced.py <spans.json> <fixsing cli arguments...>

Times the import of fixsing.cli as the ``cli.import`` span, installs the
benchmark's layer wrappers, calls ``fixsing.cli.main(argv)`` as one op and
writes the spans when it ends.  The exit code is main's.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer as tracing  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    idx = tracer.open("cli.import")
    import fixsing.cli
    tracer.close(idx)
    tracing.install(tracer)
    try:
        return fixsing.cli.main(argv)
    finally:
        tracer.end_op()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
