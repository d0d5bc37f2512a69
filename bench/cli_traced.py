"""Run the realize CLI once with layer spans recorded, for the traced cli_cold run.

    python3 bench/cli_traced.py SPANS_FILE ARG...

Behaves like ``python -m realize ARG...`` (same output, same exit code) and
writes the spans of the import and of the command to SPANS_FILE.  Expects the
checkout's ``src`` on PYTHONPATH.
"""

import sys

import spans


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with tracer.span("cli.import"):
        import realize.cli
    with tracer.installed(), tracer.span("cli.main"):
        code = realize.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
