"""A cold ``liftwing`` run with spans around the package import and its layers.

Usage: python traced_child.py SPANS.jsonl ARGV...

Behaves as ``python -m liftwing ARGV...`` and writes its spans to
SPANS.jsonl when the command ends.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    try:
        with tracer.span("import"):
            import liftwing.cli
        tracer.install()
        with tracer.span("cli.main"):
            return liftwing.cli.main(argv)
    finally:
        tracer.restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
