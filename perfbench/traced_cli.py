"""Run the mdtune CLI with spans recorded around its layers.

Usage: python3 traced_cli.py SPANS_FILE MDTUNE_ARGS...

The spans are written to SPANS_FILE when the command ends.
"""

import sys
from pathlib import Path

from spans import Tracer, write_spans


def main() -> int:
    spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
    import mdtune.cli

    tracer = Tracer()
    tracer.install()
    try:
        return mdtune.cli.main(argv)
    finally:
        tracer.uninstall()
        write_spans(spans_file, tracer.spans)


if __name__ == "__main__":
    sys.exit(main())
