"""Entry point: ``python3 benchmarks/perf`` or ``python -m benchmarks.perf``."""

import os
import sys

# Run as a directory, sys.path[0] is this directory; the package is
# imported by its full name from the checkout root either way.
sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))

from benchmarks.perf.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
