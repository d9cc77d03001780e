"""``python3 -m benchmarks.e2e`` (or ``python3 benchmarks/e2e``)."""

import sys
from pathlib import Path

if __package__ in (None, ""):
    # run as a directory/script: make the package importable by name
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main

if __name__ == "__main__":
    sys.exit(main())
