"""Repository-wide pytest setup: make ``src/`` importable.

The library lives under ``src/`` and is not installed, so test modules
that import it (``perfbench/test_perfbench.py`` included) need ``src/`` on
``sys.path``.  With this file ``python3 -m pytest perfbench -q`` works from
the repository root without ``PYTHONPATH``.
"""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
