"""Make the benchmark's modules and the program importable in its tests
(``python -m pytest trainbench`` from the repository root)."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
