"""Test-session setup shared by every test module."""

import os
from pathlib import Path

# pytest puts src/ on sys.path (pyproject `pythonpath`); subprocesses that run
# `python -m bhvqe.cli` need it on PYTHONPATH to import the same package.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
