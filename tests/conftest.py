"""Tests run the package from this checkout: ``pyproject.toml`` puts ``src``
on pytest's own path, and the CLI subprocesses some tests start get it on
``PYTHONPATH``."""
import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
