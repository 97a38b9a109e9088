"""Test-session setup: CLI subprocesses import the package from this checkout."""
import os
from pathlib import Path


def pytest_configure(config):
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
