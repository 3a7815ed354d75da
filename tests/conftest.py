from __future__ import annotations

import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def checkout_env() -> dict[str, str]:
    """Environment for `python -m qbiblock.cli` children: the checkout's own
    src/ (absolute) first on PYTHONPATH, so they import this checkout's code
    from whichever directory pytest was started in."""
    inherited = os.environ.get("PYTHONPATH")
    src = str(REPO_ROOT / "src")
    return {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{inherited}" if inherited else src}
