"""Every demo script runs to the end, quietly, as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dichroma

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_all_six_demos_are_found() -> None:
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo: str) -> None:
    src = str(Path(dichroma.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
