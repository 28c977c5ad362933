"""The README's Python API example runs as written, so its names cannot drift from the code."""

import os
import re
import subprocess
import sys
from pathlib import Path

import semcontrol as sc

ROOT = Path(__file__).resolve().parents[1]


def test_python_api_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API in one example\n", 1)[1]
    example = re.match(r"\s*```python\n(.*?)```", section, re.DOTALL).group(1)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(Path(sc.__file__).parent.parent)
    result = subprocess.run([sys.executable, "-W", "error", "-c", example], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    mean, variance = map(float, result.stdout.split())
    assert variance > 0.0
