import re
from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    res = run_python([str(demo)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr


def test_readme_quick_start_runs(tmp_path):
    # README's one python block, the library quick start, runs as printed
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    res = run_python(["-c", blocks[0]], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-2:] == ["(4, 16)", "(24, 24)"]  # dL/dT of prompt 0's (L, C), its map
