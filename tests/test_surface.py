"""The documented library surface: each python block of README.md runs on
its own, and tcgw exports exactly the names those blocks and the demos
import from it."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import tcgw

ROOT = Path(__file__).resolve().parent.parent
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _imported_from_tcgw(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "tcgw" and node.level == 0
            for alias in node.names}


def test_readme_python_blocks_run(tmp_path):
    assert README_BLOCKS
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for index, source in enumerate(README_BLOCKS):
        result = subprocess.run([sys.executable, "-c", source], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, f"README python block {index}:\n{result.stderr}"


def test_package_exports_what_readme_and_demos_import():
    assert README_BLOCKS and DEMOS
    documented = set().union(*map(_imported_from_tcgw, README_BLOCKS),
                             *(_imported_from_tcgw(path.read_text(encoding="utf-8"))
                               for path in DEMOS))
    exported = {name for name, value in vars(tcgw).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == documented
