"""The quick demos run to completion: they call the public API as users do.

Demos 01 and 05 take 10-20 s each and demo 04 writes into `demos/output`,
so only 02 and 03 (a few seconds together, temp dirs only) run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["02_generate_corpus.py", "03_train_and_evaluate.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
