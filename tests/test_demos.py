"""The quick demos run to completion: they call the public API as users do.

Demo 05 trains the three-mode ablation and is left out. Demo 01, the one that
calls the autodiff kernel directly, takes about 0.5 s on a 2-core host; 02, 03
and 04 take under 2 s together. Each runs from a temp dir. Demo 04 writes
its SVG traces into `output/` beside the script, so a copy of it runs from the
temp dir, and its traces must equal the committed `demos/output` ones byte for
byte: that pins the whole train, gate-trace and SVG path.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", ["01_autodiff_gradcheck.py", "02_generate_corpus.py",
                                  "03_train_and_evaluate.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    proc = run_demo(ROOT / "demos" / demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_gating_analysis_demo_reproduces_its_committed_traces(tmp_path):
    script = tmp_path / "04_gating_analysis.py"
    shutil.copy(ROOT / "demos" / "04_gating_analysis.py", script)
    proc = run_demo(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    committed = sorted(p.name for p in (ROOT / "demos" / "output").glob("*.svg"))
    assert sorted(os.listdir(tmp_path / "output")) == committed == [
        "trace_00160.svg", "trace_00161.svg", "trace_00162.svg"]
    for name in committed:
        got = (tmp_path / "output" / name).read_bytes()
        assert got == (ROOT / "demos" / "output" / name).read_bytes(), name
