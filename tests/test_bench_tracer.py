"""The benchmark tracer still binds every package name it times, and restores each one.

`bench/smoke.py` catches a traced name that a refactor removed, but runs for
minutes; this check runs in well under a second.
"""

import importlib.util
import sys
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_namespaces() -> dict:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "gatedfusion" or name.startswith("gatedfusion.")
            for attr, value in vars(mod).items()}


def test_install_then_uninstall_restores_every_patched_attribute():
    tracer = load_tracer_module().Tracer()
    before = package_namespaces()
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner!r}.{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} was not restored"
    after = package_namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
