"""The benchmark tracer still binds every package name it times, restores each one,
and sees only tape op kinds that the benchmark counts; the benchmark's workloads
still reproduce their reference values.

`bench/smoke.py` catches a traced name that a refactor removed, but runs for
minutes; this check runs in well under a second.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from gatedfusion.gating import GatingMode
from gatedfusion.model import FusionModel, ModelConfig
from gatedfusion.trainer import batch_loss

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def package_namespaces() -> dict:
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "gatedfusion" or name.startswith("gatedfusion.")
            for attr, value in vars(mod).items()}


def test_install_then_uninstall_restores_every_patched_attribute():
    tracer = load_bench_module("tracer").Tracer()
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


@pytest.mark.parametrize("mode", list(GatingMode))
def test_every_recorded_op_kind_is_counted(mode):
    """A kernel op missing from `OP_KINDS` would drop out of the per-layer metrics."""
    op_kinds = load_bench_module("run").OP_KINDS
    rng = np.random.default_rng(3)
    model = FusionModel(ModelConfig(d_a=5, d_t=4, d_model=8, n_heads=2, n_layers=1, ff_mult=2,
                                    n_classes=2, gating_mode=mode, dropout_rate=0.1, seed=1))
    batch = [(rng.normal(size=(4, 5)), rng.normal(size=(3, 4)), label) for label in (0, 1)]
    tracer = load_bench_module("tracer").Tracer()
    tracer.install()
    try:
        loss, _ = batch_loss(model, batch, dropout_rng=np.random.default_rng(4))
        loss.tape.backward(loss)
    finally:
        tracer.uninstall()
    assert tracer.ops > 0
    assert set(tracer.op_kinds) <= set(op_kinds), sorted(set(tracer.op_kinds) - set(op_kinds))


@pytest.mark.parametrize("name", ["ablation_train", "cli_pipeline", "wide_train"])
def test_workload_reproduces_its_reference_values(name):
    """The public API the benchmark drives still gives the values in `bench/reference.json`."""
    checks = load_bench_module("workloads").check_reference(name)
    assert checks
    failed = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    assert not failed, failed
