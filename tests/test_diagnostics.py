"""The full-model gradcheck's grouped probes against the one-at-a-time path."""

from dataclasses import replace

import numpy as np
import pytest

from gatedfusion import tensor as T
from gatedfusion.diagnostics import full_model_gradcheck, grouped_probe, probe_batch, tiny_config
from gatedfusion.errors import ConfigError
from gatedfusion.gating import GatingMode
from gatedfusion.model import FusionModel
from gatedfusion.trainer import batch_loss

CONFIGS = {mode.value: tiny_config(mode) for mode in GatingMode}
CONFIGS["cross_modal-2-layers"] = replace(tiny_config(GatingMode.CROSS_MODAL), n_layers=2)


def slots(model):
    """What the model's slots hold now, by parameter name."""
    return dict(model.slots)


def model_and_batch(cfg):
    return FusionModel(cfg), probe_batch(cfg)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_grouped_probe_losses_equal_one_at_a_time_bit_for_bit(name):
    model, batch = model_and_batch(CONFIGS[name])
    params = model.parameters()
    before, held = params.data.copy(), slots(model)
    one_at_a_time = T.probe_one_at_a_time(lambda: batch_loss(model, batch)[0])
    grouped = grouped_probe(model, batch)
    for p in params:
        want, got = one_at_a_time(p, 1e-5), grouped(p, 1e-5)
        assert got.shape == want.shape == (2, p.data.size)
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert differ.size == 0, (f"{p.name}: {differ.size} probe losses differ, the first "
                                  f"(sign row, entry) {divmod(int(differ[0]), p.data.size)}")
    assert params.data.tobytes() == before.tobytes()
    assert all(slots(model)[key] is value for key, value in held.items())


def test_one_forward_per_parameter(monkeypatch):
    forward, calls = FusionModel.forward, []

    def counted(self, *args, **kwargs):
        calls.append(len(args[0].masks))
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(FusionModel, "forward", counted)
    report = full_model_gradcheck(GatingMode.CROSS_MODAL)
    params = FusionModel(tiny_config(GatingMode.CROSS_MODAL)).parameters()
    assert report.passed and len(report.entries) == len(params)
    # the analytic pass, then one forward of 2 x size copies of the batch per parameter
    assert calls == [2] + [2 * 2 * p.data.size for p in params]


def test_a_forward_that_raises_restores_the_models_parameters(monkeypatch):
    model, batch = model_and_batch(tiny_config(GatingMode.CROSS_MODAL))
    before, held = model.parameters().data.copy(), slots(model)
    forward, calls = FusionModel.forward, []

    def failing(self, *args, **kwargs):
        # the first call is the analytic pass, the second the first parameter's probes
        calls.append(len(calls))
        if len(calls) == 2:
            assert self.slots["proj_a.w"] is not held["proj_a.w"]
            raise RuntimeError("forward failed")
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(FusionModel, "forward", failing)
    with pytest.raises(RuntimeError, match="forward failed"):
        T.gradcheck(lambda: batch_loss(model, batch)[0], model.parameters(),
                    probe=grouped_probe(model, batch))
    assert len(calls) == 2
    assert all(slots(model)[key] is value for key, value in held.items())
    assert model.parameters().data.tobytes() == before.tobytes()


def test_a_parameter_the_model_does_not_hold_is_refused():
    model, batch = model_and_batch(tiny_config(GatingMode.NONE))
    with pytest.raises(ConfigError, match="'stray'"):
        grouped_probe(model, batch)(T.Parameter("stray", np.zeros((1, 2))), 1e-5)
    # another model's parameter of the same name and shape is not this model's
    before, held = model.parameters().data.copy(), slots(model)
    look_alike = FusionModel(tiny_config(GatingMode.NONE)).slots["proj_a.w"]
    with pytest.raises(ConfigError, match=r"'proj_a\.w'"):
        grouped_probe(model, batch)(look_alike, 1e-5)
    assert all(slots(model)[key] is value for key, value in held.items())
    assert model.parameters().data.tobytes() == before.tobytes()
