"""Full-network assembly: presets, shape flow and the attention surface."""

import numpy as np
import pytest

from tkfnet.model import ModelConfig, TKFNet, model_config
from tkfnet.tensor import ShapeError, Tape, Tensor
from tkfnet.train import compute_loss


def test_preset_lookup():
    assert model_config("small").backbone.stage_widths == (8, 16)
    assert model_config("base").backbone.stage_widths == (32, 64, 128)
    assert model_config("small", classes=3).classes == 3
    with pytest.raises(ValueError, match="tiny"):
        model_config("tiny")


def test_small_logit_shape():
    model = TKFNet(model_config("small", 7), seed=0)
    x = Tensor(np.random.default_rng(0).uniform(size=(2, 32, 32, 3)).astype(np.float32))
    assert model(x).shape == (2, 1, 1, 7)


def test_attention_gate_width_is_twice_backbone_width():
    model = TKFNet(model_config("small", 4), seed=0)
    x = Tensor(np.random.default_rng(1).uniform(size=(1, 16, 16, 3)).astype(np.float32))
    logits, gate = model.forward_with_attention(x)
    assert logits.shape == (1, 1, 1, 4)
    assert gate.shape == (1, 1, 1, 32)
    assert np.all(gate.data > 0.0)
    assert np.all(gate.data < 1.0)


def test_component_widths_compose():
    model = TKFNet(model_config("base", 7), seed=0)
    assert model.backbone.out_channels == 128
    assert model.tafe.out_channels == 256
    assert model.dcif.channels == 256
    assert model.dcif.classes == 7


def test_seeded_build_is_reproducible():
    a = TKFNet(model_config("small", 7), seed=5)
    b = TKFNet(model_config("small", 7), seed=5)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.data, pb.data)


def test_parameter_names_unique():
    model = TKFNet(model_config("base", 7), seed=0)
    names = [p.name for p in model.parameters()]
    assert len(names) == len(set(names))
    assert set(model.parameter_dict()) == set(names)


def test_state_arrays_are_float32_copies():
    model = TKFNet(model_config("small", 7), seed=0)
    state = model.state_arrays()
    assert set(state) == {p.name for p in model.parameters()}
    assert all(arr.dtype == np.float32 for arr in state.values())
    state["tafe.alpha"][:] = 99.0
    assert model.tafe.alpha.item() == 1.0


def test_indivisible_input_rejected_end_to_end():
    model = TKFNet(model_config("small", 7), seed=0)
    with pytest.raises(ShapeError, match="divisible"):
        model(Tensor(np.zeros((1, 20, 20, 3), dtype=np.float32)))


def test_every_parameter_receives_gradient():
    model = TKFNet(model_config("small", 3), seed=2)
    x = Tensor(np.random.default_rng(3).uniform(size=(2, 16, 16, 3)).astype(np.float32))
    with Tape() as tape:
        loss = compute_loss(model(x), np.array([0, 2]))
        tape.backward(loss)
    for p in model.parameters():
        assert p.grad is not None, p.name
        assert np.all(np.isfinite(p.grad)), p.name


def test_float64_construction():
    model = TKFNet(model_config("small", 3), seed=0, dtype=np.float64)
    assert all(p.dtype == np.float64 for p in model.parameters())
    x = Tensor(np.zeros((1, 16, 16, 3)))
    assert model(x).dtype == np.float64


def test_state_build_matches_seeded_build_then_load():
    config = model_config("small", 7)
    state = TKFNet(config, seed=3).state_arrays()
    x = Tensor(np.random.default_rng(4).uniform(-1, 1, size=(2, 16, 16, 3)).astype(np.float32))
    expected = TKFNet(config, state=state)(x).data
    for seed in (0, 5):
        model = TKFNet(config, seed=seed)
        model.load_state(state)
        assert model(x).data.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda state: state.pop("tafe.beta"), "missing parameters: tafe.beta"),
        (lambda state: state.update(extra=np.zeros((1, 1, 1, 1), np.float32)), "unknown parameters: extra"),
        (lambda state: state.update({"tafe.ctx_conv3.weight": np.zeros((1, 1, 16, 16), np.float32)}),
         "tafe.ctx_conv3.weight has shape"),
    ],
    ids=["missing", "extra", "wrong_shape"],
)
def test_state_build_is_strict(edit, match):
    config = model_config("small", 7)
    state = TKFNet(config, seed=0).state_arrays()
    edit(state)
    with pytest.raises(ShapeError, match=match):
        TKFNet(config, state=state)
