"""Full-network assembly: presets, shape flow and the attention surface."""

import gc
import hashlib
import weakref
from unittest import mock

import numpy as np
import pytest

from tkfnet import tensor
from tkfnet.gradcheck import OP_CASES
from tkfnet.layers import Conv, he_normal
from tkfnet.model import ModelConfig, TKFNet, model_config
from tkfnet.tafe import TAFE
from tkfnet.tensor import Parameter, ShapeError, Tape, Tensor, softmax_cross_entropy
from tkfnet.train import compute_loss
from tkfnet.weights import read_weights, write_weights


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


# The record order of the small preset's weights file.
SMALL_PARAMETER_NAMES = [
    "backbone.stem.weight", "backbone.stem.bias",
    "backbone.stage0.block0.conv_a.weight", "backbone.stage0.block0.conv_a.bias",
    "backbone.stage0.block0.conv_b.weight", "backbone.stage0.block0.conv_b.bias",
    "backbone.stage0.block0.proj.weight", "backbone.stage0.block0.proj.bias",
    "backbone.stage1.block0.conv_a.weight", "backbone.stage1.block0.conv_a.bias",
    "backbone.stage1.block0.conv_b.weight", "backbone.stage1.block0.conv_b.bias",
    "backbone.stage1.block0.proj.weight", "backbone.stage1.block0.proj.bias",
    "tafe.branch1.weight", "tafe.branch1.bias", "tafe.branch2.weight", "tafe.branch2.bias",
    "tafe.alpha", "tafe.beta",
    "tafe.mod_conv.weight", "tafe.mod_conv.bias", "tafe.ctx_conv3.weight", "tafe.ctx_conv3.bias",
    "tafe.ctx_conv1a.weight", "tafe.ctx_conv1a.bias", "tafe.ctx_conv1b.weight", "tafe.ctx_conv1b.bias",
    "dcif.attn_conv.weight", "dcif.attn_conv.bias", "dcif.fc1.weight", "dcif.fc1.bias",
    "dcif.fc2.weight", "dcif.fc2.bias", "dcif.head.weight", "dcif.head.bias",
]
# sha256 of the base preset's 54 parameter names, joined by newlines.
BASE_PARAMETER_NAMES_SHA256 = "6ad5a4ce870f2c8de9a92405f5dd1a80cb74cad0fc2ff073e231dc7d9c197695"


def test_parameter_order_is_pinned():
    small = TKFNet(model_config("small"), seed=0)
    names = [p.name for p in small.parameters()]
    assert names == SMALL_PARAMETER_NAMES
    assert list(small.state_arrays()) == names
    base = [p.name for p in TKFNet(model_config("base"), seed=0).parameters()]
    assert hashlib.sha256("\n".join(base).encode()).hexdigest() == BASE_PARAMETER_NAMES_SHA256


class TAFEWithExtras(TAFE):
    """TAFE plus a parameter assigned first and a conv held in a list."""

    def __init__(self, channels, rng, dtype=np.float32):
        self.gamma = Parameter("tafe.gamma", he_normal(rng, (1, 1, 1, 1), 1, dtype))
        super().__init__(channels, rng, dtype)
        self.extras = [Conv("tafe.extra0", 1, 1, channels, channels, rng, dtype)]


def test_parameters_follow_assignment_order_into_lists(monkeypatch, tmp_path):
    config = model_config("small", 3)
    plain = [p.name for p in TKFNet(config, seed=0).tafe.parameters()]
    monkeypatch.setattr("tkfnet.model.TAFE", TAFEWithExtras)
    model = TKFNet(config, seed=0)
    assert [p.name for p in model.tafe.parameters()] == (
        ["tafe.gamma"] + plain + ["tafe.extra0.weight", "tafe.extra0.bias"]
    )
    state = model.state_arrays()
    assert list(state) == [p.name for p in model.parameters()]
    assert {"tafe.gamma", "tafe.extra0.weight", "tafe.extra0.bias"} <= set(state)
    write_weights(tmp_path / "w.tkfw", state)
    loaded = TKFNet(config, state=read_weights(tmp_path / "w.tkfw"))
    assert loaded.tafe.gamma.data.tobytes() == model.tafe.gamma.data.tobytes()
    assert loaded.tafe.extras[0].weight.data.tobytes() == model.tafe.extras[0].weight.data.tobytes()
    restored = loaded.state_arrays()
    assert list(restored) == list(state)
    for name, arr in state.items():
        assert restored[name].tobytes() == arr.tobytes(), name


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


SMALL_INPUT = np.random.default_rng(3).uniform(size=(2, 16, 16, 3)).astype(np.float32)


def recorded_small_step():
    """A small-model loss at 16 px recorded on a tape, and weak references
    to the data of every recorded output except the loss, one list per
    node."""
    model = TKFNet(model_config("small", 3), seed=2)
    refs = []
    record = tensor._record

    def spy(outs, run, kind=None):
        record(outs, run, kind)
        refs.append([weakref.ref(out.data) for out in outs])

    with Tape() as tape, mock.patch.object(tensor, "_record", spy):
        loss = softmax_cross_entropy(model(Tensor(SMALL_INPUT)), np.array([0, 2]))
    assert len(refs) == len(tape.nodes)
    refs = [[ref for ref in node_refs if ref() is not loss.data] for node_refs in refs]
    return model, tape, loss, refs


def alive(refs):
    return sum(ref() is not None for node_refs in refs for ref in node_refs)


@pytest.fixture
def refcount_only():
    # With the cycle collector off, only reference counting frees arrays, so
    # an output kept alive through a reference cycle shows up as alive.
    gc.disable()
    yield
    gc.enable()


def test_backward_releases_every_recorded_output(refcount_only):
    model, tape, loss, refs = recorded_small_step()
    assert sum(len(node_refs) for node_refs in refs) == 40
    # Before backward only the outputs that some backward reads are alive:
    # the 6 relu outputs (read by relu itself), the 2 gelu outputs and the
    # mean and variance (read by the conv or the hadamard they feed), the 5
    # conv outputs read as a conv, moments or hadamard input, the DCIF gate
    # and the 2 concatenations (hadamard and conv inputs), and the pooled
    # features fc1 reads. No add or hadamard output, and none of the 12
    # other conv outputs, is kept.
    assert alive(refs) == 19
    tape.backward(loss)
    assert alive(refs) == 0
    assert loss.grad is None
    for p in model.parameters():
        assert p.grad is not None, p.name
    assert all(node.op for node in tape.nodes)


def test_backward_releases_each_node_before_the_earlier_ones_run(refcount_only):
    _, tape, loss, refs = recorded_small_step()
    first = tape.nodes[0]
    run_first = first.run
    seen = []

    def run():
        seen.append(alive(refs))
        run_first()

    first.run = run
    tape.backward(loss)
    # The first node, the stem conv, reads only the input images and its
    # kernel, so no recorded output is alive when it runs.
    assert seen == [0]


def test_forward_frees_backbone_conv_and_add_outputs(refcount_only):
    # The recorded tape stays referenced, so whatever is gone here was freed
    # during the forward pass.
    model, tape, _, refs = recorded_small_step()
    with Tape() as backbone_tape:
        model.backbone(Tensor(SMALL_INPUT))
    backbone = range(len(backbone_tape.nodes))
    dead = [i for i in backbone if tape.nodes[i].op in ("conv2d", "add")]
    # The stem, two convs per block and a strided shortcut per block; one
    # add per block.
    assert len(dead) == 9
    assert alive([refs[i] for i in dead]) == 0


def closure_cells(tape):
    return [cell.cell_contents for node in tape.nodes for cell in node.run.__closure__ or ()]


def test_no_tape_closure_holds_a_tensor():
    model = TKFNet(model_config("small", 3), seed=2)
    with Tape() as tape:
        softmax_cross_entropy(model(Tensor(SMALL_INPUT)), np.array([0, 2]))
    cells = closure_cells(tape)
    for i, build in enumerate(OP_CASES.values()):
        f, inputs = build(np.random.default_rng(i), np.float64)
        with Tape() as tape:
            f(*inputs)
        cells += closure_cells(tape)
    assert cells
    assert not [type(c).__name__ for c in cells if isinstance(c, Tensor)]


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
