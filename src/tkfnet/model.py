"""Network assembly and size presets."""

from dataclasses import dataclass

import numpy as np

from .backbone import Backbone, BackboneConfig
from .dcif import DCIF
from .layers import Module
from .tafe import TAFE
from .tensor import ShapeError


@dataclass(frozen=True)
class ModelConfig:
    backbone: BackboneConfig
    classes: int = 7


# Size presets by name; every list of model names reads this table.
PRESETS = {
    # Full-size variant: total stride 16, 128 backbone channels.
    "base": BackboneConfig(
        stem_channels=32,
        stage_widths=(32, 64, 128),
        blocks_per_stage=(2, 2, 2),
        stride_per_stage=(2, 2, 2),
    ),
    # Desk-scale variant: total stride 8, 16 backbone channels.
    "small": BackboneConfig(
        stem_channels=8,
        stage_widths=(8, 16),
        blocks_per_stage=(1, 1),
        stride_per_stage=(2, 2),
    ),
}


def model_config(name, classes=7):
    if name not in PRESETS:
        expected = " or ".join(repr(n) for n in PRESETS)
        raise ValueError(f"unknown model size {name!r}; expected {expected}")
    return ModelConfig(PRESETS[name], classes)


class TKFNet(Module):
    """Backbone, texture extractor and gated classifier in sequence."""

    def __init__(self, config, seed=0, dtype=np.float32, state=None):
        """Seeded He-normal initialization, or, given ``state``, the
        parameters of a {name: array} mapping loaded by ``load_state``
        without drawing an initialization first."""
        rng = np.random.default_rng(seed) if state is None else None
        self.config = config
        self.backbone = Backbone(config.backbone, rng, dtype)
        self.tafe = TAFE(self.backbone.out_channels, rng, dtype)
        self.dcif = DCIF(self.tafe.out_channels, config.classes, rng, dtype=dtype)
        if state is not None:
            self.load_state(state)

    def forward_with_attention(self, images):
        """Logits (n, 1, 1, classes) plus the per-channel gate vector."""
        features = self.backbone(images)
        textured = self.tafe(features)
        return self.dcif(textured)

    def __call__(self, images):
        logits, _gate = self.forward_with_attention(images)
        return logits

    def parameter_dict(self):
        params = {}
        for p in self.parameters():
            if p.name in params:
                raise ValueError(f"duplicate parameter name {p.name}")
            params[p.name] = p
        return params

    def state_arrays(self):
        """Parameter name -> float32 array, in declaration order."""
        self.parameter_dict()
        return {p.name: p.data.astype(np.float32) for p in self.parameters()}

    def load_state(self, arrays):
        """Strictly load a {name: array} mapping; every parameter must match."""
        params = self.parameter_dict()
        missing = [name for name in params if name not in arrays]
        if missing:
            raise ShapeError(f"weights are missing parameters: {', '.join(sorted(missing))}")
        extra = [name for name in arrays if name not in params]
        if extra:
            raise ShapeError(f"weights hold unknown parameters: {', '.join(sorted(extra))}")
        for name, param in params.items():
            arr = np.asarray(arrays[name])
            if arr.shape != param.shape:
                raise ShapeError(
                    f"parameter {name} has shape {param.shape} but the weights "
                    f"record is {arr.shape}"
                )
            param.data = np.ascontiguousarray(arr, dtype=param.data.dtype)
            param.grad = None
