"""DDCN encoder-decoder assembly.

Patch embedding feeds a stack of blocks, each wiring a spatio-temporal
attention gate, a spatial attention gate and a pointwise feed-forward pair
through additive residuals; patch back restores the grid resolution and
collapses the temporal axis into the single predicted frame.

Both attention gates share one structure: a value projection multiplied
elementwise (Hadamard) with an attention tensor produced by a dynamic
operator on a GELU-activated projection. The spatio-temporal gate uses 3D
involution over (T, H, W); the spatial gate folds batch and time together
and uses deformable dynamic convolution. Ablation flags swap either dynamic
operator for a plain shared-filter convolution of the same kernel size.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import ops
from .numerics import F32, Module, ShapeError, Tensor, add, gelu, mul, reshape, transpose

__all__ = ["TypedConfig", "ModelConfig", "STAttBlock", "SpatialAttBlock", "FeedForward",
           "DDCNBlock", "DDCN"]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


_FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "int | None": ("an integer or null", lambda v: v is None or _is_int(v)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "float": ("a finite number", _is_finite_real),
}


class TypedConfig:
    """Base of the config dataclasses: construction from a dict of known
    fields, and a check of every value against its field's annotation."""

    @classmethod
    def from_dict(cls, data: dict):
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown {cls.__name__} fields: {unknown}")
        return cls(**data).validate()

    def check_types(self):
        """Rejects a value that does not fit its annotation: ``int`` takes an
        integer (not a float, string or bool) and ``int | None`` also None,
        ``bool`` only True or False, ``float`` a finite real number that is
        not a bool (an integer is fine). Range checks come after it, so they
        compare numbers of the right kind."""
        for f in fields(self):
            kind, fits = _FIELD_KINDS[f.type]
            value = getattr(self, f.name)
            if not fits(value):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")


@dataclass
class ModelConfig(TypedConfig):
    """Architecture hyperparameters; every knob the blocks consume.

    patch_size must divide the dataset grid height and width; embed_dim must
    be divisible by both reduction and groups.
    """

    in_channels: int = 2
    input_steps: int = 4
    patch_size: int = 2
    embed_dim: int = 64
    depth: int = 2
    ddc_kernel: int = 3
    involution_kernel: int = 3
    groups: int = 1
    reduction: int = 4
    ffn_expansion: int = 2
    use_ddc: bool = True
    use_involution3d: bool = True

    def validate(self):
        self.check_types()
        for name in ("in_channels", "input_steps", "patch_size", "embed_dim", "groups",
                     "reduction", "ffn_expansion"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 1 <= self.depth <= 8:
            raise ValueError(f"depth must be in 1..8, got {self.depth}")
        if self.embed_dim % self.reduction != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} must be divisible by reduction {self.reduction}"
            )
        if self.embed_dim % self.groups != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} must be divisible by groups {self.groups}"
            )
        for name in ("ddc_kernel", "involution_kernel"):
            k = getattr(self, name)
            if k < 1 or k % 2 == 0:
                raise ValueError(f"{name} must be odd and positive, got {k}")
        return self


class STAttBlock(Module):
    """Spatio-temporal attention gate: V (x) dynamic-attention over (T, H, W).

    V = PWConv3D(x); Att = Involution3D(GELU(PWConv3D(x))); output V (x) Att.
    With use_involution3d off, the attention operator is a shared 3^3 filter.
    """

    def __init__(self, cfg: ModelConfig, rng, dtype=F32):
        d = cfg.embed_dim
        self.value_proj = ops.PointwiseConv(d, d, rng=rng, dtype=dtype)
        self.att_proj = ops.PointwiseConv(d, d, rng=rng, dtype=dtype)
        if cfg.use_involution3d:
            self.att_op = ops.Involution3D(
                d, cfg.involution_kernel, cfg.groups, cfg.reduction, rng=rng, dtype=dtype
            )
        else:
            self.att_op = ops.SharedConv(cfg.involution_kernel, dims=3, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        # (B, T, D, H, W) -> channels-first (B, D, T, H, W) for the 3D ops
        xc = transpose(x, (0, 2, 1, 3, 4))
        out = mul(self.value_proj(xc), self.att_op(gelu(self.att_proj(xc))))
        return transpose(out, (0, 2, 1, 3, 4))


class SpatialAttBlock(Module):
    """Spatial attention gate on frames with batch and time folded together.

    V = PWConv(x); Att = DDC(GELU(PWConv(x))); output V (x) Att, unfolded
    back to (B, T, D, H, W). With use_ddc off, the attention operator is a
    shared 3x3 filter.
    """

    def __init__(self, cfg: ModelConfig, rng, dtype=F32):
        d = cfg.embed_dim
        self.value_proj = ops.PointwiseConv(d, d, rng=rng, dtype=dtype)
        self.att_proj = ops.PointwiseConv(d, d, rng=rng, dtype=dtype)
        if cfg.use_ddc:
            self.att_op = ops.DDCLayer(d, cfg.ddc_kernel, cfg.groups, rng=rng, dtype=dtype)
        else:
            self.att_op = ops.SharedConv(cfg.ddc_kernel, dims=2, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        b, t, d, h, w = x.shape
        folded = reshape(x, (b * t, d, h, w))
        out = mul(self.value_proj(folded), self.att_op(gelu(self.att_proj(folded))))
        return reshape(out, (b, t, d, h, w))


class FeedForward(Module):
    """Decoder feed-forward: two pointwise convs doubling then restoring D."""

    def __init__(self, cfg: ModelConfig, rng, dtype=F32):
        d = cfg.embed_dim
        hidden = d * cfg.ffn_expansion
        self.expand = ops.PointwiseConv(d, hidden, rng=rng, dtype=dtype)
        self.restore = ops.PointwiseConv(hidden, d, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        b, t, d, h, w = x.shape
        folded = reshape(x, (b * t, d, h, w))
        return reshape(self.restore(self.expand(folded)), (b, t, d, h, w))


class DDCNBlock(Module):
    """One encoder-decoder unit: three gated stages with additive residuals.

    x_S = STAtt(x_ST) + x_ST; Enc_out = SpatialAtt(x_S) + x_S;
    Dec_out = FeedForward(Enc_out) + Enc_out. Residuals add each stage's own
    input, not the network input.
    """

    def __init__(self, cfg: ModelConfig, rng, dtype=F32):
        self.st_att = STAttBlock(cfg, rng, dtype)
        self.spatial_att = SpatialAttBlock(cfg, rng, dtype)
        self.ffn = FeedForward(cfg, rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        x_s = add(self.st_att(x), x)
        enc = add(self.spatial_att(x_s), x_s)
        return add(self.ffn(enc), enc)


class DDCN(Module):
    """Grid traffic forecaster: (B, T, C, H, W) history -> (B, C, H, W) next frame.

    Construction validates the grid (two integers >= 1) and the patch size
    against it, so shape errors surface before any forward pass. A model
    instance is immutable during inference; training mutates its Params and
    must be externally serialized.
    """

    def __init__(self, config: ModelConfig, grid_size: tuple, dtype=F32, seed: int = 0):
        config.validate()
        if len(grid_size) != 2 or not all(_is_int(s) and s >= 1 for s in grid_size):
            raise ShapeError(f"DDCN: grid_size must be two integers >= 1, got {grid_size}")
        h, w = grid_size
        if h % config.patch_size != 0 or w % config.patch_size != 0:
            raise ShapeError(f"patch size {config.patch_size} must divide grid H={h} and W={w}")
        self.config = config
        self.grid_size = (int(h), int(w))
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        self.patch_embed = ops.PatchEmbed(
            config.in_channels, config.patch_size, config.embed_dim, rng=rng, dtype=dtype
        )
        self.blocks = [DDCNBlock(config, rng, dtype) for _ in range(config.depth)]
        self.patch_back = ops.PatchBack(
            config.input_steps, config.embed_dim, config.patch_size, config.in_channels,
            rng=rng, dtype=dtype,
        )

    def forward(self, x: Tensor) -> Tensor:
        expected = (self.config.input_steps, self.config.in_channels) + self.grid_size
        if len(x.shape) != 5 or x.shape[1:] != expected:
            raise ShapeError(f"DDCN: expected input (B,) + {expected}, got {x.shape}")
        h = self.patch_embed(x)
        for block in self.blocks:
            h = block(h)
        return self.patch_back(h)

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Pure-inference forward on a numpy batch (no tape)."""
        out = self(Tensor(np.asarray(batch, dtype=self.dtype)))
        return out.data.copy()
