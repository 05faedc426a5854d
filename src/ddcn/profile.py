"""Analytic parameter and FLOPs accounting for DDCN configurations.

Conventions, stated in every report: one multiply-accumulate is 2 FLOPs;
convolution costs exclude bias adds; elementwise add/mul cost 1 FLOP per
element; GELU costs 8 per element (erf path); deformable sampling adds
4 mul + 4 add per bilinear sample per tap; pure data movement (reshape,
transpose, pixel shuffle) is free. The runtime FlopCounter inside every
primitive uses the same conventions, so analytic and instrumented counts
must agree exactly.

Published model-efficiency tables are usually produced by profilers that
report multiply-accumulates as "FLOPs", so the reference-config search
matches candidate MAC counts (= FLOPs / 2) against published FLOPs numbers
while also reporting the MAC = 2 figure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from .model import DDCN, ModelConfig
from .numerics import FlopCounter, Module, ShapeError
from .ops import DDCLayer

__all__ = [
    "LayerCost",
    "CostReport",
    "count_params",
    "count_flops",
    "cost_report",
    "CandidateCost",
    "search_reference_configs",
    "FlopCounter",
]


@dataclass
class LayerCost:
    name: str
    params: int
    flops: int
    kind: str  # "conv" | "activation" | "elementwise"


@dataclass
class CostReport:
    input_shape: tuple
    layers: list

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def total_flops(self) -> int:
        return sum(l.flops for l in self.layers)

    @property
    def conv_flops(self) -> int:
        """Conv-only mode: activation and elementwise costs excluded."""
        return sum(l.flops for l in self.layers if l.kind == "conv")

    @property
    def total_macs(self) -> int:
        return self.total_flops // 2

    def to_dict(self) -> dict:
        return {
            "input_shape": list(self.input_shape),
            "conventions": "MAC=2 FLOPs, conv bias adds excluded, GELU=8/elem",
            "total_params": self.total_params,
            "total_flops": self.total_flops,
            "total_macs": self.total_macs,
            "conv_flops": self.conv_flops,
            "layers": [asdict(l) for l in self.layers],
        }

    def format(self) -> str:
        width = max(len(l.name) for l in self.layers) + 2
        lines = [
            f"input shape: {self.input_shape}",
            "conventions: MAC = 2 FLOPs; conv bias adds excluded; GELU = 8 FLOPs/elem",
            f"{'layer':<{width}}{'params':>12}{'flops':>16}  kind",
        ]
        for l in self.layers:
            lines.append(f"{l.name:<{width}}{l.params:>12}{l.flops:>16}  {l.kind}")
        lines.append(
            f"{'TOTAL':<{width}}{self.total_params:>12}{self.total_flops:>16}"
        )
        lines.append(
            f"totals: {self.total_params / 1e6:.3f}M params, "
            f"{self.total_flops / 1e9:.4f}G FLOPs (MAC=2), "
            f"{self.total_macs / 1e9:.4f}G MACs, conv-only {self.conv_flops / 1e9:.4f}G"
        )
        return "\n".join(lines)


def count_params(module: Module) -> int:
    """Sum of element counts of all Params."""
    return sum(p.size for p in module.params())


def _input_dims(input_shape) -> tuple:
    """``input_shape`` as five ints (B, T, C, H, W), each at least 1."""
    dims = tuple(int(s) for s in input_shape)
    if len(dims) != 5 or min(dims) < 1:
        raise ShapeError(f"input shape must be (B, T, C, H, W), each >= 1, got {input_shape}")
    return dims


def cost_report(config: ModelConfig, input_shape) -> CostReport:
    """Layer-by-layer analytic cost of one forward pass at ``input_shape``.

    The walk mirrors the forward pass primitive by primitive; the
    instrumented-forward test pins the two together.
    """
    config.validate()
    b, t, c, h, w = dims = _input_dims(input_shape)
    if t != config.input_steps or c != config.in_channels:
        raise ShapeError(
            f"input shape {tuple(input_shape)} incompatible with config "
            f"(T={config.input_steps}, C={config.in_channels})"
        )
    p = config.patch_size
    if h % p != 0 or w % p != 0:
        raise ShapeError(f"patch size {p} must divide H={h} and W={w}")
    hp, wp = h // p, w // p
    d = config.embed_dim
    g = config.groups
    pos = b * t * hp * wp  # positions seen by every shape-preserving stage

    layers: list[LayerCost] = []

    def row(name, params, flops, kind):
        layers.append(LayerCost(name, int(params), int(flops), kind))

    def conv(name, c_in, c_out, taps=1, n=pos):
        """A dense conv row: weight plus bias params, 2 FLOPs per MAC over n positions."""
        row(name, c_in * c_out * taps + c_out, 2 * n * c_in * c_out * taps, "conv")

    conv("patch_embed.proj", c * p * p, d)

    for i in range(config.depth):
        pre = f"blocks.{i}."
        # Spatio-temporal attention gate
        conv(pre + "st_att.value_proj", d, d)
        conv(pre + "st_att.att_proj", d, d)
        row(pre + "st_att.att_act", 0, 8 * pos * d, "activation")
        kt = config.involution_kernel
        if config.use_involution3d:
            hid = d // config.reduction
            k3 = kt ** 3
            conv(pre + "st_att.att_op.reduce", d, hid)
            row(pre + "st_att.att_op.act", 0, 8 * pos * hid, "activation")
            conv(pre + "st_att.att_op.span", hid, g * k3)
            # per-channel output bias lives on the aggregate
            row(pre + "st_att.att_op.aggregate", d, 2 * pos * d * k3, "conv")
        else:
            row(pre + "st_att.att_op", kt ** 3 + 1, 2 * pos * d * kt ** 3, "conv")
        row(pre + "st_att.gate", 0, pos * d, "elementwise")
        row(pre + "st_att.residual", 0, pos * d, "elementwise")

        # Spatial attention gate
        conv(pre + "spatial_att.value_proj", d, d)
        conv(pre + "spatial_att.att_proj", d, d)
        row(pre + "spatial_att.att_act", 0, 8 * pos * d, "activation")
        ks = config.ddc_kernel
        if config.use_ddc:
            kk = ks * ks
            conv(pre + "spatial_att.att_op.offset_conv", d, 2 * kk, DDCLayer.OFFSET_KERNEL ** 2)
            conv(pre + "spatial_att.att_op.kernel_conv", d, g * kk)
            # 2 FLOPs MAC + 8 FLOPs (4 mul + 4 add) per bilinear sample per tap
            row(pre + "spatial_att.att_op.aggregate", 0, 10 * pos * d * kk, "conv")
        else:
            row(pre + "spatial_att.att_op", ks ** 2 + 1, 2 * pos * d * ks ** 2, "conv")
        row(pre + "spatial_att.gate", 0, pos * d, "elementwise")
        row(pre + "spatial_att.residual", 0, pos * d, "elementwise")

        # Feed-forward pair
        hidden = d * config.ffn_expansion
        conv(pre + "ffn.expand", d, hidden)
        conv(pre + "ffn.restore", hidden, d)
        row(pre + "ffn.residual", 0, pos * d, "elementwise")

    conv("patch_back.proj", t * d, c * p * p, n=b * hp * wp)
    return CostReport(dims, layers)


def count_flops(model: DDCN, input_shape) -> int:
    """Total FLOPs (MAC = 2) of one forward at ``input_shape``.

    Equals what a FlopCounter measures around ``model.forward`` exactly.
    """
    h, w = _input_dims(input_shape)[3:]
    if (h, w) != model.grid_size:
        raise ShapeError(
            f"input grid {(h, w)} does not match model grid {model.grid_size}"
        )
    return cost_report(model.config, input_shape).total_flops


# ---------------------------------------------------------------------------
# Reference-scale configuration search
# ---------------------------------------------------------------------------


# The published reference budget: 0.61M parameters and 150M FLOPs (counted
# as MACs, see the module docstring), each matched within +-20%.
TARGET_PARAMS = 610_000
TARGET_FLOPS = 150_000_000
TOLERANCE = 0.2


@dataclass
class CandidateCost:
    embed_dim: int
    depth: int
    patch_size: int
    params: int
    flops: int  # MAC = 2 convention
    macs: int
    params_ok: bool
    macs_ok: bool

    @property
    def matches(self) -> bool:
        return self.params_ok and self.macs_ok


def search_reference_configs(input_shape=(1, 4, 2, 32, 32)) -> list[CandidateCost]:
    """Scan (embed_dim, depth, patch_size) and flag configurations whose cost
    lands within ``TOLERANCE`` of the published params/FLOPs pair.

    The scan covers embed_dim 8..256 in steps of 8, depth 1..6 and every
    patch size dividing the grid, with the remaining fields at their
    ``ModelConfig`` defaults. ``TARGET_FLOPS`` is compared against candidate
    MAC counts because published profiler numbers conventionally count
    multiply-accumulates; the MAC = 2 figure is reported alongside. No
    configuration is asserted to be the published one.
    """
    b, t, c, h, w = _input_dims(input_shape)
    base = ModelConfig(in_channels=c, input_steps=t)
    patch_sizes = [p for p in range(1, min(h, w) + 1) if h % p == 0 and w % p == 0]
    out = []
    for p in patch_sizes:
        for depth in range(1, 7):
            for d in range(8, 264, 8):
                cfg = replace(base, patch_size=p, embed_dim=d, depth=depth)
                report = cost_report(cfg, input_shape)
                params = report.total_params
                flops = report.total_flops
                macs = report.total_macs
                out.append(
                    CandidateCost(
                        embed_dim=d,
                        depth=depth,
                        patch_size=p,
                        params=params,
                        flops=flops,
                        macs=macs,
                        params_ok=abs(params - TARGET_PARAMS) <= TOLERANCE * TARGET_PARAMS,
                        macs_ok=abs(macs - TARGET_FLOPS) <= TOLERANCE * TARGET_FLOPS,
                    )
                )
    out.sort(key=lambda cand: (not cand.matches, abs(cand.params - TARGET_PARAMS)))
    return out
