"""Cost accounting: parameter formulas, FLOPs conventions, config search."""

import numpy as np
import pytest

from ddcn import ops
from ddcn.model import DDCN, ModelConfig
from ddcn.numerics import FlopCounter, Module, ShapeError, Tensor
from ddcn.profile import cost_report, count_flops, count_params, search_reference_configs


def test_pointwise_param_formula():
    layer = ops.PointwiseConv(8, 16)
    assert count_params(layer) == 8 * 16 + 16 == 144


def test_empty_model_zero_params():
    class Empty(Module):
        pass

    assert count_params(Empty()) == 0


def test_single_pointwise_conv_flops():
    layer = ops.PointwiseConv(8, 16)
    # (1, 8, 4, 4) input: 16 positions -> 2 * 16 * 8 * 16 = 4096
    x = Tensor(np.zeros((1, 8, 4, 4), dtype=np.float32))
    with FlopCounter() as counter:
        ops.pointwise_conv(x, layer.weight, layer.bias)
    assert counter.flops == 4096


@pytest.mark.parametrize("shape", [(1, 4, 2, -32, 32), (0, 4, 2, 8, 8), (1, 4, 2, 8, 0),
                                   (1, 4, 2, 8)])
def test_bad_input_shape_rejected(shape):
    cfg = ModelConfig(in_channels=2, input_steps=4, patch_size=2, embed_dim=8, depth=1)
    with pytest.raises(ShapeError, match="each >= 1"):
        cost_report(cfg, shape)
    with pytest.raises(ShapeError, match="each >= 1"):
        search_reference_configs(input_shape=shape)


@pytest.mark.parametrize("shape", [(1, 4, 2, 8), (1, 4, 2, 8, 8, 1)])
def test_count_flops_rejects_shape_of_wrong_rank(shape):
    model = DDCN(ModelConfig(in_channels=2, input_steps=4, patch_size=2, embed_dim=8, depth=1),
                 (8, 8))
    with pytest.raises(ShapeError, match="each >= 1"):
        count_flops(model, shape)


def test_tiny_config_params_match_hand_ledger():
    # D=8, r=4 (hidden 2), G=1, K=3, e=2, p=2, C=2, T=4, depth=1.
    cfg = ModelConfig(in_channels=2, input_steps=4, patch_size=2, embed_dim=8, depth=1)
    model = DDCN(cfg, (8, 8))
    patch_embed = (2 * 4) * 8 + 8                      # 72
    st_att = (8 * 8 + 8) * 2 + (8 * 2 + 2) + (2 * 27 + 27) + 8   # 251
    spatial = (8 * 8 + 8) * 2 + (8 * 18 * 9 + 18) + (8 * 9 + 9)  # 1539
    ffn = (8 * 16 + 16) + (16 * 8 + 8)                 # 280
    patch_back = (4 * 8) * (2 * 4) + (2 * 4)           # 264
    ledger = patch_embed + st_att + spatial + ffn + patch_back
    assert ledger == 2406
    assert count_params(model) == ledger
    assert cost_report(cfg, (1, 4, 2, 8, 8)).total_params == ledger


def test_params_independent_of_input_shape():
    cfg = ModelConfig(in_channels=2, input_steps=4, patch_size=2, embed_dim=8, depth=1)
    a = cost_report(cfg, (1, 4, 2, 8, 8)).total_params
    b = cost_report(cfg, (7, 4, 2, 32, 16)).total_params
    assert a == b


def test_flops_linear_in_batch_and_area():
    cfg = ModelConfig(in_channels=2, input_steps=4, patch_size=2, embed_dim=8, depth=2)
    base = cost_report(cfg, (1, 4, 2, 8, 8)).total_flops
    assert cost_report(cfg, (2, 4, 2, 8, 8)).total_flops == 2 * base
    doubled_h = cost_report(cfg, (1, 4, 2, 16, 8))
    assert doubled_h.total_flops == 2 * base
    assert doubled_h.conv_flops == 2 * cost_report(cfg, (1, 4, 2, 8, 8)).conv_flops


def test_count_flops_equals_instrumented_forward_exactly():
    shape = (2, 4, 2, 8, 8)
    for flags in ({}, {"use_ddc": False}, {"use_involution3d": False},
                  {"use_ddc": False, "use_involution3d": False}):
        cfg = ModelConfig(in_channels=2, input_steps=4, patch_size=2, embed_dim=8,
                          depth=2, **flags)
        model = DDCN(cfg, (8, 8), seed=0)
        x = Tensor(np.random.default_rng(0).uniform(0, 1, shape).astype(np.float32))
        with FlopCounter() as counter:
            model.forward(x)
        assert count_flops(model, shape) == counter.flops, flags


def test_report_totals_equal_breakdown_sum():
    cfg = ModelConfig(in_channels=2, input_steps=4, patch_size=2, embed_dim=16, depth=2)
    rep = cost_report(cfg, (1, 4, 2, 16, 16))
    assert rep.total_params == sum(l.params for l in rep.layers)
    assert rep.total_flops == sum(l.flops for l in rep.layers)
    assert rep.conv_flops == sum(l.flops for l in rep.layers if l.kind == "conv")
    assert rep.conv_flops < rep.total_flops
    text = rep.format()
    assert "MAC = 2" in text and "TOTAL" in text


def test_ablations_cost_no_more_than_full():
    shape = (1, 4, 2, 32, 32)
    full_cfg = ModelConfig(in_channels=2, input_steps=4, patch_size=2, embed_dim=64, depth=2)
    full = cost_report(full_cfg, shape)
    for flags in ({"use_ddc": False}, {"use_involution3d": False},
                  {"use_ddc": False, "use_involution3d": False}):
        cfg = ModelConfig(in_channels=2, input_steps=4, patch_size=2, embed_dim=64,
                          depth=2, **flags)
        rep = cost_report(cfg, shape)
        assert rep.total_params < full.total_params
        assert rep.total_flops < full.total_flops


def test_search_finds_reference_scale_config():
    candidates = search_reference_configs(input_shape=(1, 4, 2, 32, 32))
    hits = [c for c in candidates if c.matches]
    assert hits, "no (D, depth, p) configuration within 20% of the published costs"
    best = hits[0]
    assert abs(best.params - 610_000) <= 0.2 * 610_000
    assert abs(best.macs - 150_000_000) <= 0.2 * 150_000_000
    # Every flagged hit satisfies both bounds.
    for c in hits:
        assert c.params_ok and c.macs_ok
        assert c.flops == 2 * c.macs or c.flops == 2 * c.macs + c.flops % 2
