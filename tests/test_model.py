"""Model assembly: block wiring, residuals, ablations, shape contracts."""

import threading
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

from ddcn import ops
from ddcn.model import DDCN, ModelConfig, SpatialAttBlock, STAttBlock
from ddcn.numerics import (
    Capture,
    FlopCounter,
    Param,
    ShapeError,
    Tape,
    Tensor,
    backward,
    reshape,
)
from ddcn.profile import cost_report, count_params
from ddcn.train import finite_difference, l1_loss, max_relative_error, tiny_model_config

RNG = np.random.default_rng


def small_config(**overrides):
    base = dict(
        in_channels=2, input_steps=4, patch_size=2, embed_dim=8, depth=1,
        ddc_kernel=3, involution_kernel=3, groups=1, reduction=4, ffn_expansion=2,
    )
    base.update(overrides)
    return ModelConfig(**base)


def test_config_json_roundtrip_and_strictness():
    cfg = small_config(use_ddc=False)
    again = ModelConfig.from_dict(asdict(cfg))
    assert again == cfg
    with pytest.raises(ValueError, match="unknown ModelConfig fields"):
        ModelConfig.from_dict({"embed_dim": 8, "bogus": 1})
    with pytest.raises(ValueError, match="divisible by reduction"):
        ModelConfig.from_dict({"embed_dim": 6, "reduction": 4})


def test_st_att_block_shape_and_hadamard_identity():
    cfg = small_config(embed_dim=64)
    rng = RNG(0)
    block = STAttBlock(cfg, rng, dtype=np.float64)
    x = Tensor(rng.uniform(-1, 1, (2, 4, 64, 8, 4)), dtype=np.float64)
    out = block.forward(x)
    assert out.shape == x.shape

    # Force Att to all ones: zero generator, involution bias = 1.
    block.att_op.reduce.weight.data[...] = 0.0
    block.att_op.reduce.bias.data[...] = 0.0
    block.att_op.span.weight.data[...] = 0.0
    block.att_op.span.bias.data[...] = 0.0
    block.att_op.bias.data[...] = 1.0
    with Capture(block) as cap:
        out = block(x)
    (v,), (att,) = cap.outputs["value_proj"], cap.outputs["att_op"]
    assert np.all(att.data == 1.0)
    # V and Att are channels-first (B, D, T, H, W); the block output is not.
    assert np.array_equal(out.data, v.data.transpose(0, 2, 1, 3, 4))


def test_st_att_block_gradcheck():
    cfg = small_config(embed_dim=8, input_steps=2)
    rng = RNG(1)
    block = STAttBlock(cfg, rng, dtype=np.float64)
    x = Tensor(rng.uniform(-1, 1, (1, 2, 8, 4, 4)), dtype=np.float64)
    y = Tensor(rng.uniform(-1, 1, (1, 2, 8, 4, 4)), dtype=np.float64)

    def run():
        return l1_loss(block.forward(x), y)

    params = [("x", x)] + list(block.named_params())
    for _, p in params:
        p.grad = np.zeros_like(p.data) if isinstance(p, Param) else None
    with Tape() as tape:
        loss = run()
    backward(loss, tape)
    fd = finite_difference(lambda: run().item(), [p.data for _, p in params])
    for (name, p), g in zip(params, fd):
        assert max_relative_error(p.grad, g) < 1e-4, name


def test_fold_unfold_roundtrip_is_identity():
    rng = RNG(2)
    x = Tensor(rng.uniform(-1, 1, (2, 4, 3, 5, 5)).astype(np.float32))
    folded = reshape(x, (8, 3, 5, 5))
    back = reshape(folded, (2, 4, 3, 5, 5))
    assert np.array_equal(back.data, x.data)


def test_spatial_block_shape_and_temporal_independence():
    cfg = small_config(embed_dim=8)
    rng = RNG(3)
    block = SpatialAttBlock(cfg, rng, dtype=np.float64)
    x = rng.uniform(-1, 1, (2, 4, 8, 4, 4))
    out = block.forward(Tensor(x, dtype=np.float64))
    assert out.shape == (2, 4, 8, 4, 4)
    # Frames pass through independently: per-frame runs reproduce each slice.
    for t in range(4):
        frame = block.forward(Tensor(x[:, t : t + 1], dtype=np.float64))
        assert np.array_equal(frame.data[:, 0], out.data[:, t])


@pytest.mark.parametrize("grid,p", [((16, 8), 2), ((10, 20), 2), ((32, 32), 2),
                                    ((16, 8), 1), ((10, 20), 1), ((32, 32), 1)])
def test_forward_shape_contract_table_grids(grid, p):
    cfg = small_config(patch_size=p)
    model = DDCN(cfg, grid, seed=0)
    b = 2
    x = Tensor(np.zeros((b, 4, 2) + grid, dtype=np.float32))
    out = model.forward(x)
    assert out.shape == (b, 2) + grid


def test_indivisible_patch_rejected_at_construction():
    with pytest.raises(ShapeError, match="must divide"):
        DDCN(small_config(patch_size=2), (9, 8))


@pytest.mark.parametrize("grid", [(0, 0), (-2, -2), (8, 0), (2.0, 2.0), (8,), (8, 8, 8),
                                  (True, 8)])
def test_impossible_grid_rejected_at_construction(grid):
    with pytest.raises(ShapeError, match="grid_size must be two integers >= 1"):
        DDCN(small_config(patch_size=2), grid)


def test_forward_rejects_wrong_input_shape():
    model = DDCN(small_config(), (8, 8))
    with pytest.raises(ShapeError):
        model.forward(Tensor(np.zeros((1, 3, 2, 8, 8), dtype=np.float32)))


def test_batch_rows_independent_and_equivariant():
    model = DDCN(small_config(), (8, 8), seed=1)
    rng = RNG(4)
    x = rng.uniform(0, 1, (3, 4, 2, 8, 8)).astype(np.float32)
    full = model.predict(x)
    rows = np.concatenate([model.predict(x[i : i + 1]) for i in range(3)])
    assert np.max(np.abs(full - rows)) < 1e-6
    perm = np.array([2, 0, 1])
    assert np.array_equal(model.predict(x[perm]), full[perm])


def test_zeroed_residual_branches_reduce_to_patch_roundtrip():
    model = DDCN(small_config(depth=2), (8, 8), seed=2)
    for name, p in model.named_params():
        if name.startswith("blocks."):
            p.data[...] = 0.0
    rng = RNG(5)
    x = Tensor(rng.uniform(0, 1, (2, 4, 2, 8, 8)).astype(np.float32))
    out = model.forward(x)
    ref = model.patch_back.forward(model.patch_embed.forward(x))
    assert np.array_equal(out.data, ref.data)


def test_ablation_param_count_lattice():
    grid = (32, 32)
    variants = {
        flags: count_params(DDCN(small_config(embed_dim=64, depth=2, **dict(flags)), grid))
        for flags in [
            (("use_ddc", True), ("use_involution3d", True)),
            (("use_ddc", False), ("use_involution3d", True)),
            (("use_ddc", True), ("use_involution3d", False)),
            (("use_ddc", False), ("use_involution3d", False)),
        ]
    }
    full = variants[(("use_ddc", True), ("use_involution3d", True))]
    wo_ddc = variants[(("use_ddc", False), ("use_involution3d", True))]
    wo_inv = variants[(("use_ddc", True), ("use_involution3d", False))]
    wo_all = variants[(("use_ddc", False), ("use_involution3d", False))]
    assert wo_all < wo_ddc < full
    assert wo_all < wo_inv < full


def test_ablated_model_forward_and_gradients():
    cfg = small_config(use_ddc=False, use_involution3d=False)
    model = DDCN(cfg, (8, 8), dtype=np.float64, seed=3)
    rng = RNG(6)
    x = Tensor(rng.uniform(0, 1, (1, 4, 2, 8, 8)), dtype=np.float64)
    y = Tensor(rng.uniform(0, 1, (1, 2, 8, 8)), dtype=np.float64)
    with Tape() as tape:
        loss = l1_loss(model.forward(x), y)
    backward(loss, tape)
    for name, p in model.named_params():
        assert np.isfinite(p.grad).all(), name


@pytest.mark.parametrize("embed_dim, grid, bound", [(4, 8, 108), (16, 16, 122)],
                         ids=["tiny", "mid"])
def test_forward_tape_bytes_bounded(embed_dim, grid, bound):
    # Everything a taped forward keeps alive once its output is dropped, as a
    # multiple of the input batch's bytes, at tiny_model_config() (D=4, 8x8
    # grid) and at D=16 on a 16x16 grid, both with B=2. The tape holds its
    # leaves and each VJP what it reads: conv inputs, mul operands, GELU
    # derivatives, DDC's sampling matrices, fractional coordinates and
    # kernel copy, plus index objects and closures. Measured 101.7x and
    # 111.2x; the bounds leave 6% and 10% headroom. A tape that kept every
    # entry's inputs and output, with GELU keeping its input and DDC its
    # gather-layout copy, read 118.9x and 150.6x.
    cfg = replace(tiny_model_config(), embed_dim=embed_dim)
    model = DDCN(cfg, (grid, grid), seed=0)
    shape = (2, cfg.input_steps, cfg.in_channels, grid, grid)
    x = Tensor(RNG(12).uniform(0, 1, shape).astype(np.float32))
    model.forward(x)  # one-off caches of a first call are not tape
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            model.forward(x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    ratio = held / x.data.nbytes
    assert ratio <= bound, f"tape of {len(tape)} entries holds {ratio:.1f}x the input's bytes"


def test_debug_activations_layout():
    model = DDCN(small_config(depth=2), (8, 8), seed=4)
    rng = RNG(7)
    x = Tensor(rng.uniform(0, 1, (2, 4, 2, 8, 8)).astype(np.float32))
    with Capture(model) as cap:
        out = model(x)
    # x_S and Enc_out are residual sums, not module outputs: add's exact-shape
    # check pins them to the shape of the block input.
    for i, x_st in enumerate([cap.outputs["patch_embed"][0], cap.outputs["blocks.0"][0]]):
        pre = f"blocks.{i}."
        assert x_st.shape == (2, 4, 8, 4, 4)
        (v_st,), (att_st,) = (cap.outputs[pre + "st_att.value_proj"],
                              cap.outputs[pre + "st_att.att_op"])
        (v_s,), (att_s,) = (cap.outputs[pre + "spatial_att.value_proj"],
                            cap.outputs[pre + "spatial_att.att_op"])
        (dec_out,) = cap.outputs[pre[:-1]]
        for arr in (v_st, att_st, v_s, att_s, dec_out):
            assert arr.shape[-2:] == (4, 4)
        assert v_st.shape == att_st.shape == (2, 8, 4, 4, 4)  # (B, D, T, H', W')
        assert v_s.shape == att_s.shape == (8, 8, 4, 4)  # (B*T, D, H', W')
        assert dec_out.shape == x_st.shape
    assert "blocks.2" not in cap.outputs
    # Capturing must not change the output.
    assert np.array_equal(out.data, model.predict(x.data))


@pytest.mark.parametrize("flags", [{}, {"use_ddc": False, "use_involution3d": False}])
def test_capture_sees_every_module_once_and_leaves_are_cost_rows(flags):
    cfg = small_config(depth=2, **flags)
    model = DDCN(cfg, (8, 8), seed=5)
    shape = (1, 4, 2, 8, 8)
    with Capture(model) as cap:
        model(Tensor(np.zeros(shape, dtype=np.float32)))
    paths = [path for path, _ in model.named_modules()]
    assert {path: len(outs) for path, outs in cap.outputs.items()} == {p: 1 for p in paths}
    # A leaf module is one cost_report row, under the same name, with its parameter count.
    leaves = {p: m for p, m in model.named_modules() if len(list(m.named_modules())) == 1}
    rows = {row.name: row.params for row in cost_report(cfg, shape).layers}
    assert {p: rows.get(p) for p in leaves} == {p: count_params(m) for p, m in leaves.items()}
    assert "patch_embed.proj" in leaves
    assert ("blocks.0.spatial_att.att_op.offset_conv" in leaves) == cfg.use_ddc
    assert ("blocks.0.st_att.att_op" in leaves) != cfg.use_involution3d


@pytest.mark.parametrize("flags", [{}, dict(use_ddc=False, use_involution3d=False)],
                         ids=["full", "ablation"])
def test_sharded_forward_keeps_scopes_in_the_caller_and_starts_no_thread_per_call(flags,
                                                                                  monkeypatch):
    # Pool threads run the compiled kernels only, so every tape entry, FLOP and capture of a
    # sharded forward lands in the calling thread's scopes. The ablation
    # model's shared convs shard too.
    cfg = small_config(depth=2, **flags)
    model = DDCN(cfg, (8, 8), seed=6)
    shape = (4, 4, 2, 8, 8)
    x = Tensor(RNG(13).uniform(0, 1, shape).astype(np.float32))
    pool_size = ops._POOL_SIZE

    def run(count):
        monkeypatch.setattr(ops, "_SHARD_MIN_MACS", 0)
        monkeypatch.setattr(ops, "_POOL_SIZE", count)
        with Tape() as tape, FlopCounter() as counter, Capture(model) as cap:
            out = model(x)
        paths = [(path, len(outs)) for path, outs in cap.outputs.items()]
        return out.data.view(np.uint32), len(tape), counter.flops, paths

    serial, sharded = run(1), run(2)
    assert np.array_equal(sharded[0], serial[0])
    assert sharded[1:] == serial[1:]
    assert sharded[2] == cost_report(cfg, shape).total_flops

    ran_on = set()
    run_shards = ops._run_shards

    def spy(fn, jobs):
        def shard(*job):
            ran_on.add(threading.current_thread())
            fn(*job)

        run_shards(shard, jobs)

    def pool_threads():
        return {t for t in threading.enumerate() if t.name.startswith("ddcn-conv")}

    monkeypatch.setattr(ops, "_run_shards", spy)
    others = threading.active_count() - len(pool_threads())
    for _ in range(50):
        model(x)
    # Shards run on the calling thread and the pool's, which starts its
    # threads lazily, up to its size, and then reuses them.
    assert ran_on - {threading.current_thread()} <= pool_threads()
    assert ran_on & pool_threads()
    assert len(pool_threads()) <= pool_size
    assert threading.active_count() - len(pool_threads()) == others


@pytest.mark.parametrize("flags", [{}, dict(use_ddc=False, use_involution3d=False)],
                         ids=["full", "ablation"])
def test_model_hands_the_kernels_contiguous_arrays_and_copies_none(flags, monkeypatch):
    # The compiled kernels read aligned, C-contiguous arrays and copy any
    # other (ops._c_array). Every array a taped forward, its backward and a
    # predict hand them already is one, so no layer pays a copy per call.
    copies, fed = [], []
    c_array, compiled_shards = ops._c_array, ops._compiled_shards

    def c_array_spy(a, dtype=None):
        out = c_array(a, dtype)
        if out is not a:
            copies.append(a.shape)
        return out

    def compiled_shards_spy(name, macs, geom, *arrays, **rows):
        fed.extend((name, a.flags.c_contiguous and a.flags.aligned)
                   for a in arrays if a is not None)
        compiled_shards(name, macs, geom, *arrays, **rows)

    monkeypatch.setattr(ops, "_c_array", c_array_spy)
    monkeypatch.setattr(ops, "_compiled_shards", compiled_shards_spy)
    model = DDCN(small_config(depth=2, **flags), (8, 8), seed=7)
    rng = RNG(14)
    x = rng.uniform(0, 1, (2, 4, 2, 8, 8)).astype(np.float32)
    y = Tensor(rng.uniform(0, 1, (2, 2, 8, 8)).astype(np.float32))
    with Tape() as tape:
        loss = l1_loss(model(Tensor(x)), y)
    backward(loss, tape)
    model.predict(x)
    assert copies == []
    assert fed and all(ok for _, ok in fed)
    fixed = {"contract", "contract_wgrad"}
    dynamic = {"ddc", "ddc_vjp", "involution", "involution_vjp"}
    assert {name for name, _ in fed} == fixed | (set() if flags else dynamic)


def test_construction_deterministic_per_seed():
    a = DDCN(small_config(), (8, 8), seed=9)
    b = DDCN(small_config(), (8, 8), seed=9)
    for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


def test_model_gradcheck_single_instance():
    from ddcn.train import gradcheck_model

    report = gradcheck_model(instances=1, seed=11)
    assert report.passed
    assert max(r.max_rel_err for r in report.results) < 1e-4
