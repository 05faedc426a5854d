"""Metric formulas, masking semantics, and error-map export."""

import math

import numpy as np
import pytest

from ddcn.metrics import (
    compute_metrics,
    error_map,
    load_error_map_pgm,
    save_error_map_csv,
    save_error_map_pgm,
)
from oracles import metrics_oracle


def test_identical_inputs_are_zero():
    x = np.random.default_rng(0).uniform(1, 5, (3, 4, 4))
    rep = compute_metrics(x, x)
    assert (rep.rmse, rep.mae, rep.mape) == (0.0, 0.0, 0.0)


def test_hand_case():
    rep = compute_metrics(np.array([3.0]), np.array([1.0]))
    assert rep.rmse == 2.0
    assert rep.mae == 2.0
    assert rep.mape == 200.0
    assert rep.n_evaluated == 1 and rep.n_masked == 0


def test_matches_scalar_loop_oracle():
    rng = np.random.default_rng(1)
    pred = rng.uniform(-5, 5, 1000)
    actual = rng.uniform(-5, 5, 1000)
    actual[rng.integers(0, 1000, 50)] = 0.0
    rep = compute_metrics(pred, actual, mask_threshold=1e-6)
    rmse, mae, mape, n_eval, n_masked = metrics_oracle(pred, actual, 1e-6)
    assert abs(rep.rmse - rmse) < 1e-9
    assert abs(rep.mae - mae) < 1e-9
    assert abs(rep.mape - mape) < 1e-9
    assert rep.n_evaluated == n_eval and rep.n_masked == n_masked


def test_rmse_at_least_mae_property():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(1, 64))
        pred = rng.normal(0, rng.uniform(0.1, 5), n)
        actual = rng.normal(0, rng.uniform(0.1, 5), n)
        rep = compute_metrics(pred, actual)
        assert rep.rmse >= rep.mae >= 0.0


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    pred = rng.uniform(0, 5, 256)
    actual = rng.uniform(0, 5, 256)
    perm = rng.permutation(256)
    a = compute_metrics(pred, actual)
    b = compute_metrics(pred[perm], actual[perm])
    # Invariant up to summation-order rounding.
    assert math.isclose(a.rmse, b.rmse, rel_tol=1e-12)
    assert math.isclose(a.mae, b.mae, rel_tol=1e-12)
    assert math.isclose(a.mape, b.mape, rel_tol=1e-12)


def test_mask_count_exact():
    actual = np.array([0.0, 1e-7, 2.0, -3.0, 1e-5])
    rep = compute_metrics(np.ones(5), actual, mask_threshold=1e-6)
    assert rep.n_masked == int(np.sum(np.abs(actual) <= 1e-6))
    assert rep.n_evaluated + rep.n_masked == 5


def test_all_masked_mape_undefined_marker():
    rep = compute_metrics(np.ones(4), np.zeros(4))
    assert math.isnan(rep.mape)
    assert rep.to_dict()["mape"] is None
    assert "undefined" in rep.format()


def test_error_map_identity_all_black(tmp_path):
    x = np.random.default_rng(4).uniform(0, 5, (2, 4, 3))
    emap = error_map(x, x)
    assert np.all(emap == 0.0)
    pgm = tmp_path / "zero.pgm"
    save_error_map_pgm(emap, pgm)
    pixels, _ = load_error_map_pgm(pgm)
    assert np.all(pixels == 0)


def test_error_map_sums_channels_and_scales_to_255(tmp_path):
    pred = np.zeros((2, 3, 4))
    actual = np.zeros((2, 3, 4))
    pred[0, 1, 2] = 3.0
    pred[1, 1, 2] = 2.0
    emap = error_map(pred, actual)
    assert emap[1, 2] == 5.0
    assert np.count_nonzero(emap) == 1
    pgm = tmp_path / "one.pgm"
    save_error_map_pgm(emap, pgm)
    pixels, _ = load_error_map_pgm(pgm)
    assert pixels[1, 2] == 255
    assert np.count_nonzero(pixels) == 1


@pytest.mark.parametrize("height", [255, 1255])
def test_pgm_round_trip_at_heights_that_spell_the_maxval(tmp_path, height):
    emap = np.random.default_rng(height).uniform(0, 1, (height, 3))
    pgm = tmp_path / "tall.pgm"
    save_error_map_pgm(emap, pgm)
    pixels, maxval = load_error_map_pgm(pgm)
    assert maxval == 255
    assert np.array_equal(pixels, np.rint(emap * (255.0 / emap.max())).astype(np.uint8))


def test_pgm_short_pixel_data_rejected(tmp_path):
    pgm = tmp_path / "short.pgm"
    save_error_map_pgm(np.ones((4, 5)), pgm)
    pgm.write_bytes(pgm.read_bytes()[:-1])
    with pytest.raises(ValueError, match="19 pixel bytes"):
        load_error_map_pgm(pgm)


def test_csv_and_pgm_agree_within_quantization(tmp_path):
    rng = np.random.default_rng(5)
    pred = rng.uniform(0, 10, (2, 5, 6))
    actual = rng.uniform(0, 10, (2, 5, 6))
    emap = error_map(pred, actual)
    csv_path = tmp_path / "map.csv"
    pgm_path = tmp_path / "map.pgm"
    save_error_map_csv(emap, csv_path)
    save_error_map_pgm(emap, pgm_path)
    csv_values = np.loadtxt(csv_path, delimiter=",")
    pixels, maxval = load_error_map_pgm(pgm_path)
    restored = pixels.astype(np.float64) * (emap.max() / maxval)
    assert csv_values.shape == restored.shape
    assert np.max(np.abs(csv_values - restored)) <= emap.max() / 255.0 + 1e-12


def test_shape_mismatch_rejected():
    from ddcn.numerics import ShapeError

    with pytest.raises(ShapeError):
        compute_metrics(np.zeros(3), np.zeros(4))
    with pytest.raises(ShapeError):
        error_map(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))
