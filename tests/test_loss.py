import numpy as np
import pytest

from gyrodenoise import autodiff as ad
from gyrodenoise import data, imu, loss, network, so3


def random_rotations(rng, n):
    v = rng.normal(size=(n, 3))
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    v = v * rng.uniform(0, np.pi - 0.1, size=(n, 1))
    return so3.exp_so3(v)


# -- tree reduction ----------------------------------------------------------------

def test_tree_matches_sequential_products():
    rng = np.random.default_rng(0)
    for j in (2, 4, 8, 16, 32, 64):
        for _ in range(20):
            incs = random_rotations(rng, 2 * j)
            tree = loss.tree_products(incs, j)
            for b in range(2):
                ref = so3.sequential_product(incs[b * j:(b + 1) * j])
                assert np.max(np.abs(tree[b] - ref)) < 1e-12


def test_tree_stage_counts():
    rng = np.random.default_rng(1)
    for j, n_stages in ((8, 3), (16, 4), (32, 5)):
        stages = []
        loss.tree_products(random_rotations(rng, 4 * j), j, stages_out=stages)
        assert len(stages) == n_stages
        assert stages == [4 * j // 2 ** (s + 1) for s in range(n_stages)]


def test_tree_on_tensor_matches_numpy():
    rng = np.random.default_rng(2)
    incs = random_rotations(rng, 64)
    a = loss.tree_products(incs, 16)
    b = loss.tree_products(ad.Tensor(incs, requires_grad=True), 16)
    np.testing.assert_array_equal(a, b.data)


def test_tree_rejects_bad_shapes():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="power of two"):
        loss.tree_products(random_rotations(rng, 12), 12)
    with pytest.raises(ValueError, match="divisible"):
        loss.tree_products(random_rotations(rng, 12), 8)


@pytest.mark.parametrize("delta", [-0.01, 0.0, -0.0, np.nan, np.inf])
def test_loss_config_refuses_a_huber_delta_not_finite_and_positive(delta):
    with pytest.raises(ValueError, match="loss.huber_delta .*: must be "
                                         "finite and positive"):
        loss.LossConfig(huber_delta=delta)


# -- increment loss ----------------------------------------------------------------

def test_increment_loss_zero_for_perfect_prediction():
    rng = np.random.default_rng(4)
    rots = random_rotations(rng, 10) * 1.0
    # keep residual angles inside the log node's domain
    rots = so3.exp_so3(rng.normal(scale=0.3, size=(10, 3)))
    val = loss.increment_loss(ad.Tensor(rots), rots, huber_delta=0.005,
                              valid=np.ones(10, bool))
    assert abs(val.data) < 1e-20


def test_increment_loss_huber_branches():
    delta = 0.005
    # one window, residual rotation about x by a known small angle
    for angle, expected in ((0.004, 0.5 * 0.004 ** 2),
                            (0.1, delta * (0.1 - 0.5 * delta))):
        gt = so3.exp_so3(np.array([[angle, 0.0, 0.0]]))
        pred = ad.Tensor(np.eye(3)[None])
        val = loss.increment_loss(pred, gt, huber_delta=delta,
                                  valid=np.ones(1, bool))
        assert abs(val.data - expected) < 1e-12 * max(1.0, expected / 1e-6)


def test_increment_loss_masks_invalid_windows():
    delta = 0.005
    gt = np.stack([so3.exp_so3(np.array([0.1, 0, 0])), np.eye(3)])
    pred = ad.Tensor(np.tile(np.eye(3), (2, 1, 1)))
    full = loss.increment_loss(pred, gt, delta, valid=np.ones(2, bool))
    masked = loss.increment_loss(pred, gt, delta, valid=np.array([False, True]))
    assert abs(masked.data) < 1e-20
    assert full.data > 0
    with pytest.raises(ValueError, match="no valid"):
        loss.increment_loss(pred, gt, delta, valid=np.array([False, False]))


# -- batches over synthetic scenes ---------------------------------------------------

def make_scene(duration=8.0, seed=0, calib=None):
    spec = imu.SyntheticScene(duration=duration, rate=200.0)
    scene = imu.generate_scene(spec, calib or imu.CalibParams(), seed=seed)
    seq = data.ImuSequence(scene["imu_t_ns"], scene["gyro"], scene["acc"])
    gt = data.GroundTruth(scene["imu_t_ns"], scene["rot"][:-1],
                          scene["pos"][:-1])
    return scene, seq, data.align_ground_truth(seq, gt)


def test_make_batch_alignment():
    _, seq, gt = make_scene()
    cfg = network.NetConfig()
    lcfg = loss.LossConfig()
    batch = loss.make_batch(seq, gt, [0, 32, 640], 608, cfg, lcfg)
    assert batch.x.shape == (3, 6, 608)
    assert batch.sup_offset == 512 - cfg.receptive_field
    assert batch.sup_len == 96
    assert batch.gt[32].shape == (3, 3, 3, 3)
    assert batch.gt[16].shape == (3, 6, 3, 3)
    assert batch.valid[16].all()
    with pytest.raises(ValueError, match="aligned"):
        loss.make_batch(seq, gt, [16], 608, cfg, lcfg)
    with pytest.raises(ValueError, match="too short"):
        loss.make_batch(seq, gt, [0], 512, cfg, lcfg)


def test_make_batch_masks_gaps():
    _, seq, gt = make_scene()
    gaps = np.zeros(len(gt), dtype=bool)
    gaps[560:580] = True
    gt_gap = data.GroundTruth(gt.t, gt.rot, gt.pos, gaps)
    batch = loss.make_batch(seq, gt_gap, [0], 608, network.NetConfig(),
                            loss.LossConfig())
    # blocks at 512..543 and 544..575 and 576..607 overlap samples 560..579
    assert not batch.valid[32][0, 1]
    assert not batch.valid[32][0, 2]
    assert batch.valid[32][0, 0]


def test_untrained_total_loss_matches_raw_gyro_reference():
    calib = imu.CalibParams(bias=np.array([0.02, -0.01, 0.015, 0, 0, 0]))
    scene, seq, gt = make_scene(calib=calib)
    ncfg = network.NetConfig()
    lcfg = loss.LossConfig()
    params = network.ModelParams(ncfg, seed=0)
    starts = [0, 64]
    batch = loss.make_batch(seq, gt, starts, 608, ncfg, lcfg)
    got = loss.total_loss(params, batch, lcfg).data

    # untrained model passes the raw gyro through unchanged
    expected = 0.0
    for j in lcfg.js:
        residual_penalties = []
        for bi, s in enumerate(starts):
            for w in range(batch.sup_len // j):
                i0 = s + 512 + w * j
                pred = so3.integrate_increments(
                    np.eye(3), seq.gyro[i0:i0 + j], seq.dt)[-1]
                res = so3.log_so3(batch.gt[j][bi, w] @ pred.T)
                h = np.where(np.abs(res) <= lcfg.huber_delta,
                             0.5 * res ** 2,
                             lcfg.huber_delta * (np.abs(res)
                                                 - 0.5 * lcfg.huber_delta))
                residual_penalties.append(h.sum())
        expected += np.mean(residual_penalties)
    assert abs(got - expected) < 1e-12


def test_untrained_loss_uses_the_data_sample_period():
    # on a noise-free 100 Hz scene the untrained model passes the true rates
    # through, so its increments match the ground truth only when integrated
    # over the data's 0.01 s period
    spec = imu.SyntheticScene(duration=8.0, rate=100.0)
    scene = imu.generate_scene(spec, imu.CalibParams(), seed=0)
    seq = data.ImuSequence(scene["imu_t_ns"], scene["gyro"], scene["acc"])
    gt = data.align_ground_truth(seq, data.GroundTruth(
        scene["imu_t_ns"], scene["rot"][:-1], scene["pos"][:-1]))
    ncfg = network.NetConfig()
    lcfg = loss.LossConfig()
    params = network.ModelParams(ncfg, seed=0)
    batch = loss.make_batch(seq, gt, [0, 64], 608, ncfg, lcfg)
    assert loss.total_loss(params, batch, lcfg).data < 1e-20
    assert batch.dt == seq.dt == 0.01


def test_total_loss_left_invariance():
    scene, seq, gt = make_scene()
    ncfg = network.NetConfig()
    lcfg = loss.LossConfig()
    params = network.ModelParams(ncfg, seed=0)
    batch = loss.make_batch(seq, gt, [0, 32], 608, ncfg, lcfg)
    base = loss.total_loss(params, batch, lcfg).data

    rng = np.random.default_rng(5)
    d = so3.exp_so3(rng.normal(size=3))
    gt_rot = data.GroundTruth(gt.t, d @ gt.rot, gt.pos, gt.gap_mask)
    batch2 = loss.make_batch(seq, gt_rot, [0, 32], 608, ncfg, lcfg)
    rotated = loss.total_loss(params, batch2, lcfg).data
    assert abs(base - rotated) < 1e-12


# -- gradients ----------------------------------------------------------------------

def small_setup():
    ncfg = network.NetConfig(kernel_sizes=(3, 3, 1), dilations=(1, 2, 1),
                             channels=(6, 4, 4, 3), dropout=0.0)
    lcfg = loss.LossConfig(js=(2, 4))
    calib = imu.CalibParams(bias=np.array([0.05, -0.03, 0.02, 0, 0, 0]))
    spec = imu.SyntheticScene(duration=0.25, rate=200.0)
    scene = imu.generate_scene(spec, calib, seed=6)
    seq = data.ImuSequence(scene["imu_t_ns"], scene["gyro"], scene["acc"])
    gt = data.align_ground_truth(
        seq, data.GroundTruth(scene["imu_t_ns"], scene["rot"][:-1],
                              scene["pos"][:-1]))
    params = network.ModelParams(ncfg, seed=7)
    # nonzero final layer and perturbed calibration so every path is active
    rng = np.random.default_rng(8)
    params.conv_w[-1].data = 0.1 * rng.normal(size=params.conv_w[-1].data.shape)
    params.conv_b[-1].data = 0.05 * rng.normal(size=3)
    params.c_omega.data = np.eye(3) + 0.02 * rng.normal(size=(3, 3))
    batch = loss.make_batch(seq, gt, [0, 4], 24, ncfg, lcfg)
    return params, batch, lcfg


def test_total_loss_gradients_match_finite_differences():
    params, batch, lcfg = small_setup()

    def f():
        return loss.total_loss(params, batch, lcfg, training=True).data

    params.zero_grad()
    out = loss.total_loss(params, batch, lcfg, training=True)
    out.backward()

    eps = 1e-6
    for name, tensor in params.trainable():
        flat = tensor.data.ravel()
        grad = tensor.grad.ravel() if tensor.grad is not None else np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            fd = (hi - lo) / (2 * eps)
            scale = max(abs(fd), abs(grad[i]), 1e-6)
            assert abs(fd - grad[i]) / scale < 1e-4, (
                f"{name}[{i}]: fd={fd}, analytic={grad[i]}"
            )


def test_total_loss_decreases_along_negative_gradient():
    params, batch, lcfg = small_setup()
    params.zero_grad()
    out = loss.total_loss(params, batch, lcfg, training=True)
    out.backward()
    before = out.data
    for _, t in params.trainable():
        if t.grad is not None:
            t.data -= 0.05 * t.grad
    after = loss.total_loss(params, batch, lcfg, training=True).data
    assert after < before
