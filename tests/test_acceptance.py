"""End-to-end acceptance suite.

Each test states its bound explicitly and prints a one-line verdict so the
suite doubles as a scorecard. The EuRoC reproduction test is skipped unless
the dataset has been downloaded (it cannot run offline).
"""

import os

import numpy as np
import pytest

from gyrodenoise import (autodiff as ad, data, evaluator, imu, loss, network,
                         so3, trainer)


def verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# 1 -- parameter count -------------------------------------------------------------

def test_1_parameter_count():
    params = network.ModelParams()
    total = network.count_params(params)
    parts = network.count_breakdown(params)
    ok = (total == 77_052 and parts["conv"] == 76_563
          and parts["batchnorm"] == 480 and parts["calibration"] == 9)
    verdict("parameter count", ok,
            f"total={total}, breakdown={parts} (expected 77,052 = "
            f"76,563 + 480 + 9)")


# 2 -- tree reduction --------------------------------------------------------------

def test_2_tree_reduction_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for j, n_stages in ((8, 3), (16, 4), (32, 5)):
        for _ in range(1000):
            v = rng.normal(size=(j, 3))
            v *= rng.uniform(0, np.pi - 0.1, size=(j, 1)) / np.linalg.norm(
                v, axis=-1, keepdims=True)
            incs = so3.exp_so3(v)
            stages = []
            tree = loss.tree_products(incs, j, stages_out=stages)
            assert len(stages) == n_stages
            ref = so3.sequential_product(incs)
            worst = max(worst, float(np.max(np.abs(tree[0] - ref))))
    verdict("tree reduction", worst < 1e-12,
            f"max |tree - sequential| = {worst:.2e} over 3000 sequences "
            f"(bound 1e-12), stage counts 3/4/5 for j=8/16/32")


# 3 -- gradient integrity ----------------------------------------------------------

def test_3_gradients_match_finite_differences():
    # default kernel sizes and dilations (receptive field 510, T=600 gives
    # two supervised blocks); channel widths narrowed so every parameter
    # can be probed by central differences within the runtime budget
    ncfg = network.NetConfig(channels=(6, 4, 4, 4, 4, 3), dropout=0.0)
    lcfg = loss.LossConfig()
    calib = imu.CalibParams(bias=np.array([0.05, -0.03, 0.02, 0, 0, 0]))
    spec = imu.SyntheticScene(duration=7.0, rate=200.0)
    scene = imu.generate_scene(spec, calib, seed=3)
    seq = data.ImuSequence(scene["imu_t_ns"], scene["gyro"], scene["acc"])
    gt = data.align_ground_truth(
        seq, data.GroundTruth(scene["imu_t_ns"], scene["rot"][:-1],
                              scene["pos"][:-1]))
    params = network.ModelParams(ncfg, seed=4)
    rng = np.random.default_rng(5)
    params.conv_w[-1].data = 0.1 * rng.normal(size=params.conv_w[-1].data.shape)
    params.conv_b[-1].data = 0.05 * rng.normal(size=3)
    params.c_omega.data = np.eye(3) + 0.02 * rng.normal(size=(3, 3))
    batch = loss.make_batch(seq, gt, [0, 32], 600, ncfg, lcfg)
    assert batch.x.shape[0] == 2 and batch.x.shape[2] == 600

    params.zero_grad()
    loss.total_loss(params, batch, lcfg, training=True).backward()

    def f():
        return loss.total_loss(params, batch, lcfg, training=True).data

    eps = 1e-6
    worst = 0.0
    n_checked = 0
    for name, tensor in params.trainable():
        flat = tensor.data.ravel()
        grad = (tensor.grad.ravel() if tensor.grad is not None
                else np.zeros_like(flat))
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f()
            flat[i] = orig - eps
            lo = f()
            flat[i] = orig
            fd = (hi - lo) / (2 * eps)
            rel = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6)
            worst = max(worst, rel)
            n_checked += 1
            assert rel < 1e-4, f"{name}[{i}]: fd={fd}, analytic={grad[i]}"
    verdict("gradient integrity", worst < 1e-4,
            f"worst relative error {worst:.2e} over all {n_checked} "
            f"parameters (bound 1e-4)")


# 4 -- SO(3) roundtrip -------------------------------------------------------------

def test_4_exp_log_roundtrip():
    rng = np.random.default_rng(4)
    n = 10_000
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    mags = rng.uniform(0.0, np.pi - 0.05, size=n)
    mags[:500] = rng.uniform(1e-9, 1e-7, size=500)          # near-zero branch
    mags[500:1000] = rng.uniform(np.pi - 0.06, np.pi - 0.05,
                                 size=500)                  # near-pi branch
    v = axes * mags[:, None]
    back = so3.log_so3(so3.exp_so3(v))
    worst = float(np.max(np.linalg.norm(back - v, axis=-1)))
    verdict("exp/log roundtrip", worst < 1e-8,
            f"max |log(exp(v)) - v| = {worst:.2e} over {n} vectors "
            f"(bound 1e-8)")


# 5 -- loss left-invariance --------------------------------------------------------

def test_5_loss_left_invariance():
    spec = imu.SyntheticScene(duration=8.0, rate=200.0)
    scene = imu.generate_scene(spec, imu.CalibParams(
        bias=np.array([0.02, -0.01, 0.01, 0, 0, 0])), seed=5)
    seq = data.ImuSequence(scene["imu_t_ns"], scene["gyro"], scene["acc"])
    gt = data.align_ground_truth(
        seq, data.GroundTruth(scene["imu_t_ns"], scene["rot"][:-1],
                              scene["pos"][:-1]))
    ncfg = network.NetConfig()
    lcfg = loss.LossConfig()
    params = network.ModelParams(ncfg, seed=6)
    rng = np.random.default_rng(7)
    params.conv_w[-1].data = 0.01 * rng.normal(size=params.conv_w[-1].data.shape)

    base = loss.total_loss(params, loss.make_batch(seq, gt, [0, 32], 608,
                                                   ncfg, lcfg), lcfg).data
    d = so3.exp_so3(rng.normal(size=3))
    gt_rot = data.GroundTruth(gt.t, d @ gt.rot, gt.pos, gt.gap_mask)
    rotated = loss.total_loss(params, loss.make_batch(seq, gt_rot, [0, 32],
                                                      608, ncfg, lcfg),
                              lcfg).data
    diff = abs(base - rotated)
    verdict("loss left-invariance", diff < 1e-12,
            f"|loss - rotated loss| = {diff:.2e} (bound 1e-12)")


# 6 -- calibration recovery --------------------------------------------------------

def test_6_calibration_recovery():
    rng = np.random.default_rng(42)
    c_true = np.eye(3) + rng.uniform(-0.05, 0.05, size=(3, 3))
    bias = np.array([0.02, -0.015, 0.01, 0.0, 0.0, 0.0])
    calib = imu.CalibParams(C_omega=c_true, bias=bias)
    spec = imu.SyntheticScene(duration=60.0, rate=200.0)
    scene = imu.generate_scene(spec, calib, seed=11)
    seq = data.ImuSequence(scene["imu_t_ns"], scene["gyro"], scene["acc"])
    gt = data.align_ground_truth(
        seq, data.GroundTruth(scene["imu_t_ns"], scene["rot"][:-1],
                              scene["pos"][:-1]))

    params = network.ModelParams(network.NetConfig(dropout=0.0), seed=0)
    tcfg = trainer.TrainConfig(epochs=300, restart_period=100,
                               weight_decay=0.0, augment_std=0.0, seed=0,
                               val_every=25)
    res = trainer.fit([(seq, gt)], None, params, tcfg, loss.LossConfig(),
                      zero_input=True)
    c_rec, b_rec = trainer.recovered_calibration(res.best_params)
    c_err = np.linalg.norm(c_rec - c_true) / np.linalg.norm(c_true)
    b_err = np.linalg.norm(b_rec - bias[:3]) / np.linalg.norm(bias[:3])

    aoe_raw = evaluator.aoe(
        gt.rot, evaluator.estimate_attitudes("raw", seq, gt))[0]
    aoe_cal = evaluator.aoe(
        gt.rot, evaluator.estimate_attitudes("calibrated", seq, gt,
                                             res.best_params))[0]
    ok = c_err < 0.01 and b_err < 0.01 and aoe_raw >= 10 * aoe_cal
    verdict("calibration recovery", ok,
            f"C rel err {c_err:.2e}, bias rel err {b_err:.2e} (bounds 1%); "
            f"AOE raw {aoe_raw:.2f} deg vs calibrated {aoe_cal:.4f} deg "
            f"(ratio {aoe_raw / aoe_cal:.0f}x, bound 10x)")


# 7 -- denoising improvement -------------------------------------------------------

def test_7_denoising_beats_calibration():
    # a scene dominated by strong colored gyro noise, with a constant bias
    # and a slow bias random walk on top; a static calibration cannot filter
    # the noise, the network can
    calib = imu.CalibParams(
        noise_std=np.array([0.3, 0.3, 0.3, 0.1, 0.1, 0.1]),
        noise_color=0.3,
        bias=np.array([0.01, -0.008, 0.012, 0, 0, 0]),
    )
    spec = imu.SyntheticScene(duration=120.0, rate=200.0,
                              bias_walk_std=np.array([0.0005] * 3 + [0.0] * 3))
    scene = imu.generate_scene(spec, calib, seed=21)
    seq = data.ImuSequence(scene["imu_t_ns"], scene["gyro"], scene["acc"])
    gt_all = data.align_ground_truth(
        seq, data.GroundTruth(scene["imu_t_ns"], scene["rot"][:-1],
                              scene["pos"][:-1]))

    def cut(a, b):
        return (seq.window(a, b),
                data.GroundTruth(gt_all.t[a:b], gt_all.rot[a:b],
                                 gt_all.pos[a:b], gt_all.gap_mask[a:b]))

    train_pair, val_pair = cut(0, 14_000), cut(14_000, 18_000)
    test_seq, test_gt = cut(18_000, 24_000)

    def roe_median(method, params):
        est = evaluator.estimate_attitudes(method, test_seq, test_gt, params)
        samples = evaluator.roe(test_gt, est, distances=(7.0,))[7.0]
        return float(np.median(samples.error_3d))

    # static-calibration baseline: zeroed-input fit of C and the bias
    cal_params = network.ModelParams(network.NetConfig(dropout=0.0), seed=0)
    cal_cfg = trainer.TrainConfig(epochs=80, restart_period=80,
                                  weight_decay=0.0, augment_std=0.0, seed=0,
                                  val_every=20)
    cal_res = trainer.fit([train_pair], [val_pair], cal_params, cal_cfg,
                          loss.LossConfig(), zero_input=True)
    cal_roe = roe_median("calibrated", cal_res.best_params)

    params = network.ModelParams(network.NetConfig(dropout=0.1), seed=0)
    tcfg = trainer.TrainConfig(epochs=40, restart_period=40,
                               weight_decay=0.1, seed=0, val_every=20)
    res = trainer.fit([train_pair], [val_pair], params, tcfg,
                      loss.LossConfig())
    prop_roe = roe_median("proposed", res.best_params)

    meds = {"calibrated": cal_roe, "proposed": prop_roe}
    ratio = meds["proposed"] / meds["calibrated"]
    verdict("denoising improvement", ratio <= 0.70,
            f"median 3D ROE (7 m): proposed {meds['proposed']:.3f} deg vs "
            f"calibrated {meds['calibrated']:.3f} deg "
            f"({(1 - ratio) * 100:.0f}% lower, bound 30%)")


# 8 -- dataset-scale reproduction --------------------------------------------------

EUROC_ROOT = os.environ.get("GYRODENOISE_EUROC", "data/euroc")


@pytest.mark.skipif(not os.path.isdir(EUROC_ROOT),
                    reason="EuRoC dataset not downloaded (set "
                           "GYRODENOISE_EUROC to its root to enable)")
def test_8_euroc_reproduction():
    from gyrodenoise import cli

    cfg = data.parse_config("configs/euroc.cfg")
    cfg["data_root"] = EUROC_ROOT
    dataset = cli._load_split(cfg)
    tcfg = trainer.TrainConfig(
        epochs=int(os.environ.get("GYRODENOISE_EUROC_EPOCHS", "1800")))
    pairs = lambda role: [(s, g) for _, s, g in dataset[role]]
    res = trainer.fit(pairs("train"), pairs("val"),
                      network.ModelParams(seed=tcfg.seed), tcfg,
                      loss.LossConfig())
    aoes = {m: [] for m in ("raw", "calibrated", "proposed")}
    for _, seq, gt in dataset["test"]:
        good = ~gt.gap_mask
        for m in aoes:
            est = evaluator.estimate_attitudes(m, seq, gt, res.best_params)
            aoes[m].append(evaluator.aoe(gt.rot[good], est[good]))
    mean3 = {m: float(np.mean([a for a, _ in v])) for m, v in aoes.items()}
    meany = {m: float(np.mean([y for _, y in v])) for m, v in aoes.items()}
    ok = (mean3["proposed"] <= 2 * 2.10 and meany["proposed"] <= 2 * 0.96
          and mean3["raw"] > mean3["calibrated"] > mean3["proposed"])
    verdict("dataset reproduction", ok,
            f"AOE 3d/yaw: proposed {mean3['proposed']:.2f}/"
            f"{meany['proposed']:.2f} deg (bounds 4.20/1.92), "
            f"raw {mean3['raw']:.2f}, calibrated {mean3['calibrated']:.2f}")


# 9 -- determinism -----------------------------------------------------------------

def test_9_training_determinism(tmp_path):
    from gyrodenoise import cli

    assert cli.main(["synth", "--duration", "20", "--rate", "200",
                     "--seed", "9", "--gyro-bias", "0.02,0,0",
                     "--noise-std", "0.05,0.05,0.05,0.1,0.1,0.1",
                     "--out", str(tmp_path / "scene")]) == 0
    outputs = []
    for name in ("r1", "r2"):
        code = cli.main([
            "train", "--imu", str(tmp_path / "scene" / "imu.csv"),
            "--gt", str(tmp_path / "scene" / "gt.csv"),
            "--out", str(tmp_path / name), "--epochs", "3",
            "--window-len", "640", "--val-every", "1", "--seed", "13",
            "--quiet",
        ])
        assert code == 0
        outputs.append((
            (tmp_path / name / "metrics.csv").read_bytes(),
            (tmp_path / name / "checkpoint.json").read_bytes(),
        ))
    ok = outputs[0] == outputs[1]
    verdict("training determinism", ok,
            "two runs produced bit-identical metrics logs and checkpoints"
            if ok else "runs differ")
