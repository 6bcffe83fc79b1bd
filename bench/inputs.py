"""Seeded benchmark inputs, built through the library's own public API.

Each workload gets a synthetic scene written as IMU and ground-truth CSV
files; `evaluate` also gets a checkpoint. The same seed gives byte-identical
files. The program under test only ever sees these files.
"""

from __future__ import annotations

import os

import numpy as np

from gyrodenoise import data, imu, loss, network, trainer

RATE = 200.0
VAL_FRAC = 0.2          # the train/calibrate CLI default
WINDOW = 1792           # TrainConfig.window_len default
BATCH = 6               # TrainConfig.windows_per_batch default
# 70 s: the leading 80 % holds 11,200 samples, exactly 6 windows of 1792, so
# every epoch is one optimizer step at the default B=6 (no folded batch) and
# validation gets one window.
FIT_DURATION = 70.0
EVAL_DURATION = 60.0    # 12,000 samples


def _scene(workload, seed):
    rng = np.random.default_rng([seed, 7])
    if workload == "train":
        # the denoising regime: strong colored gyro noise, a constant bias
        # and a slow bias random walk
        calib = imu.CalibParams(
            noise_std=np.array([0.3, 0.3, 0.3, 0.1, 0.1, 0.1]),
            noise_color=0.3,
            bias=np.array([0.03, -0.024, 0.036, 0, 0, 0]),
        )
        spec = imu.SyntheticScene(
            duration=FIT_DURATION, rate=RATE,
            bias_walk_std=np.array([0.0005] * 3 + [0.0] * 3))
    elif workload == "calibrate":
        # injected misalignment/scale and gyro bias, noise-free
        calib = imu.CalibParams(
            C_omega=np.eye(3) + rng.uniform(-0.05, 0.05, size=(3, 3)),
            bias=np.array([0.02, -0.015, 0.01, 0, 0, 0]),
        )
        spec = imu.SyntheticScene(duration=FIT_DURATION, rate=RATE)
    elif workload == "evaluate":
        calib = imu.CalibParams(
            C_omega=np.eye(3) + rng.uniform(-0.02, 0.02, size=(3, 3)),
            bias=np.array([0.01, -0.008, 0.012, 0, 0, 0]),
            noise_std=np.array([0.01, 0.01, 0.01, 0.05, 0.05, 0.05]),
        )
        spec = imu.SyntheticScene(duration=EVAL_DURATION, rate=RATE)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return imu.generate_scene(spec, calib, seed=seed)


def _checkpoint(path, scene, seed):
    """A seeded model with a non-zero final layer.

    An untrained model has a zeroed final layer, which would make the
    `proposed` method identical to `raw`.
    """
    params = network.ModelParams(network.NetConfig(), seed=seed)
    cols = np.concatenate([scene["gyro"], scene["acc"]], axis=1)
    params.set_input_stats(cols.mean(axis=0), cols.std(axis=0))
    rng = np.random.default_rng([seed, 11])
    last_w, last_b = params.conv_w[-1], params.conv_b[-1]
    last_w.data = rng.normal(0.0, 1e-3, size=last_w.shape)
    last_b.data = rng.normal(0.0, 1e-3, size=last_b.shape)
    network.save_checkpoint(path, params, extra={"epoch": 0,
                                                 "zero_input": False})


def write_inputs(workload, seed, outdir):
    """Write the workload's input files; return (paths, scene)."""
    os.makedirs(outdir, exist_ok=True)
    scene = _scene(workload, seed)
    paths = {"imu": os.path.join(outdir, "imu.csv"),
             "gt": os.path.join(outdir, "gt.csv")}
    data.write_imu_csv(paths["imu"], scene["imu_t_ns"], scene["gyro"],
                       scene["acc"])
    data.write_gt_csv(paths["gt"], scene["gt_t_ns"], scene["rot"],
                      scene["pos"])
    if workload == "evaluate":
        paths["checkpoint"] = os.path.join(outdir, "checkpoint.json")
        _checkpoint(paths["checkpoint"], scene, seed)
    else:
        n_train = int(len(scene["gyro"]) * (1.0 - VAL_FRAC))
        if n_train // WINDOW != BATCH:
            raise AssertionError("train split is not one batch per epoch")
    return paths, scene


def warm_up(scene):
    """One small training step and one eval-mode integration, untimed by the
    op metrics, so lazy imports and first-touch allocations land in set-up."""
    n = 2048
    seq = data.ImuSequence(scene["imu_t_ns"][:n], scene["gyro"][:n],
                           scene["acc"][:n])
    gt = data.GroundTruth(scene["imu_t_ns"][:n], scene["rot"][:n],
                          scene["pos"][:n])
    params = network.ModelParams(seed=0)
    lcfg = loss.LossConfig()
    batch = loss.make_batch(seq, gt, [0, 640], 640, params.config, lcfg)
    out = loss.total_loss(params, batch, lcfg, training=True,
                          rng=np.random.default_rng(0))
    out.backward()
    trainer.adam_step(params, trainer.AdamState(), 1e-3)
    network.integrate_corrected(params, seq, gt.rot[0])
