import numpy as np
import pytest

from gyrodenoise import imu, so3


def test_corrupt_identity_is_passthrough():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(50, 3))
    a = rng.normal(size=(50, 3))
    gw, ga = imu.corrupt(w, a, imu.CalibParams(), seed=1)
    np.testing.assert_array_equal(gw, w)
    np.testing.assert_array_equal(ga, a)


def test_corrupt_scale_factor_exact():
    calib = imu.CalibParams(C_omega=np.diag([1.01, 1.0, 1.0]))
    w = np.ones((10, 3))
    gw, _ = imu.corrupt(w, np.zeros((10, 3)), calib, seed=0)
    np.testing.assert_array_equal(gw[:, 0], 1.01 * np.ones(10))
    np.testing.assert_array_equal(gw[:, 1:], np.ones((10, 2)))


def test_corrupt_deterministic_under_seed():
    calib = imu.CalibParams(noise_std=np.full(6, 0.01))
    w = np.zeros((100, 3))
    out1 = imu.corrupt(w, w, calib, seed=42)
    out2 = imu.corrupt(w, w, calib, seed=42)
    np.testing.assert_array_equal(out1[0], out2[0])
    np.testing.assert_array_equal(out1[1], out2[1])


def test_corrupt_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        imu.corrupt(np.zeros((3, 3)), np.zeros((4, 3)), imu.CalibParams(), 0)


def test_corrupt_inverse_correction_recovers_truth():
    rng = np.random.default_rng(1)
    calib = imu.CalibParams(
        C_omega=np.eye(3) + 0.03 * rng.normal(size=(3, 3)),
        C_acc=np.eye(3) + 0.03 * rng.normal(size=(3, 3)),
        bias=rng.normal(size=6) * 0.01,
    )
    w = rng.normal(size=(200, 3))
    a = rng.normal(size=(200, 3))
    gw, ga = imu.corrupt(w, a, calib, seed=0)
    w_rec = (gw - calib.bias[:3]) @ np.linalg.inv(calib.C_omega).T
    a_rec = (ga - calib.bias[3:]) @ np.linalg.inv(calib.C_acc).T
    np.testing.assert_allclose(w_rec, w, atol=1e-12)
    np.testing.assert_allclose(a_rec, a, atol=1e-12)


def test_calib_rejects_bad_matrices():
    with pytest.raises(ValueError):
        imu.CalibParams(C_omega=1.5 * np.eye(3))
    with pytest.raises(ValueError):
        imu.CalibParams(noise_std=-np.ones(6))
    with pytest.raises(ValueError, match="near-identity"):
        imu.CalibParams(C_acc=np.full((3, 3), np.nan))


def test_true_acc_stationary_gives_gravity_reaction():
    rots = np.tile(np.eye(3), (11, 1, 1))
    vels = np.zeros((11, 3))
    a = imu.true_acc_from_trajectory(rots, vels, 0.005)
    assert a.shape == (10, 3)
    np.testing.assert_allclose(a, np.tile([0, 0, 9.81], (10, 1)), atol=1e-12)


def test_true_acc_free_fall_is_zero():
    dt = 0.01
    rots = np.tile(np.eye(3), (11, 1, 1))
    vels = np.arange(11)[:, None] * imu.GRAVITY * dt
    a = imu.true_acc_from_trajectory(rots, vels, dt)
    np.testing.assert_allclose(a, 0, atol=1e-9)


def test_true_acc_body_frame_rotation():
    dt = 0.01
    yaw90 = so3.exp_so3([0, 0, np.pi / 2])
    rots = np.tile(yaw90, (3, 1, 1))
    # velocity ramp along global x: dv/dt = [1, 0, 0]
    vels = np.arange(3)[:, None] * np.array([dt, 0, 0])
    a = imu.true_acc_from_trajectory(rots, vels, dt, gravity=np.zeros(3))
    # global x maps to body -y under a 90 deg yaw of the body frame
    np.testing.assert_allclose(a, np.tile([0, -1, 0], (2, 1)), atol=1e-12)


def test_generate_scene_counts_and_determinism():
    spec = imu.SyntheticScene(duration=60.0, rate=200.0)
    out = imu.generate_scene(spec, imu.CalibParams(), seed=7)
    assert len(out["gyro"]) == 12_000
    assert len(out["rot"]) == 12_001
    out2 = imu.generate_scene(spec, imu.CalibParams(), seed=7)
    np.testing.assert_array_equal(out["gyro"], out2["gyro"])
    np.testing.assert_array_equal(out["acc"], out2["acc"])


def test_generate_scene_self_consistent_integration():
    spec = imu.SyntheticScene(duration=10.0, rate=200.0)
    out = imu.generate_scene(spec, imu.CalibParams(), seed=3)
    rots = so3.integrate_increments(np.eye(3), out["true_gyro"], out["dt"])
    err = np.linalg.norm(rots - out["rot"], axis=(1, 2))
    assert np.max(err) < 1e-9


def test_generate_scene_zero_motion_drifts_at_bias_rate():
    spec = imu.SyntheticScene(duration=10.0, rate=200.0, omega_amplitude=0.0,
                              velocity_amplitude=0.0, base_speed=0.0)
    bias = np.array([0.0, 0.0, 0.02, 0, 0, 0])
    out = imu.generate_scene(spec, imu.CalibParams(bias=bias), seed=5)
    np.testing.assert_allclose(out["rot"][-1], np.eye(3), atol=1e-12)
    est = so3.integrate_increments(np.eye(3), out["gyro"], out["dt"])
    drift = np.linalg.norm(so3.log_so3(est[-1]))
    assert abs(drift - 0.02 * 10.0) < 1e-9


def test_scene_validates_rate_and_sample_count():
    with pytest.raises(ValueError):
        imu.SyntheticScene(rate=0.0)
    with pytest.raises(ValueError):
        imu.SyntheticScene(duration=1.0, rate=200.5)
