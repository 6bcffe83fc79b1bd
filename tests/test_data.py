import numpy as np
import pytest

from gyrodenoise import cli, data, imu, so3


def make_scene(duration=10.0, seed=0, **kw):
    spec = imu.SyntheticScene(duration=duration, rate=200.0, **kw)
    return imu.generate_scene(spec, imu.CalibParams(), seed=seed)


def scene_to_objects(scene):
    seq = data.ImuSequence(scene["imu_t_ns"], scene["gyro"], scene["acc"])
    gt = data.GroundTruth(scene["gt_t_ns"], scene["rot"], scene["pos"])
    return seq, gt


# -- loading -------------------------------------------------------------------

def test_synth_roundtrip(tmp_path):
    scene = make_scene(duration=2.0)
    imu_path = tmp_path / "imu.csv"
    gt_path = tmp_path / "gt.csv"
    data.write_imu_csv(imu_path, scene["imu_t_ns"], scene["gyro"], scene["acc"])
    data.write_gt_csv(gt_path, scene["gt_t_ns"], scene["rot"], scene["pos"])
    seq, gt = data.load_sequence(imu_path, gt_path)
    np.testing.assert_array_equal(seq.t, scene["imu_t_ns"])
    np.testing.assert_allclose(seq.gyro, scene["gyro"], rtol=0, atol=0)
    np.testing.assert_allclose(seq.acc, scene["acc"], rtol=0, atol=0)
    np.testing.assert_allclose(gt.pos, scene["pos"], atol=0)
    # quaternion roundtrip is exact only up to float formatting
    np.testing.assert_allclose(gt.rot, scene["rot"], atol=1e-12)


def test_euroc_layout_parses(tmp_path):
    p = tmp_path / "data.csv"
    lines = ["#timestamp [ns],w_RS_S_x [rad s^-1],w_y,w_z,a_x,a_y,a_z"]
    for k in range(400):
        lines.append(f"{k * 5_000_000},0.1,0.2,0.3,0.0,0.0,9.81")
    p.write_text("\n".join(lines) + "\n")
    g = tmp_path / "gt.csv"
    g.write_text(
        "#timestamp,px,py,pz,qw,qx,qy,qz,extra\n"
        + "\n".join(f"{k * 5_000_000},0,0,0,1,0,0,0,99" for k in range(401))
        + "\n"
    )
    seq, gt = data.load_sequence(p, g)
    assert len(seq) == 400
    np.testing.assert_allclose(seq.gyro[0], [0.1, 0.2, 0.3])
    np.testing.assert_allclose(gt.rot[0], np.eye(3))


def test_euroc_scale_timestamps_are_exact(tmp_path):
    # ~1.4e18 ns stamps are not representable in float64 (spacing 256 ns)
    t0 = 1403636579758555393
    t = t0 + np.arange(401, dtype=np.int64) * 5_000_000
    t[1] += 100
    data.write_imu_csv(tmp_path / "imu.csv", t[:400], np.zeros((400, 3)),
                       np.zeros((400, 3)))
    data.write_gt_csv(tmp_path / "gt.csv", t, np.tile(np.eye(3), (401, 1, 1)),
                      np.zeros((401, 3)))
    seq, gt = data.load_sequence(tmp_path / "imu.csv", tmp_path / "gt.csv")
    np.testing.assert_array_equal(seq.t, t[:400])
    np.testing.assert_array_equal(gt.t, t)


def test_nan_row_rejected_with_line_number(tmp_path):
    p = tmp_path / "imu.csv"
    p.write_text("t_ns,gx,gy,gz,ax,ay,az\n0,0,0,0,0,0,0\n"
                 "5000000,nan,0,0,0,0,0\n")
    with pytest.raises(data.ValidationError, match="line 3"):
        data.load_sequence(p, p)


def test_out_of_range_timestamp_rejected_with_line_number(tmp_path):
    p = tmp_path / "imu.csv"
    p.write_text("t_ns,gx,gy,gz,ax,ay,az\n0,0,0,0,0,0,0\n"
                 "1e300,0,0,0,0,0,0\n")
    with pytest.raises(data.ValidationError, match="line 3"):
        data.load_sequence(p, p)


def test_malformed_csv_line_number(tmp_path):
    p = tmp_path / "imu.csv"
    p.write_text("t_ns,gx,gy,gz,ax,ay,az\n0,0,0,0,0,0,0\n5000000,0,zz,0,0,0,0\n")
    with pytest.raises(data.ValidationError, match="line 3"):
        data.load_sequence(p, p)


def test_non_monotonic_time_rejected():
    t = np.array([0, 10_000_000, 5_000_000])
    with pytest.raises(data.ValidationError, match="non-monotonic"):
        data.ImuSequence(t, np.zeros((3, 3)), np.zeros((3, 3)))


def test_sample_period_is_the_median_stamp_spacing():
    # 143 Hz stamps with three jittered samples: the period is the median
    # spacing, in the whole sequence and in each window of it
    t = np.arange(100, dtype=np.int64) * 7_000_000
    t[[5, 40, 77]] += 2_000
    seq = data.ImuSequence(t, np.zeros((100, 3)), np.zeros((100, 3)))
    assert seq.dt == 0.007
    assert seq.window(10, 13).dt == 0.007


def test_fewer_than_two_samples_rejected():
    for n in (0, 1):
        with pytest.raises(data.ValidationError, match="two IMU samples"):
            data.ImuSequence(np.arange(n), np.zeros((n, 3)), np.zeros((n, 3)))
    seq = data.ImuSequence(np.arange(3), np.zeros((3, 3)), np.zeros((3, 3)))
    with pytest.raises(data.ValidationError, match="two IMU samples"):
        seq.window(2, 3)


# -- alignment -------------------------------------------------------------------

def test_align_identity_when_clocks_match():
    scene = make_scene(duration=2.0)
    seq, gt = scene_to_objects(scene)
    gt_on_imu = data.GroundTruth(scene["imu_t_ns"], scene["rot"][:-1],
                                 scene["pos"][:-1])
    out = data.align_ground_truth(seq, gt_on_imu)
    np.testing.assert_array_equal(out.rot, gt_on_imu.rot)
    assert not out.gap_mask.any()


def test_align_resamples_lower_rate_gt():
    scene = make_scene(duration=4.0)
    seq, gt = scene_to_objects(scene)
    # subsample ground truth to 50 Hz
    gt_lo = data.GroundTruth(gt.t[::4], gt.rot[::4], gt.pos[::4])
    out = data.align_ground_truth(seq, gt_lo)
    assert len(out) == len(seq)
    so3.check_rotation(out.rot, tol=1e-9)
    # interpolation error stays small for smooth motion
    err = np.linalg.norm(so3.log_so3(
        np.swapaxes(out.rot[:-1], -1, -2) @ gt.rot[: len(seq) - 1]), axis=-1)
    assert np.max(err) < 1e-3


def test_align_flags_gap():
    scene = make_scene(duration=4.0)
    seq, gt = scene_to_objects(scene)
    # remove 0.2 s of ground truth (40 samples at 200 Hz)
    keep = np.ones(len(gt), dtype=bool)
    keep[300:340] = False
    gt_gap = data.GroundTruth(gt.t[keep], gt.rot[keep], gt.pos[keep])
    out = data.align_ground_truth(seq, gt_gap)
    n_flagged = int(out.gap_mask.sum())
    assert 35 <= n_flagged <= 45
    assert out.gap_mask[310]


def test_align_requires_overlap():
    scene = make_scene(duration=1.0)
    seq, gt = scene_to_objects(scene)
    shifted = data.GroundTruth(gt.t + 10**12, gt.rot, gt.pos)
    with pytest.raises(data.ValidationError, match="overlap"):
        data.align_ground_truth(seq, shifted)


def test_align_applies_time_offset():
    scene = make_scene(duration=2.0)
    seq, gt = scene_to_objects(scene)
    shifted = data.GroundTruth(gt.t - 50_000_000, gt.rot, gt.pos)
    out = data.align_ground_truth(seq, shifted, offset_s=0.05)
    ref = data.align_ground_truth(seq, gt)
    np.testing.assert_allclose(out.rot, ref.rot, atol=1e-12)


def test_align_exact_fraction_at_euroc_scale_stamps():
    # float64 stamps near 1.4e18 ns are multiples of 256 ns, so taking the
    # differences after a float cast gives tau = 0.1999898, not 0.2000074
    t0 = 1403636579758555393
    theta = 0.5
    gt_t = t0 + 5_000_000 * np.arange(4, dtype=np.int64)
    gt_rot = so3.exp_so3(np.outer(np.arange(4) * theta, [0.0, 0.0, 1.0]))
    gt = data.GroundTruth(gt_t, gt_rot, np.zeros((4, 3)))
    seq = data.ImuSequence(gt_t[:3] + 1_000_037, np.zeros((3, 3)),
                           np.zeros((3, 3)))
    out = data.align_ground_truth(seq, gt)
    assert not out.gap_mask.any()
    rel = np.swapaxes(gt_rot[:3], -1, -2) @ out.rot
    angle = np.linalg.norm(so3.log_so3(rel), axis=-1)
    np.testing.assert_allclose(angle, 0.2000074 * theta, rtol=1e-12, atol=0)


# -- ground-truth increments ------------------------------------------------------

def test_increment_table_constant_attitude():
    n = 200
    gt = data.GroundTruth((np.arange(n) * 5_000_000).astype(np.int64),
                          np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 3)))
    starts = np.arange(0, n - 16, 16)
    rots, valid = data.gt_increments(gt, starts, starts + 16)
    assert valid.all()
    np.testing.assert_allclose(rots, np.tile(np.eye(3), (len(starts), 1, 1)),
                               atol=0)


def test_increment_table_counts_and_values():
    scene = make_scene(duration=8.0)  # 1600 imu samples, 1601 rotations
    gt = data.GroundTruth(scene["gt_t_ns"][:1600], scene["rot"][:1600],
                          scene["pos"][:1600])
    starts = np.arange(0, 1600 - 16, 16).reshape(3, 33)
    rots, valid = data.gt_increments(gt, starts, starts + 16)
    assert rots.shape == (3, 33, 3, 3) and valid.shape == (3, 33)
    assert valid.all()
    i = int(starts[1, 5])
    np.testing.assert_allclose(rots[1, 5],
                               scene["rot"][i].T @ scene["rot"][i + 16], atol=0)


def test_increment_table_masks_gaps():
    scene = make_scene(duration=8.0)
    gaps = np.zeros(1601, dtype=bool)
    gaps[100:141] = True
    gt = data.GroundTruth(scene["gt_t_ns"], scene["rot"], scene["pos"], gaps)
    starts = np.arange(0, 1601 - 32, 32)
    rots, valid = data.gt_increments(gt, starts, starts + 32)
    # [64, 96] ends before the gap and [160, 192] starts after it; the two
    # windows in between touch it
    touching = (starts == 96) | (starts == 128)
    np.testing.assert_array_equal(valid, ~touching)
    np.testing.assert_array_equal(rots[~valid], np.tile(np.eye(3), (2, 1, 1)))
    # a window whose last sample is the first gap sample is invalid too
    _, v = data.gt_increments(gt, np.array([68, 141]), np.array([100, 173]))
    np.testing.assert_array_equal(v, [False, True])


def test_increment_table_end_beyond_sequence_is_invalid():
    scene = make_scene(duration=1.0)  # 201 rotations
    gt = data.GroundTruth(scene["gt_t_ns"], scene["rot"], scene["pos"])
    starts = np.array([150, 168, 184, 200])
    rots, valid = data.gt_increments(gt, starts, starts + 16)
    np.testing.assert_array_equal(valid, [True, True, True, False])
    np.testing.assert_array_equal(rots[3], np.eye(3))


def test_increment_table_matches_integrated_true_gyro():
    scene = make_scene(duration=8.0)
    gt = data.GroundTruth(scene["gt_t_ns"], scene["rot"], scene["pos"])
    rots = so3.integrate_increments(np.eye(3), scene["true_gyro"], scene["dt"])
    for j in (16, 32):
        starts = np.arange(0, len(gt) - j, j)
        incs, valid = data.gt_increments(gt, starts, starts + j)
        assert valid.all()
        ref = np.swapaxes(rots[starts], -1, -2) @ rots[starts + j]
        assert np.max(np.abs(incs - ref)) < 1e-9


# -- config ----------------------------------------------------------------------

def test_parse_config_and_split(tmp_path):
    p = tmp_path / "split.cfg"
    p.write_text(
        "# roles\n"
        "split.MH_01 = train\n"
        "split.MH_02 = test\n"
        "split.V1_02 = val\n"
        "window.MH_01 = 0, 50\n"
    )
    cfg = cli._read_config(p)
    # roles are disjoint by construction: one role per sequence name
    assert {k: v for k, v in cfg.items() if k.startswith("split.")} == {
        "split.MH_01": "train", "split.MH_02": "test", "split.V1_02": "val"}
    assert cfg["window.MH_01"] == "0, 50"


def test_parse_config_rejects_bad_lines(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("this is not a key value pair\n")
    with pytest.raises(data.ValidationError):
        data.parse_config(p)
    q = tmp_path / "role.cfg"
    q.write_text("split.X = banana\n")
    with pytest.raises(data.ValidationError, match="unknown split role"):
        cli._read_config(q)
