import json

import numpy as np
import pytest

from gyrodenoise import data, evaluator, imu, network, so3


def make_scene(duration=30.0, seed=0, calib=None):
    spec = imu.SyntheticScene(duration=duration, rate=200.0)
    scene = imu.generate_scene(spec, calib or imu.CalibParams(), seed=seed)
    seq = data.ImuSequence(scene["imu_t_ns"], scene["gyro"], scene["acc"])
    gt = data.GroundTruth(scene["imu_t_ns"], scene["rot"][:-1],
                          scene["pos"][:-1])
    return scene, seq, gt


# -- aoe ---------------------------------------------------------------------------

def test_aoe_zero_for_perfect_estimate():
    scene, _, gt = make_scene(duration=5.0)
    a3, ay = evaluator.aoe(gt.rot, gt.rot)
    assert a3 < 1e-12 and ay < 1e-12


def test_aoe_constant_yaw_offset_closed_form():
    scene, _, gt = make_scene(duration=5.0)
    e = 0.01
    est = gt.rot @ so3.exp_so3(np.array([0.0, 0.0, e]))
    est[0] = gt.rot[0]
    a3, ay = evaluator.aoe(gt.rot, est)
    m = len(gt.rot)
    expected = np.degrees(e) * np.sqrt((m - 1) / m)
    assert abs(a3 - expected) < 1e-9
    assert abs(ay - expected) < 1e-3  # yaw of a pure-z offset in a moving frame


def test_aoe_roll_only_error_has_no_yaw():
    n = 100
    gt = np.tile(np.eye(3), (n, 1, 1))
    est = gt @ so3.exp_so3(np.array([0.02, 0.0, 0.0]))
    est[0] = np.eye(3)
    a3, ay = evaluator.aoe(gt, est)
    assert a3 > 1.0
    assert ay < 1e-12


def test_aoe_invariant_to_global_rotation():
    scene, _, gt = make_scene(duration=5.0)
    rng = np.random.default_rng(1)
    est = gt.rot @ so3.exp_so3(0.01 * rng.normal(size=(len(gt.rot), 3)))
    a3, ay = evaluator.aoe(gt.rot, est)
    d = so3.exp_so3(rng.normal(size=3))
    b3, by = evaluator.aoe(d @ gt.rot, d @ est)
    assert abs(a3 - b3) < 1e-12
    assert abs(ay - by) < 1e-12


def test_aoe_alignment_removes_initial_offset():
    scene, _, gt = make_scene(duration=5.0)
    d = so3.exp_so3(np.array([0.3, -0.2, 0.5]))
    a3, ay = evaluator.aoe(gt.rot, d @ gt.rot)
    assert a3 < 1e-10 and ay < 1e-10


def test_aoe_length_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        evaluator.aoe(np.tile(np.eye(3), (5, 1, 1)),
                      np.tile(np.eye(3), (4, 1, 1)))


# -- roe ---------------------------------------------------------------------------

def straight_line_gt(n, v=1.0, dt=0.005):
    pos = np.zeros((n, 3))
    pos[:, 0] = v * dt * np.arange(n)
    return data.GroundTruth((np.arange(n) * int(dt * 1e9)).astype(np.int64),
                            np.tile(np.eye(3), (n, 1, 1)), pos)


def test_roe_zero_for_perfect_estimate():
    scene, _, gt = make_scene(duration=30.0)
    out = evaluator.roe(gt, gt.rot, distances=(7.0, 21.0))
    assert len(out[7.0]) > 100
    assert np.max(out[7.0].error_3d) < 1e-9


def test_roe_constant_bias_straight_line():
    n = 4000
    v, dt, b = 1.0, 0.005, 0.02
    gt = straight_line_gt(n, v, dt)
    est = so3.integrate_increments(
        np.eye(3), np.tile([0.0, 0.0, b], (n - 1, 1)), dt)[:n]
    out = evaluator.roe(gt, est, distances=(7.0,))
    expected = np.degrees(b * 7.0 / v)
    errs = out[7.0].error_yaw
    assert np.all(np.abs(errs - expected) < 0.06 * expected)


def test_roe_distance_tolerance_and_window_validity():
    gt = straight_line_gt(4000)
    out = evaluator.roe(gt, gt.rot, distances=(7.0,))
    w = out[7.0]
    assert np.all(np.abs(w.distance - 7.0) <= 0.35)
    assert np.all(w.end > w.start)


def test_roe_zero_motion_equals_increment_norms():
    scene, _, gt = make_scene(duration=30.0)
    est = np.tile(gt.rot[0], (len(gt.rot), 1, 1))
    out = evaluator.roe(gt, est, distances=(7.0,))
    w = out[7.0]
    for start, end, err in zip(w.start[:50], w.end[:50], w.error_3d[:50]):
        inc = gt.rot[start].T @ gt.rot[end]
        ref = np.degrees(np.linalg.norm(so3.log_so3(inc)))
        assert abs(err - ref) < 1e-9


def test_roe_symmetric_in_gt_and_est():
    scene, _, gt = make_scene(duration=30.0)
    rng = np.random.default_rng(2)
    est = gt.rot @ so3.exp_so3(0.05 * rng.normal(size=(len(gt.rot), 3)))
    a = evaluator.roe(gt, est, distances=(7.0,))
    gt_swapped = data.GroundTruth(gt.t, est, gt.pos)
    b = evaluator.roe(gt_swapped, gt.rot, distances=(7.0,))
    np.testing.assert_allclose(a[7.0].error_3d, b[7.0].error_3d, atol=1e-9)


def test_roe_skips_gap_windows():
    gt = straight_line_gt(4000)
    gaps = np.zeros(4000, dtype=bool)
    gaps[2000:2100] = True
    gt_gap = data.GroundTruth(gt.t, gt.rot, gt.pos, gaps)
    out = evaluator.roe(gt_gap, gt.rot, distances=(7.0,))
    w = out[7.0]
    assert np.all((w.end < 2000) | (w.start > 2099))


def test_roe_too_short_trajectory():
    gt = straight_line_gt(100)
    with pytest.raises(ValueError, match="too short"):
        evaluator.roe(gt, gt.rot, distances=(35.0,))


def test_percentiles_match_sorted_reference():
    rng = np.random.default_rng(3)
    vals = rng.uniform(size=1001)
    p = evaluator.percentiles(vals)
    s = np.sort(vals)
    assert p[50.0] == pytest.approx(s[500])
    assert p[25.0] == pytest.approx(s[250])
    assert p[75.0] == pytest.approx(s[750])


# -- baselines ---------------------------------------------------------------------

def calibration_params(calib):
    """Hand-built parameters that exactly undo a static calibration."""
    params = network.ModelParams(seed=0)
    c_inv = np.linalg.inv(calib.C_omega)
    params.c_omega.data = c_inv
    # the zeroed final conv layer passes only its bias through
    params.conv_b[-1].data = -c_inv @ calib.bias[:3]
    return params


def test_run_baselines_ordering_and_roundtrip(tmp_path):
    calib = imu.CalibParams(
        C_omega=np.eye(3) + 0.03 * np.array([[0, 1, -1], [1, 0, 1], [-1, 1, 0]]),
        bias=np.array([0.02, -0.015, 0.01, 0, 0, 0]),
    )
    scene, seq, gt = make_scene(duration=40.0, calib=calib)
    params = calibration_params(calib)
    reports = evaluator.run_baselines([("scene", seq, gt)], params)
    by_method = {r.method: r for r in reports}
    assert set(by_method) == {"raw", "calibrated", "proposed", "zero"}
    assert by_method["raw"].aoe_3d > 10 * by_method["calibrated"].aoe_3d
    # with a correction that only undoes the calibration the two learned
    # modes coincide
    assert by_method["proposed"].aoe_3d == pytest.approx(
        by_method["calibrated"].aoe_3d, rel=1e-9)

    path = evaluator.write_reports(reports, tmp_path / "out")
    with open(path) as f:
        assert list(json.load(f)) == ["summaries"]
    loaded = evaluator.load_reports(path)
    assert [(r.method, r.sequence, r.aoe_3d, r.aoe_yaw) for r in loaded] == [
        (r.method, r.sequence, r.aoe_3d, r.aoe_yaw) for r in reports]
    for got, want in zip(loaded, reports):
        assert list(got.roe_samples) == list(want.roe_samples)
        for dist, samples in want.roe_samples.items():
            loaded_w = got.roe_samples[dist]
            for col in ("start", "end", "error_3d", "error_yaw"):
                assert (getattr(loaded_w, col).tolist()
                        == getattr(samples, col).tolist()), col
            # roe.csv publishes the traveled distance at 6 digits
            assert loaded_w.distance.tolist() == [
                float(f"{d:.6g}") for d in samples.distance.tolist()]
    evaluator.write_reports(loaded, tmp_path / "again")
    for name in ("aoe.csv", "roe.csv", "summary.json", "roe_boxplot.svg"):
        assert ((tmp_path / "again" / name).read_bytes()
                == (tmp_path / "out" / name).read_bytes()), name
    assert (tmp_path / "out" / "roe_boxplot.svg").read_text().startswith("<svg")


def roe_csv_reference(reports):
    """roe.csv as the per-row f-string writer printed it."""
    lines = ["method,sequence,target_m,start,end,"
             "distance_m,error_3d_deg,error_yaw_deg\n"]
    for r in reports:
        for dist, w in sorted(r.roe_samples.items()):
            for a, b, d, e3, ey in zip(w.start.tolist(), w.end.tolist(),
                                       w.distance.tolist(), w.error_3d.tolist(),
                                       w.error_yaw.tolist()):
                lines.append(f"{r.method},{r.sequence},{dist:g},{a},{b},"
                             f"{d:.6g},{e3:.17g},{ey:.17g}\n")
    return "".join(lines)


def test_roe_csv_matches_per_row_fstring_writer(tmp_path):
    rng = np.random.default_rng(5)

    def windows(n):
        start = rng.integers(0, 10**9, size=n)
        # distances .6g prints in exponent form among plain ones
        dist = np.concatenate([[1e-05, 123456789.0, 7.0000049, 0.1 + 0.2],
                               rng.uniform(6.65, 7.35, size=n - 4)])
        err = rng.uniform(0.0, 30.0, size=(2, n)) / 3.0  # 17 digits
        err[:, :4] = [[0.0, 5e-324, 1e22, 1.0 / 3.0],
                      [np.pi, 2.0**-40, 123456789.01234567, 1e-17]]
        return evaluator.RoeWindows(start, start + 200, dist, err[0], err[1])

    empty = evaluator.RoeWindows(*(np.array([], dtype=dt) for dt in
                                   (np.int64, np.int64, float, float, float)))
    reports = [
        evaluator.MetricsReport("raw", "seq%d,a", 1.0, 2.0,
                                {7.0: windows(50), 21.0: empty}),
        evaluator.MetricsReport("zero", "b", 0.1 + 0.2, 1e-300,
                                {1e-05: windows(9), 35.5: windows(20)}),
    ]
    evaluator.write_reports(reports, tmp_path)
    assert (tmp_path / "roe.csv").read_text() == roe_csv_reference(reports)


def test_load_reports_rejects_roe_csv_that_does_not_match(tmp_path):
    gt = straight_line_gt(4000)
    seq = data.ImuSequence(gt.t, np.zeros((4000, 3)), np.zeros((4000, 3)))
    reports = evaluator.run_baselines([("flat", seq, gt)], None,
                                      distances=(7.0,), methods=("zero",))
    path = evaluator.write_reports(reports, tmp_path)
    roe_csv = tmp_path / "roe.csv"
    lines = roe_csv.read_text().splitlines(keepends=True)
    for bad in ("", "".join(lines[:-1])):
        roe_csv.write_text(bad)
        with pytest.raises(ValueError, match="does not match"):
            evaluator.load_reports(path)


def test_zero_motion_on_constant_attitude_scene():
    gt = straight_line_gt(4000)
    t = (np.arange(3999) * 5_000_000).astype(np.int64)
    seq = data.ImuSequence(t, np.zeros((3999, 3)), np.zeros((3999, 3)))
    gt_seq = data.GroundTruth(gt.t[:3999], gt.rot[:3999], gt.pos[:3999])
    reports = evaluator.run_baselines([("flat", seq, gt_seq)], None,
                                      distances=(7.0,), methods=("zero",))
    assert reports[0].aoe_3d < 1e-12
