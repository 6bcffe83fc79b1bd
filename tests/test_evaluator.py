import json
import os
import threading

import numpy as np
import pytest

from gyrodenoise import cli, data, evaluator, imu, network, so3
from gyrodenoise import lane as ln


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
            for col in ("start", "end", "distance", "error_3d", "error_yaw"):
                assert (getattr(loaded_w, col).tolist()
                        == getattr(samples, col).tolist()), col
    evaluator.write_reports(loaded, tmp_path / "again")
    for name in ("aoe.csv", "roe.npy", "summary.json", "roe_boxplot.svg"):
        assert ((tmp_path / "again" / name).read_bytes()
                == (tmp_path / "out" / name).read_bytes()), name
    assert (tmp_path / "out" / "roe_boxplot.svg").read_text().startswith("<svg")


def test_roe_record_holds_the_report_columns_bit_for_bit(tmp_path):
    rng = np.random.default_rng(5)

    def windows(n):
        start = rng.integers(0, 10**9, size=n)
        dist = np.concatenate([[1e-05, 123456789.0, 7.0000049, 0.1 + 0.2],
                               rng.uniform(6.65, 7.35, size=n - 4)])
        err = rng.uniform(0.0, 30.0, size=(2, n)) / 3.0
        err[:, :4] = [[0.0, 5e-324, 1e22, 1.0 / 3.0],
                      [np.pi, 2.0**-40, 123456789.01234567, -0.0]]
        return evaluator.RoeWindows(start, start + 200, dist, err[0], err[1])

    empty = evaluator.RoeWindows(*(np.array([], dtype=dt) for dt in
                                   (np.int64, np.int64, float, float, float)))
    reports = [
        evaluator.MetricsReport("raw", "seq%d,a", 1.0, 2.0,
                                {21.0: empty, 7.0: windows(50)}),
        evaluator.MetricsReport("zero", "b", 0.1 + 0.2, 1e-300,
                                {35.5: windows(20), 1e-05: windows(9)}),
    ]
    path = evaluator.write_reports(reports, tmp_path)
    record = np.load(tmp_path / "roe.npy", allow_pickle=False)
    assert record.dtype == evaluator.ROE_DTYPE and record.shape == (79,)
    # reports in order, each one's buckets sorted by distance
    blocks = [w for r in reports for _, w in sorted(r.roe_samples.items())]
    assert [len(w) for w in blocks] == [50, 0, 9, 20]
    with open(path) as f:
        counts = [b["count"] for s in json.load(f)["summaries"]
                  for b in s["roe"].values()]
    assert counts == [50, 0, 9, 20]
    for name in evaluator.ROE_DTYPE.names:
        want = np.concatenate([getattr(w, name) for w in blocks])
        assert record[name].tobytes() == want.astype(
            evaluator.ROE_DTYPE[name]).tobytes(), name
    loaded = evaluator.load_reports(path)
    for got, want in zip(loaded, reports):
        assert sorted(got.roe_samples) == sorted(want.roe_samples)
        for dist, w in want.roe_samples.items():
            for name in evaluator.ROE_DTYPE.names:
                col = getattr(got.roe_samples[dist], name)
                assert col.dtype == evaluator.ROE_DTYPE[name]
                assert col.tobytes() == getattr(w, name).tobytes(), name
    # the empty 21 m bucket draws no box, and its quartiles are JSON nulls
    assert "nan" not in (tmp_path / "roe_boxplot.svg").read_text().lower()

    def no_constant(name):
        raise ValueError(f"summary.json holds {name}, which is not JSON")

    with open(path) as f:
        strict = json.load(f, parse_constant=no_constant)
    assert strict["summaries"][0]["roe"]["21.0"] == {
        "count": 0, "median_3d": None, "p25_3d": None, "p75_3d": None,
        "median_yaw": None, "p25_yaw": None, "p75_yaw": None}


def test_load_reports_rejects_roe_npy_that_does_not_match(tmp_path):
    gt = straight_line_gt(4000)
    seq = data.ImuSequence(gt.t, np.zeros((4000, 3)), np.zeros((4000, 3)))
    reports = evaluator.run_baselines([("flat", seq, gt)], None,
                                      distances=(7.0,), methods=("zero",))
    path = evaluator.write_reports(reports, tmp_path)
    roe_npy = tmp_path / "roe.npy"
    record = np.load(roe_npy)
    assert len(record) > 0
    # a record with a row fewer than the summary counts
    np.save(roe_npy, record[:-1], allow_pickle=False)
    with pytest.raises(ValueError, match=f"holds {len(record) - 1} windows"):
        evaluator.load_reports(path)
    # a file cut short, down to an empty one
    np.save(roe_npy, record, allow_pickle=False)
    whole = roe_npy.read_bytes()
    for size in (len(whole) - 8, 20, 0):
        roe_npy.write_bytes(whole[:size])
        with pytest.raises(ValueError, match="roe.npy"):
            evaluator.load_reports(path)
    # the right length with another field layout
    wrong = np.zeros(len(record), dtype=[(n, "<f8")
                                         for n in evaluator.ROE_DTYPE.names])
    np.save(roe_npy, wrong, allow_pickle=False)
    with pytest.raises(ValueError, match="not a 1-D"):
        evaluator.load_reports(path)


def test_load_reports_names_what_the_summary_lacks(tmp_path):
    gt = straight_line_gt(4000)
    seq = data.ImuSequence(gt.t, np.zeros((4000, 3)), np.zeros((4000, 3)))
    reports = evaluator.run_baselines([("flat", seq, gt)], None,
                                      distances=(7.0,), methods=("zero",))
    path = evaluator.write_reports(reports, tmp_path)
    with open(path) as f:
        summary = json.load(f)
    del summary["summaries"][0]["aoe_yaw"]
    for text, message in (("{}", "has no key 'summaries'"),
                          (json.dumps(summary), "has no key 'aoe_yaw'"),
                          ("[]", "is malformed")):
        with open(path, "w") as f:
            f.write(text)
        with pytest.raises(ValueError, match=f"summary .* {message}"):
            evaluator.load_reports(path)


def test_report_without_roe_npy_is_data_error(tmp_path, capsys):
    gt = straight_line_gt(4000)
    seq = data.ImuSequence(gt.t, np.zeros((4000, 3)), np.zeros((4000, 3)))
    reports = evaluator.run_baselines([("flat", seq, gt)], None,
                                      distances=(7.0,), methods=("zero",))
    path = evaluator.write_reports(reports, tmp_path / "rep")
    # a directory written before roe.npy replaced roe.csv
    os.rename(tmp_path / "rep" / "roe.npy", tmp_path / "rep" / "roe.csv")
    assert cli.main(["report", "--summary", path,
                     "--out", str(tmp_path / "regen")]) == cli.EXIT_DATA
    assert "roe.npy" in capsys.readouterr().err


def test_zero_motion_on_constant_attitude_scene():
    gt = straight_line_gt(4000)
    t = (np.arange(3999) * 5_000_000).astype(np.int64)
    seq = data.ImuSequence(t, np.zeros((3999, 3)), np.zeros((3999, 3)))
    gt_seq = data.GroundTruth(gt.t[:3999], gt.rot[:3999], gt.pos[:3999])
    reports = evaluator.run_baselines([("flat", seq, gt_seq)], None,
                                      distances=(7.0,), methods=("zero",))
    assert reports[0].aoe_3d < 1e-12


def test_run_baselines_roe_matches_roe_per_method_on_a_gappy_sequence():
    # run_baselines builds the ground-truth windows once per sequence; each
    # method's columns must be those of evaluator.roe on its own track
    calib = imu.CalibParams(bias=np.array([0.02, -0.015, 0.01, 0, 0, 0]))
    _, seq, gt = make_scene(duration=40.0, seed=4, calib=calib)
    gaps = np.zeros(len(gt.t), dtype=bool)
    gaps[7500:7600] = True
    gt = data.GroundTruth(gt.t, gt.rot, gt.pos, gaps)
    params = calibration_params(calib)
    reports = evaluator.run_baselines([("gappy", seq, gt)], params)
    assert [r.method for r in reports] == list(evaluator.METHODS)
    for r in reports:
        est = evaluator.estimate_attitudes(r.method, seq, gt, params)
        want = evaluator.roe(gt, est)
        assert list(r.roe_samples) == list(want)
        for dist, w in want.items():
            got = r.roe_samples[dist]
            assert len(w) > 0
            assert np.all((w.end < 7500) | (w.start > 7599))
            for name in evaluator.ROE_DTYPE.names:
                assert getattr(got, name).tobytes() == \
                    getattr(w, name).tobytes(), (r.method, dist, name)


def test_roe_checks_the_length_before_the_trajectory():
    gt = straight_line_gt(100)
    with pytest.raises(ValueError, match="length mismatch"):
        evaluator.roe(gt, gt.rot[:-1], distances=(35.0,))


# -- the proposed track on a worker thread ----------------------------------------

def aoe_whole_array(gt_rots, est_rots):
    """evaluator.aoe as it was, over the whole sequence at once."""
    est = (gt_rots[0] @ est_rots[0].T) @ est_rots
    e = np.swapaxes(gt_rots, -1, -2) @ est
    v = so3.log_so3(e)
    yaw = np.arctan2(e[..., 1, 0], e[..., 0, 0])
    return (np.degrees(np.sqrt(np.mean(np.sum(v * v, axis=-1)))),
            np.degrees(np.sqrt(np.mean(yaw * yaw))))


def roe_errors_whole_array(windows, est_rots):
    """evaluator.roe_errors as it was, every window of a bucket at once."""
    out = {}
    for dist, w in windows.items():
        d_est = np.swapaxes(est_rots[w.start], -1, -2) @ est_rots[w.end]
        e = w.gt_inv @ d_est
        out[dist] = evaluator.RoeWindows(
            w.start, w.end, w.distance,
            np.degrees(np.linalg.norm(so3.log_so3(e), axis=-1)),
            np.degrees(np.abs(np.arctan2(e[..., 1, 0], e[..., 0, 0]))))
    return out


def run_baselines_serial(sequences, params, methods):
    """run_baselines as it was: one method after another on one thread."""
    reports = []
    for name, seq, gt in sorted(sequences, key=lambda x: x[0]):
        good = ~gt.gap_mask
        windows = evaluator.roe_windows(gt)
        for method in methods:
            est = evaluator.estimate_attitudes(method, seq, gt, params)
            a3, ay = aoe_whole_array(gt.rot[good], est[good])
            reports.append(evaluator.MetricsReport(
                method, name, a3, ay, roe_errors_whole_array(windows, est)))
    return reports


def trained_like_params(calib, seed):
    """calibration_params with a non-zero final conv layer, so that the
    proposed track depends on the data through the whole network."""
    params = calibration_params(calib)
    rng = np.random.default_rng(seed)
    params.conv_w[-1].data = rng.normal(0.0, 1e-3, params.conv_w[-1].shape)
    return params


@pytest.mark.parametrize("methods", [("raw", "proposed"), ("proposed",),
                                     ("raw", "zero"), ("zero", "proposed",
                                                       "calibrated", "raw")])
def test_run_baselines_matches_a_serial_run_bit_for_bit(methods):
    calib = imu.CalibParams(bias=np.array([0.02, -0.015, 0.01, 0, 0, 0]))
    _, seq_a, gt_a = make_scene(duration=40.0, seed=8, calib=calib)
    _, seq_b, gt_b = make_scene(duration=60.0, seed=9, calib=calib)
    gaps = np.zeros(len(gt_b.t), dtype=bool)
    gaps[11000:11150] = True
    gt_b = data.GroundTruth(gt_b.t, gt_b.rot, gt_b.pos, gaps)
    # given out of name order: reports come sorted by sequence name
    sequences = [("b-gappy", seq_b, gt_b), ("a", seq_a, gt_a)]
    params = trained_like_params(calib, seed=10)
    got = evaluator.run_baselines(sequences, params, methods=methods)
    want = run_baselines_serial(sequences, params, methods)
    assert [(r.sequence, r.method) for r in got] == [
        (name, m) for name in ("a", "b-gappy") for m in methods]
    for g, w in zip(got, want):
        assert (g.aoe_3d, g.aoe_yaw) == (w.aoe_3d, w.aoe_yaw), g.method
        assert list(g.roe_samples) == list(w.roe_samples)
        for dist, ww in w.roe_samples.items():
            assert len(ww) > 0
            for name in evaluator.ROE_DTYPE.names:
                assert getattr(g.roe_samples[dist], name).tobytes() == \
                    getattr(ww, name).tobytes(), (g.sequence, g.method, name)


def record_threads(monkeypatch):
    """{method: (thread name, active thread count)}, filled in while
    run_baselines runs: as estimate_attitudes sees them for every method
    but `proposed`, and for `proposed` as network.forward sees them for
    the first CNN block, which the lane, started before the ROE windows,
    computes."""
    seen = {}
    estimate = evaluator.estimate_attitudes
    forward = network.forward

    def here():
        return threading.current_thread().name, threading.active_count()

    def recorded(method, *args):
        if method != "proposed":
            seen[method] = here()
        return estimate(method, *args)

    def recorded_forward(params, x, training=False, rng=None,
                         zero_input=False):
        if not zero_input:
            seen.setdefault("proposed", here())
        return forward(params, x, training, rng, zero_input)

    monkeypatch.setattr(evaluator, "estimate_attitudes", recorded)
    monkeypatch.setattr(network, "forward", recorded_forward)
    return seen


def test_run_baselines_uses_the_open_lane(monkeypatch):
    # inside an open lane, as under the command line, the proposed track
    # runs on that lane's thread, and no second worker thread starts
    calib = imu.CalibParams(bias=np.array([0.02, -0.015, 0.01, 0, 0, 0]))
    _, seq, gt = make_scene(duration=12.0, seed=12, calib=calib)
    seen = record_threads(monkeypatch)
    with ln.compute_lane() as lane:
        lane_thread = lane.submit(threading.current_thread).result()
        threads = threading.active_count()
        evaluator.run_baselines([("s", seq, gt)], calibration_params(calib),
                                distances=(7.0,))
        assert threading.active_count() == threads
    assert seen["proposed"] == (lane_thread.name, threads)
    assert lane_thread.name.startswith("autodiff-lane")
    assert seen["raw"] == (threading.current_thread().name, threads)


def test_run_baselines_opens_and_joins_a_lane_of_its_own(monkeypatch):
    _, seq, gt = make_scene(duration=12.0, seed=12)
    seen = record_threads(monkeypatch)
    threads = threading.active_count()
    evaluator.run_baselines([("s", seq, gt)], network.ModelParams(seed=0),
                            distances=(7.0,))
    assert seen["proposed"][0].startswith("autodiff-lane")
    assert threading.active_count() == threads


def test_run_baselines_without_a_lane_runs_the_cnn_on_one_blas_thread(
        monkeypatch):
    fns = ln._openblas_thread_fns()
    if fns is None:
        pytest.skip("numpy does not link OpenBLAS")
    get, put = fns
    _, seq, gt = make_scene(duration=12.0, seed=12)
    forward, counts = network.forward, []

    def counted(params, x, training=False, rng=None, zero_input=False):
        counts.append(get())
        return forward(params, x, training, rng, zero_input)

    monkeypatch.setattr(network, "forward", counted)
    before = get()
    put(2)
    try:
        evaluator.run_baselines([("s", seq, gt)], network.ModelParams(seed=0),
                                distances=(7.0,))
        after = get()
    finally:
        put(before)
    assert counts and set(counts) == {1}
    assert after == 2


@pytest.mark.parametrize("methods, first", [
    (("proposed", "calibrated"), "proposed"),
    (("raw", "calibrated", "proposed"), "calibrated"),
])
def test_run_baselines_raises_the_first_failing_method_in_order(methods,
                                                                 first):
    # without a checkpoint both learned methods fail; the error is that of
    # the first in the given order
    _, seq, gt = make_scene(duration=40.0, seed=11)
    with pytest.raises(ValueError, match=f"method '{first}' needs"):
        evaluator.run_baselines([("s", seq, gt)], None, methods=methods)


@pytest.mark.parametrize("methods, first", [
    (("proposed", "calibrated"), "a block on the lane"),
    (("calibrated", "proposed"), "calibrated's forward"),
])
def test_a_block_error_on_the_lane_surfaces_in_method_order(monkeypatch,
                                                            methods, first):
    # the lane fails the first block it computes; this thread's blocks wait
    # for that, so the queue's error is always the lane's
    calib = imu.CalibParams(bias=np.array([0.02, -0.015, 0.01, 0, 0, 0]))
    _, seq, gt = make_scene(duration=12.0, seed=12, calib=calib)
    failed = threading.Event()
    forward = network.forward

    def failing(params, x, training=False, rng=None, zero_input=False):
        if zero_input:
            raise ValueError("calibrated's forward failed")
        if threading.current_thread().name.startswith("autodiff-lane"):
            failed.set()
            raise ValueError("a block on the lane failed")
        assert failed.wait(30), "the lane took no block"
        return forward(params, x, training, rng, zero_input)

    monkeypatch.setattr(network, "forward", failing)
    with pytest.raises(ValueError, match=f"^{first} failed$"):
        evaluator.run_baselines([("s", seq, gt)], calibration_params(calib),
                                distances=(7.0,), methods=methods)


def test_a_sequence_that_fails_its_roe_windows_stops_the_lane(monkeypatch):
    # the lane holds its first block until the queue is stopped; the ROE
    # windows fail once the lane has claimed it, and no block follows
    _, seq, gt = make_scene(duration=12.0, seed=12)
    claimed, stopped = threading.Event(), threading.Event()
    blocks = []
    forward, stop = network.forward, ln.Jobs.stop

    def held(params, x, training=False, rng=None, zero_input=False):
        blocks.append(threading.current_thread().name)
        claimed.set()
        assert stopped.wait(30), "the queue was not stopped"
        return forward(params, x, training, rng, zero_input)

    def failing(gt, distances):
        assert claimed.wait(30), "the lane took no block"
        raise ValueError("trajectory too short")

    def stopping(self):
        stop(self)
        stopped.set()

    monkeypatch.setattr(network, "forward", held)
    monkeypatch.setattr(ln.Jobs, "stop", stopping)
    monkeypatch.setattr(evaluator, "roe_windows", failing)
    with pytest.raises(ValueError, match="trajectory too short"):
        evaluator.run_baselines([("s", seq, gt)], network.ModelParams(),
                                methods=("proposed",))
    assert len(blocks) == 1 and blocks[0].startswith("autodiff-lane")
