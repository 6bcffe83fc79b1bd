import fnmatch
import hashlib
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def test_trailing_comment_in_a_field_is_malformed(tmp_path):
    # '#' is data, not a comment, once a line has begun with a stamp
    p = tmp_path / "imu.csv"
    p.write_text("t_ns,gx,gy,gz,ax,ay,az\n0,0,0,0,0,0,0\n"
                 "5000000,0,0,0,0,0,0 # note\n")
    with pytest.raises(data.ValidationError, match="line 3: malformed"):
        data.load_sequence(p, p)


# -- the one-pass reader against the line parser -----------------------------------

EUROC_GT_HEADER = ("#timestamp, p_RS_R_x [m], p_RS_R_y [m], p_RS_R_z [m], "
                   "q_RS_w [], q_RS_x [], q_RS_y [], q_RS_z [], "
                   "v_RS_R_x [m s^-1], v_RS_R_y [m s^-1], v_RS_R_z [m s^-1]")


def _gt_lines(n=40, seed=3, extra=3):
    rng = np.random.default_rng(seed)
    t0 = 1403636579758555393
    rows = []
    for k in range(n):
        vals = rng.normal(size=7 + extra).tolist()
        rows.append(f"{t0 + k * 5_000_000}," + ",".join(map(repr, vals)))
    return rows


READER_CASES = {
    "several headers": (["title line", "t_ns,px,py,pz,qw,qx,qy,qz,a,b,c"]
                        + _gt_lines()),
    "euroc ground truth": [EUROC_GT_HEADER] + _gt_lines(),
    "blank lines": ["", EUROC_GT_HEADER, ""] + _gt_lines()[:20] + ["", ""]
                   + _gt_lines()[20:] + [""],
    "spaces around fields": [EUROC_GT_HEADER] + [
        " " + " , ".join(r.split(",")) + "  " for r in _gt_lines()],
    "comment lines": ["# one", EUROC_GT_HEADER, "# two"] + _gt_lines()[:10]
                     + ["# mid-file", "  # indented"] + _gt_lines()[10:],
    "no header": _gt_lines(extra=0),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_reader_equals_line_parser(tmp_path, case, newline):
    p = tmp_path / "gt.csv"
    with open(p, "w", newline="") as f:
        f.write(newline.join(READER_CASES[case]) + newline)
    t, values = data._read_csv_rows(p, 8)
    t_ref, values_ref = data._parse_csv_lines(p, 8, data._header_lines(p))
    assert t.dtype == np.int64 and values.dtype == np.float64
    assert t.flags.c_contiguous and values.flags.c_contiguous
    np.testing.assert_array_equal(t, t_ref)
    np.testing.assert_array_equal(values.view(np.int64),
                                  values_ref.view(np.int64))


@pytest.mark.parametrize("case", sorted(set(READER_CASES) - {"comment lines"}))
def test_reader_takes_one_pass_without_the_line_parser(tmp_path, case,
                                                       monkeypatch):
    p = tmp_path / "gt.csv"
    p.write_text("\r\n".join(READER_CASES[case]) + "\r\n")
    want = data._parse_csv_lines(p, 8, data._header_lines(p))

    def unused(*args):
        raise AssertionError("fell back to the line parser")

    monkeypatch.setattr(data, "_parse_csv_lines", unused)
    got = data._read_csv_rows(p, 8)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])


def test_reader_truncates_float_stamps(tmp_path):
    p = tmp_path / "imu.csv"
    p.write_text("t_ns,gx,gy,gz,ax,ay,az\n12.9,1,2,3,4,5,6\n"
                 "1.5e9,1,2,3,4,5,6\n1500000007,1,2,3,4,5,6\n")
    t, values = data._read_csv_rows(p, 7)
    np.testing.assert_array_equal(t, [12, 1_500_000_000, 1_500_000_007])
    np.testing.assert_array_equal(values, np.tile(np.arange(1.0, 7.0),
                                                  (3, 1)))


def test_header_only_file_has_no_data_rows_and_no_warning(tmp_path):
    p = tmp_path / "imu.csv"
    p.write_text("t_ns,gx,gy,gz,ax,ay,az\n\n# nothing recorded\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(data.ValidationError, match="no data rows"):
            data._read_csv_rows(p, 7)


# -- the parsed sidecar ---------------------------------------------------------

IMU_LINES = ["t_ns,gx,gy,gz,ax,ay,az", "0,1,2,3,4,5,6",
             "5000000,-0.0,5e-324,0.1,-1e308,2.5,9.81"]


def _sidecar(p):
    return p.parent / (p.name + data.SIDECAR_SUFFIX)


def _count_parses(monkeypatch):
    """The paths that data._parse_csv parses from here on."""
    calls = []
    parse = data._parse_csv

    def counted(path, n_cols_min):
        calls.append(path)
        return parse(path, n_cols_min)

    monkeypatch.setattr(data, "_parse_csv", counted)
    return calls


def _assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.flags.c_contiguous and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_sidecar_hit_has_the_bits_of_a_fresh_parse(tmp_path, monkeypatch,
                                                   case):
    p = tmp_path / "data.csv"
    with open(p, "w", newline="") as f:
        f.write("\r\n".join(READER_CASES[case]) + "\r\n")
    fresh = data._parse_csv(p, 8)
    _assert_same_bits(data._read_csv_rows(p, 8), fresh)
    assert _sidecar(p).is_file()

    def parse(*args):
        raise AssertionError("parsed the file again")

    monkeypatch.setattr(data, "_parse_csv", parse)
    _assert_same_bits(data._read_csv_rows(p, 8), fresh)


def test_edited_file_of_the_same_length_misses_and_rewrites_the_sidecar(
        tmp_path, monkeypatch):
    p = tmp_path / "imu.csv"
    p.write_text("\n".join(IMU_LINES) + "\n")
    data._read_csv_rows(p, 7)
    stat = p.stat()
    # one digit changed, with the size and the modification time kept
    p.write_text("\n".join(IMU_LINES).replace("9.81", "9.82") + "\n")
    os.utime(p, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert p.stat().st_size == stat.st_size
    calls = _count_parses(monkeypatch)
    assert data._read_csv_rows(p, 7)[1][1, 5] == 9.82
    assert data._read_csv_rows(p, 7)[1][1, 5] == 9.82
    assert calls == [p]


@pytest.mark.parametrize("deleted", [False, True])
def test_file_rewritten_during_its_parse_is_not_stored(tmp_path, monkeypatch,
                                                       deleted):
    p = tmp_path / "imu.csv"
    p.write_text("\n".join(IMU_LINES) + "\n")
    parse = data._parse_csv

    def rewritten(path, n_cols_min):
        p.write_text("\n".join(IMU_LINES).replace("9.81", "9.82") + "\n")
        rows = parse(path, n_cols_min)
        if deleted:
            p.unlink()
        return rows

    with monkeypatch.context() as m:
        m.setattr(data, "_parse_csv", rewritten)
        assert data._read_csv_rows(p, 7)[1][1, 5] == 9.82
    assert not _sidecar(p).exists()
    if deleted:
        return
    calls = _count_parses(monkeypatch)
    assert data._read_csv_rows(p, 7)[1][1, 5] == 9.82
    assert data._read_csv_rows(p, 7)[1][1, 5] == 9.82
    assert calls == [p]


def test_sidecar_key_holds_the_column_count(tmp_path, monkeypatch):
    p = tmp_path / "gt.csv"
    p.write_text("\n".join(READER_CASES["no header"]) + "\n")
    data._read_csv_rows(p, 8)
    calls = _count_parses(monkeypatch)
    t, values = data._read_csv_rows(p, 7)
    assert values.shape == (len(t), 6) and calls == [p]


def _spoil(p, how, monkeypatch):
    side = _sidecar(p)
    good = side.read_bytes()
    t, values = data._parse_csv(p, 7)
    if how == "garbage":
        side.write_bytes(b"not an archive\n" * 50)
    elif how == "empty":
        side.write_bytes(b"")
    elif how.startswith("truncated"):
        side.write_bytes(good[:len(good) // (2 if how == "truncated" else 10)])
    elif how == "bit flip":
        side.write_bytes(good[:200] + bytes([good[200] ^ 1]) + good[201:])
    elif how == "no key":
        np.savez(side, t=t, v=values)
    elif how == "npy":
        with open(side, "wb") as f:
            np.save(f, values)
    elif how == "other parser":
        with monkeypatch.context() as m:
            m.setattr(data, "parser_version", lambda: "an earlier parser")
            side.unlink()
            data._read_csv_rows(p, 7)
    elif how == "other encoding":
        with monkeypatch.context() as m:
            m.setattr("locale.getpreferredencoding",
                      lambda do_setlocale=True: "latin-1")
            side.unlink()
            data._read_csv_rows(p, 7)


@pytest.mark.parametrize("how", ["garbage", "empty", "truncated",
                                 "truncated head", "bit flip", "no key",
                                 "npy", "other parser",
                                 "other encoding"])
def test_unreadable_foreign_or_stale_sidecar_is_a_miss_and_is_replaced(
        tmp_path, monkeypatch, how):
    p = tmp_path / "imu.csv"
    p.write_text("\n".join(IMU_LINES) + "\n")
    want = data._read_csv_rows(p, 7)
    _spoil(p, how, monkeypatch)
    calls = _count_parses(monkeypatch)
    _assert_same_bits(data._read_csv_rows(p, 7), want)
    _assert_same_bits(data._read_csv_rows(p, 7), want)
    assert calls == [p]


def test_parser_version_is_the_digest_of_the_data_module_and_numpy():
    with open(data.__file__, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    assert data.parser_version() == (f"gyrodenoise.data sha256={digest} "
                                     f"numpy={np.__version__}")


@pytest.mark.parametrize("mode", [0o644, 0o640, 0o600])
def test_sidecar_has_the_permission_bits_of_its_csv(tmp_path, mode):
    p = tmp_path / "imu.csv"
    p.write_text("\n".join(IMU_LINES) + "\n")
    p.chmod(mode)
    data._read_csv_rows(p, 7)
    assert _sidecar(p).stat().st_mode & 0o7777 == mode


@pytest.mark.parametrize("fails", ["os.replace", "tempfile.mkstemp",
                                   "shutil.copymode"])
def test_failed_sidecar_write_returns_the_parse_and_leaves_no_file(
        tmp_path, monkeypatch, fails):
    p = tmp_path / "imu.csv"
    p.write_text("\n".join(IMU_LINES) + "\n")
    want = data._parse_csv(p, 7)

    def fail(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(fails, fail)
    _assert_same_bits(data._read_csv_rows(p, 7), want)
    assert os.listdir(tmp_path) == ["imu.csv"]


def test_temporary_sidecar_is_named_after_its_sidecar(tmp_path, monkeypatch):
    p = tmp_path / "imu.csv"
    p.write_text("\n".join(IMU_LINES) + "\n")
    moved = []

    def killed(src, dst):
        moved.append(os.path.basename(src))
        raise OSError(4, "Interrupted system call")

    monkeypatch.setattr("os.replace", killed)
    data._read_csv_rows(p, 7)
    (tmp,) = moved
    assert tmp.startswith("imu.csv" + data.SIDECAR_SUFFIX + ".")
    assert tmp.endswith(".tmp")
    assert fnmatch.fnmatch(tmp, "*" + data.SIDECAR_SUFFIX + "*")
    assert os.listdir(tmp_path) == ["imu.csv"]


def test_evaluate_is_the_same_without_with_and_from_sidecars(tmp_path,
                                                            monkeypatch):
    scene = tmp_path / "scene"
    assert cli.main(["synth", "--duration", "2", "--seed", "3",
                     "--gyro-bias", "0.01,0,0", "--out", str(scene)]) == 0

    def evaluate(out):
        assert cli.main(["evaluate", "--imu", str(scene / "imu.csv"),
                         "--gt", str(scene / "gt.csv"), "--methods",
                         "raw,zero", "--distances", "0.5",
                         "--out", str(tmp_path / out)]) == 0
        return {name: (tmp_path / out / name).read_bytes()
                for name in ("aoe.csv", "roe.npy", "summary.json",
                             "roe_boxplot.svg")}

    def fail(*args, **kwargs):
        raise OSError(13, "Permission denied")

    with monkeypatch.context() as m:
        m.setattr("os.replace", fail)
        uncached = evaluate("uncached")
    assert not any(name.endswith((".npz", ".tmp"))
                   for name in os.listdir(scene))
    assert evaluate("miss") == uncached
    assert _sidecar(scene / "imu.csv").is_file()
    assert _sidecar(scene / "gt.csv").is_file()
    calls = _count_parses(monkeypatch)
    assert evaluate("hit") == uncached
    assert calls == []


@pytest.mark.parametrize("rows, message", [
    (["5000000,0,x,0,0,0,0"], "line 3: malformed numeric field"),
    (["5000000,nan,0,0,0,0,0"], "line 3: non-finite value"),
    (["5000000,0,0,0"], "line 3: expected at least 7 columns"),
    (["9223372036854775808,0,0,0,0,0,0"], "line 3: timestamp outside"),
    ([], "no data rows"),
])
def test_failed_parse_raises_every_time_and_writes_no_sidecar(tmp_path, rows,
                                                              message):
    p = tmp_path / "imu.csv"
    head = IMU_LINES[:2] if rows else IMU_LINES[:1]
    p.write_text("\n".join(head + rows) + "\n")
    for _ in range(2):
        with pytest.raises(data.ValidationError, match=message):
            data._read_csv_rows(p, 7)
    assert os.listdir(tmp_path) == ["imu.csv"]


# -- writers ------------------------------------------------------------------------

def write_imu_csv_reference(path, t_ns, gyro, acc):
    with open(path, "w") as f:
        f.write("t_ns,gx,gy,gz,ax,ay,az\n")
        for ti, g, a in zip(t_ns, gyro, acc):
            f.write(f"{int(ti)},{g[0]:.17g},{g[1]:.17g},{g[2]:.17g},"
                    f"{a[0]:.17g},{a[1]:.17g},{a[2]:.17g}\n")


def write_gt_csv_reference(path, t_ns, rots, pos):
    with open(path, "w") as f:
        f.write("t_ns,px,py,pz,qw,qx,qy,qz\n")
        for ti, r, p in zip(t_ns, rots, pos):
            q = so3.rot_to_quat(r)
            f.write(f"{int(ti)},{p[0]:.17g},{p[1]:.17g},{p[2]:.17g},"
                    f"{q[0]:.17g},{q[1]:.17g},{q[2]:.17g},{q[3]:.17g}\n")


def test_writers_match_per_row_reference_byte_for_byte(tmp_path):
    rng = np.random.default_rng(4)
    n = 300
    t = 1403636579758555393 + 5_000_000 * np.arange(n, dtype=np.int64)
    special = np.array([-0.0, 0.0, 5e-324, -2.2250738585072e-310,
                        2.2250738585072014e-308, 1e308, -1e308,
                        np.finfo(float).max, 0.1, -1 / 3])
    cols = rng.normal(size=(n, 6)) * 10.0 ** rng.integers(-300, 300,
                                                          size=(n, 6))
    cols[:len(special)] = special[:, None]
    rots = so3.exp_so3(rng.normal(size=(n, 3)) * 2.0)
    for name, write, ref, args in (
            ("imu", data.write_imu_csv, write_imu_csv_reference,
             (cols[:, :3], cols[:, 3:])),
            ("gt", data.write_gt_csv, write_gt_csv_reference,
             (rots, cols[:, 3:]))):
        write(tmp_path / f"{name}.csv", t, *args)
        ref(tmp_path / f"{name}_ref.csv", t, *args)
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}_ref.csv").read_bytes()), name


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(start=st.integers(0, 2**62),
       steps=st.lists(st.integers(1, 10**9), min_size=1, max_size=24),
       data_=st.data())
def test_write_then_load_is_bit_exact(tmp_path_factory, start, steps, data_):
    t = start + np.cumsum([0] + steps, dtype=np.int64)
    n = len(t)
    gyro, acc, pos = (data_.draw(hnp.arrays(np.float64, (n, 3),
                                            elements=finite))
                      for _ in range(3))
    rots = so3.exp_so3(data_.draw(hnp.arrays(
        np.float64, (n, 3), elements=st.floats(-3.0, 3.0))))
    d = tmp_path_factory.mktemp("roundtrip")
    data.write_imu_csv(d / "imu.csv", t, gyro, acc)
    data.write_gt_csv(d / "gt.csv", t, rots, pos)
    seq, gt = data.load_sequence(d / "imu.csv", d / "gt.csv")
    np.testing.assert_array_equal(seq.t, t)
    np.testing.assert_array_equal(gt.t, t)
    for got, want in ((seq.gyro, gyro), (seq.acc, acc), (gt.pos, pos)):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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


@pytest.mark.parametrize("offset_s", [1e10, -1e10, 1e300, np.inf, np.nan])
def test_align_refuses_an_offset_that_leaves_int64(offset_s):
    # the shifted stamps once wrapped around, or round() raised OverflowError
    seq, gt = scene_to_objects(make_scene(duration=1.0))
    with pytest.raises(data.ValidationError, match="out of int64"):
        data.align_ground_truth(seq, gt, offset_s=offset_s)


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
