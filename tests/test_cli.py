import contextlib
import dataclasses
import json
import os
import threading
import types

import numpy as np
import pytest

from gyrodenoise import autodiff, cli, data, evaluator, network, trainer


def run(*argv):
    return cli.main(list(argv))


def read(*path):
    with open(os.path.join(*path)) as f:
        return f.read()


def synth_scene(tmp_path, name="scene", duration=12.0, seed=7, **extra):
    out = str(tmp_path / name)
    argv = ["synth", "--duration", str(duration), "--rate", "200",
            "--seed", str(seed), "--out", out]
    for flag, val in extra.items():
        argv += [f"--{flag.replace('_', '-')}", str(val)]
    assert run(*argv) == 0
    return out


# -- synth -------------------------------------------------------------------------

def test_synth_row_count(tmp_path):
    out = synth_scene(tmp_path, duration=60.0)
    rows = read(out, "imu.csv").strip().splitlines()
    assert len(rows) == 12_001  # header + 12,000 samples
    assert os.path.exists(os.path.join(out, "calib.json"))
    assert os.path.exists(os.path.join(out, "config_snapshot.cfg"))


def test_synth_is_deterministic(tmp_path):
    a = synth_scene(tmp_path, name="a", duration=2.0, gyro_bias="0.01,0,0")
    b = synth_scene(tmp_path, name="b", duration=2.0, gyro_bias="0.01,0,0")
    for fname in ("imu.csv", "gt.csv", "calib.json"):
        assert read(a, fname) == read(b, fname)


def test_synth_zero_rate_is_data_error(tmp_path):
    assert run("synth", "--rate", "0", "--seed", "1",
               "--out", str(tmp_path / "x")) == 2


@pytest.mark.parametrize("flag, value, named", [
    ("--noise-color", "1.0", "noise_color"),
    ("--noise-color", "1.5", "noise_color"),
    ("--noise-color", "-0.5", "noise_color"),
    ("--noise-color", "nan", "noise_color"),
    ("--gyro-bias", "nan,0,0", "bias"),
    ("--acc-bias", "0,-inf,0", "bias"),
    ("--noise-std", "0,0,0,0,0,inf", "noise_std"),
    ("--noise-std", "-0.01,0,0,0,0,0", "noise_std"),
    ("--bias-walk", "nan,0,0,0,0,0", "bias_walk_std"),
    ("--bias-walk", "0,-0.1,0,0,0,0", "bias_walk_std"),
    ("--bias-walk", "-0.1,0,0,0,0,0", "bias_walk_std"),
    ("--duration", "0", "2 samples"),
    ("--duration", "0.001", "2 samples"),
    ("--duration", "-1", "2 samples"),
    ("--duration", "nan", "2 samples"),
    ("--duration", "inf", "2 samples"),
    ("--rate", "nan", "2 samples"),
    ("--misalign", "nan", "--misalign"),
    ("--misalign", "-0.01", "--misalign"),
    ("--misalign", "inf", "--misalign"),
])
def test_synth_refuses_out_of_domain_input_before_writing(tmp_path, capsys,
                                                          flag, value, named):
    out = tmp_path / "scene"
    assert run("synth", "--seed", "1", "--duration", "2", flag, value,
               "--out", str(out)) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("gyro_bias", "-0.02,0,0"),
    ("acc_bias", "-.5,0.1,0"),
    ("noise_std", "-0.0,0,0,0.01,0,0"),
    ("bias_walk", "-0,0,0,1e-3,0,0"),
])
def test_synth_comma_list_may_start_with_a_negative_number(tmp_path, flag,
                                                           value):
    # argparse read "-0.02,0,0" after a space as an option and exited 1
    spaced = synth_scene(tmp_path, name="spaced", duration=2.0,
                         **{flag: value})
    joined = str(tmp_path / "joined")
    assert run("synth", "--duration", "2", "--rate", "200", "--seed", "7",
               f"--{flag.replace('_', '-')}={value}", "--out", joined) == 0
    for fname in ("imu.csv", "gt.csv", "calib.json"):
        assert read(spaced, fname) == read(joined, fname)


def test_synth_writes_a_two_sample_scene_at_the_bounds(tmp_path):
    out = synth_scene(tmp_path, duration=0.01, noise_color=0.0, misalign=0.0,
                      noise_std="0,0,0,0,0,0")
    assert len(read(out, "imu.csv").splitlines()) == 1 + 2


def test_synth_records_injected_calibration(tmp_path):
    out = synth_scene(tmp_path, duration=2.0, misalign=0.03,
                      gyro_bias="0.01,-0.02,0.005")
    calib = json.loads(read(out, "calib.json"))
    assert np.max(np.abs(np.array(calib["C_omega"]) - np.eye(3))) <= 0.03
    assert calib["bias"][:3] == [0.01, -0.02, 0.005]


# -- usage -------------------------------------------------------------------------

def test_unknown_subcommand_is_usage_error():
    assert run("frobnicate") == 1


def test_missing_required_flag_is_usage_error():
    assert run("synth") == 1  # --seed is required


def test_help_exits_cleanly():
    assert run("--help") == 0


def test_missing_data_is_data_error(tmp_path):
    assert run("train", "--imu", str(tmp_path / "none.csv"),
               "--gt", str(tmp_path / "none.csv"),
               "--out", str(tmp_path / "run")) == 2


def test_evaluate_rejects_unknown_method(tmp_path):
    scene = synth_scene(tmp_path, duration=2.0)
    assert run("evaluate", "--imu", os.path.join(scene, "imu.csv"),
               "--gt", os.path.join(scene, "gt.csv"),
               "--methods", "banana", "--out", str(tmp_path / "rep")) == 2


# a directory where a file is expected, a JSON file of the wrong structure,
# or a distance that is not finite and positive
DIR = "<directory>"


@pytest.mark.parametrize("command, flag, value", [
    ("evaluate", "--imu", DIR),
    ("evaluate", "--gt", DIR),
    ("evaluate", "--checkpoint", DIR),
    ("evaluate", "--config", DIR),
    ("report", "--summary", DIR),
    ("evaluate", "--checkpoint", "[]"),
    ("report", "--summary", "{}"),
    ("evaluate", "--distances", "0"),
    ("evaluate", "--distances", "-7"),
    ("evaluate", "--distances", "nan"),
])
def test_malformed_input_exits_2_with_one_error_line(tmp_path, capsys,
                                                     command, flag, value):
    scene = synth_scene(tmp_path, duration=2.0)
    ckpt = str(tmp_path / "ckpt.json")
    network.save_checkpoint(ckpt, network.ModelParams())
    if command == "evaluate":
        flags = {"--imu": os.path.join(scene, "imu.csv"),
                 "--gt": os.path.join(scene, "gt.csv"),
                 "--checkpoint": ckpt, "--distances": "7"}
    else:
        assert run("evaluate", "--imu", os.path.join(scene, "imu.csv"),
                   "--gt", os.path.join(scene, "gt.csv"), "--methods", "raw",
                   "--distances", "0.5", "--out", str(tmp_path / "rep")) == 0
        flags = {"--summary": str(tmp_path / "rep" / "summary.json")}
    if value == DIR:
        value = str(tmp_path)
    elif value.startswith(("[", "{")):
        path = tmp_path / "rep" / "malformed.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(value)
        value = str(path)
    flags[flag] = value
    argv = [command, *(f"{k}={v}" for k, v in flags.items()),
            "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_evaluate_defaults_are_the_evaluators():
    args = cli.build_parser().parse_args(["evaluate"])
    assert args.methods == "raw,calibrated,proposed,zero"
    assert args.distances == "7,21,35"
    assert tuple(args.methods.split(",")) == evaluator.METHODS
    assert tuple(float(d) for d in args.distances.split(",")) == \
        evaluator.DEFAULT_DISTANCES


# -- training workflows ------------------------------------------------------------

def train_args(scene, outdir):
    return ["--imu", os.path.join(scene, "imu.csv"),
            "--gt", os.path.join(scene, "gt.csv"),
            "--out", outdir, "--window-len", "608",
            "--val-every", "1", "--quiet"]


def test_train_smoke_writes_checkpoint_and_log(tmp_path):
    scene = synth_scene(tmp_path, duration=20.0, gyro_bias="0.02,0,0")
    outdir = str(tmp_path / "run")
    assert run("train", *train_args(scene, outdir), "--epochs", "2") == 0
    assert os.path.exists(os.path.join(outdir, "checkpoint.json"))
    lines = read(outdir, "metrics.csv").strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,lr"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [1, 2]


def test_train_resume_continues_log_without_gaps(tmp_path):
    scene = synth_scene(tmp_path, duration=20.0, gyro_bias="0.02,0,0")
    outdir = str(tmp_path / "run")
    assert run("train", *train_args(scene, outdir), "--epochs", "2") == 0
    assert run("train", *train_args(scene, outdir), "--epochs", "4",
               "--resume", os.path.join(outdir, "checkpoint_last.json")) == 0
    lines = read(outdir, "metrics.csv").strip().splitlines()
    epochs = [int(l.split(",")[0]) for l in lines[1:]]
    assert epochs == [1, 2, 3, 4]


def test_calibrate_writes_recovered_calibration(tmp_path):
    scene = synth_scene(tmp_path, duration=20.0, gyro_bias="0.02,-0.01,0.015")
    outdir = str(tmp_path / "cal")
    assert run("calibrate", *train_args(scene, outdir), "--epochs", "30",
               "--restart-period", "30") == 0
    cal = json.loads(read(outdir, "calibration.json"))
    assert np.array(cal["C_omega"]).shape == (3, 3)
    assert len(cal["gyro_bias"]) == 3


def diverging_train_args(tmp_path):
    """train flags for a stationary scene resumed from a checkpoint whose
    constant correction turns every 32-sample block by pi: log_so3 rejects
    the residual on the first validation pass, which is divergence, not a
    data error."""
    n = 4000
    seq = data.ImuSequence(np.arange(n) * 5_000_000, np.zeros((n, 3)),
                           np.zeros((n, 3)))
    data.write_imu_csv(tmp_path / "imu.csv", seq.t, seq.gyro, seq.acc)
    data.write_gt_csv(tmp_path / "gt.csv", seq.t,
                      np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 3)))
    params = network.ModelParams()
    params.conv_b[-1].data[0] = np.pi / (32 * seq.dt)
    ckpt = str(tmp_path / "diverged.json")
    network.save_checkpoint(ckpt, params)
    return ["--imu", str(tmp_path / "imu.csv"), "--gt", str(tmp_path / "gt.csv"),
            "--out", str(tmp_path / "run"), "--window-len", "608", "--quiet",
            "--epochs", "1", "--resume", ckpt]


def test_divergence_into_large_residual_is_exit_3(tmp_path):
    assert run("train", *diverging_train_args(tmp_path)) == cli.EXIT_DIVERGED


@pytest.mark.parametrize("flag, value, message", [
    ("--lr0", "nan", "lr0 must be finite"),
    ("--augment-std", "nan", "augment_std must be finite"),
    ("--weight-decay", "inf", "weight_decay must be finite"),
    ("--val-frac", "-0.5", "--val-frac -0.5: must be in [0, 1)"),
    ("--val-frac", "nan", "--val-frac nan: must be in [0, 1)"),
    ("--val-frac", "1", "--val-frac 1.0: must be in [0, 1)"),
])
@pytest.mark.parametrize("command", ["train", "calibrate"])
def test_bad_fit_setting_is_data_error_before_loading(tmp_path, capsys,
                                                      command, flag, value,
                                                      message):
    # the data files do not exist: the check must fail before any load
    missing = str(tmp_path / "none.csv")
    assert run(command, "--imu", missing, "--gt", missing, "--out",
               str(tmp_path / "run"), flag, value) == cli.EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("train.window_len = 1e3", "config key 'train.window_len': invalid "
                               "literal for int() with base 10: '1e3'"),
    ("train.lr0 = fast", "config key 'train.lr0': could not convert"),
    ("loss.js = 16,x", "config key 'loss.js': invalid literal for int()"),
    ("loss.huber_delta = 1/2", "config key 'loss.huber_delta': could not"),
    ("net.dropout = half", "config key 'net.dropout': could not convert"),
    ("net.dropout = -0.1", "dropout -0.1: must be in [0, 1)"),
    ("net.dropout = nan", "dropout nan: must be in [0, 1)"),
    ("net.dropout = 1.5", "dropout 1.5: must be in [0, 1)"),
])
def test_bad_config_setting_is_data_error_before_loading(tmp_path, capsys,
                                                         line, message):
    # data_root holds no data: the check must fail before any load
    path = write_config(tmp_path, (f"data_root = {tmp_path}\n"
                                   f"split.s1 = train\n{line}\n"))
    assert run("train", "--config", path,
               "--out", str(tmp_path / "run")) == cli.EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, defaults, dropout", [
    ("train", {}, "0.1"),
    ("calibrate", dict(restart_period=100, weight_decay=0.0, augment_std=0.0),
     "0.0"),
])
def test_fit_snapshot_records_every_resolved_setting(tmp_path, command,
                                                     defaults, dropout):
    synth_scene(tmp_path, name="s1", duration=12.0)
    path = write_config(tmp_path, (
        f"data_root = {tmp_path}\nsplit.s1 = train\ntrain.lr0 = 0.005\n"
        "train.window_len = 640\nloss.huber_delta = 0.01\n"))
    outdir = tmp_path / "run"
    assert run(command, "--config", path, "--out", str(outdir),
               "--epochs", "1", "--quiet") == 0
    tcfg = trainer.TrainConfig(**defaults, epochs=1, lr0=0.005,
                               window_len=640)
    want = {f"train.{f}": str(v) for f, v in dataclasses.asdict(tcfg).items()}
    want.update({"loss.js": "16,32", "loss.huber_delta": "0.01",
                 "net.dropout": dropout})
    snapshot = data.parse_config(outdir / "config_snapshot.cfg")
    assert {key: snapshot.get(key) for key in want} == want


def test_val_frac_zero_validates_on_the_training_data(tmp_path):
    scene = synth_scene(tmp_path, duration=20.0, gyro_bias="0.02,0,0")
    outdir = str(tmp_path / "run")
    assert run("train", *train_args(scene, outdir), "--epochs", "1",
               "--val-frac", "0") == 0
    rows = read(outdir, "metrics.csv").strip().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[2]


def test_train_is_reproducible(tmp_path):
    scene = synth_scene(tmp_path, duration=20.0, gyro_bias="0.02,0,0")
    for name in ("r1", "r2"):
        assert run("train", *train_args(scene, str(tmp_path / name)),
                   "--epochs", "2", "--seed", "5") == 0
    m1 = read(tmp_path, "r1", "metrics.csv")
    m2 = read(tmp_path, "r2", "metrics.csv")
    assert m1 == m2
    c1 = read(tmp_path, "r1", "checkpoint.json")
    c2 = read(tmp_path, "r2", "checkpoint.json")
    assert c1 == c2


@pytest.mark.parametrize("command", ["train", "calibrate"])
def test_fit_through_the_lane_writes_the_bytes_of_one_thread(
        tmp_path, monkeypatch, lane_handoffs, command):
    # the command with every kernel split handed to the lane, against fit
    # on one BLAS thread with the lane never opened
    scene = synth_scene(tmp_path, duration=20.0, gyro_bias="0.02,-0.01,0")
    epochs = ["--epochs", "2", "--restart-period", "2"]
    monkeypatch.setattr(autodiff, "LANE_MIN_SIZE", 0)
    assert run(command, *train_args(scene, str(tmp_path / "lane")),
               *epochs) == 0
    assert lane_handoffs
    lane_handoffs.clear()
    monkeypatch.setattr(autodiff, "compute_lane", contextlib.nullcontext)
    assert run(command, *train_args(scene, str(tmp_path / "inline")),
               *epochs) == 0
    assert lane_handoffs == []
    names = ["metrics.csv", "checkpoint.json", "checkpoint_last.json"]
    if command == "calibrate":
        names.append("calibration.json")
    for name in names:
        with open(tmp_path / "lane" / name, "rb") as f:
            lane = f.read()
        with open(tmp_path / "inline" / name, "rb") as f:
            assert f.read() == lane, name


@pytest.mark.parametrize("command", ["train", "calibrate"])
def test_fit_leaves_no_thread_behind(tmp_path, monkeypatch, lane_handoffs,
                                    command):
    scene = synth_scene(tmp_path, duration=20.0, gyro_bias="0.02,0,0")
    monkeypatch.setattr(autodiff, "LANE_MIN_SIZE", 0)
    threads = threading.active_count()
    assert run(command, *train_args(scene, str(tmp_path / "run")),
               "--epochs", "1") == 0
    assert lane_handoffs
    assert threading.active_count() == threads


def test_divergence_leaves_no_thread_behind(tmp_path, monkeypatch,
                                            lane_handoffs):
    # a validation part of three windows, so that its forward uses the lane
    argv = diverging_train_args(tmp_path) + ["--val-frac", "0.5"]
    monkeypatch.setattr(autodiff, "LANE_MIN_SIZE", 0)
    threads = threading.active_count()
    assert run("train", *argv) == cli.EXIT_DIVERGED
    assert lane_handoffs
    assert threading.active_count() == threads


# -- evaluate / report -------------------------------------------------------------

def test_evaluate_and_report_roundtrip(tmp_path):
    scene = synth_scene(tmp_path, duration=40.0, gyro_bias="0.02,0,0")
    rep = str(tmp_path / "rep")
    assert run("evaluate", "--imu", os.path.join(scene, "imu.csv"),
               "--gt", os.path.join(scene, "gt.csv"),
               "--methods", "raw,zero", "--distances", "7,21",
               "--out", rep) == 0
    aoe_rows = read(rep, "aoe.csv").strip().splitlines()
    assert len(aoe_rows) == 3  # header + 2 methods
    regen = str(tmp_path / "regen")
    assert run("report", "--summary", os.path.join(rep, "summary.json"),
               "--out", regen) == 0
    for name in ("aoe.csv", "roe.npy", "summary.json", "roe_boxplot.svg"):
        with open(os.path.join(regen, name), "rb") as f:
            regenerated = f.read()
        with open(os.path.join(rep, name), "rb") as f:
            assert regenerated == f.read(), name


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--duration", "1", "--rate", "200", "--seed", "1",
               "--out", "envscene") == 0
    assert (tmp_path / "envscene" / "imu.csv").exists()


def write_config(tmp_path, text, name="split.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_loss_config_keys(tmp_path):
    cfg = cli._read_config(write_config(
        tmp_path, "loss.js = 8,16\nloss.huber_delta = 0.01\ntrain.epochs = 3\n"))
    lcfg = cli._loss_config(cfg)
    assert lcfg.js == (8, 16) and lcfg.huber_delta == 0.01
    # the sample period is the data's, never a loss key
    for key in ("loss.dt", "loss.window"):
        with pytest.raises(data.ValidationError, match="unknown loss config"):
            cli._read_config(write_config(tmp_path, f"{key} = 0.005\n"))


def test_unknown_loss_config_key_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "split.cfg"
    cfg.write_text(f"data_root = {tmp_path}\nsplit.s1 = train\nloss.dt = 0.005\n")
    assert run("train", "--config", str(cfg), "--out",
               str(tmp_path / "run")) == cli.EXIT_DATA
    assert "unknown loss config key 'dt'" in capsys.readouterr().err


def test_unknown_net_config_key_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "split.cfg"
    cfg.write_text(f"data_root = {tmp_path}\nsplit.s1 = train\nnet.dropuot = 0.2\n")
    assert run("train", "--config", str(cfg), "--out",
               str(tmp_path / "run")) == cli.EXIT_DATA
    assert "unknown net config key 'dropuot'" in capsys.readouterr().err


def test_config_file_split_workflow(tmp_path):
    for name, seed in (("s1", 1), ("s2", 2)):
        synth_scene(tmp_path, name=name, duration=12.0, seed=seed,
                    gyro_bias="0.02,0,0")
    cfg = tmp_path / "split.cfg"
    cfg.write_text(
        f"format = synth\n"
        f"data_root = {tmp_path}\n"
        "split.s1 = train\n"
        "split.s2 = val\n"
        "train.epochs = 1\n"
        "train.window_len = 608\n"
        "train.val_every = 1\n"
    )
    outdir = str(tmp_path / "cfgrun")
    assert run("train", "--config", str(cfg), "--out", outdir,
               "--quiet") == 0
    assert os.path.exists(os.path.join(outdir, "checkpoint.json"))


# -- config splits -----------------------------------------------------------------

def test_split_layout_of_the_shipped_configs(tmp_path):
    # configs/euroc.cfg's layout on three 30 s, 200 Hz scenes: two windowed
    # train+val sequences and one windowed test sequence with a clock offset
    for name, seed in (("a", 1), ("b", 2), ("c", 3)):
        synth_scene(tmp_path, name=name, duration=30.0, seed=seed)
    path = write_config(tmp_path, (
        f"format = synth\ndata_root = {tmp_path}\n"
        "split.a = train+val\nwindow.a = 0, 20\n"
        "split.b = train+val\nwindow.b = 2.5, 20\n"
        "split.c = test\nwindow.c = 3, 27.125\noffset.c = 0.0125\n"))
    dataset = cli._load_split(cli._read_config(path))
    # (role, name): (samples, first stamp, last stamp), stamps in ns
    want = {("train", "a"): (4001, 0, 20_000_000_000),
            ("train", "b"): (3501, 2_500_000_000, 20_000_000_000),
            ("val", "a"): (1999, 20_005_000_000, 29_995_000_000),
            ("val", "b"): (1999, 20_005_000_000, 29_995_000_000),
            ("test", "c"): (4826, 3_000_000_000, 27_125_000_000)}
    got = {(role, name): (len(seq), seq.t[0], seq.t[-1])
           for role, parts in dataset.items() for name, seq, _ in parts}
    assert got == want
    for role, parts in dataset.items():
        for name, seq, gt in parts:
            whole, whole_gt = data.load_sequence(
                os.path.join(tmp_path, name, "imu.csv"),
                os.path.join(tmp_path, name, "gt.csv"), name)
            whole_gt = data.align_ground_truth(
                whole, whole_gt, offset_s=0.0125 if name == "c" else 0.0)
            start = int(np.searchsorted(whole.t, seq.t[0]))
            stop = start + len(seq)
            pairs = [(getattr(seq, f), getattr(whole, f))
                     for f in ("t", "gyro", "acc")]
            pairs += [(getattr(gt, f), getattr(whole_gt, f))
                      for f in ("t", "rot", "pos", "gap_mask")]
            for part, full in pairs:
                np.testing.assert_array_equal(part, full[start:stop])


@pytest.mark.parametrize("command, role, window, part", [
    ("evaluate", "test", "window.s1 = 100, 200\n", "test"),
    ("train", "train+val", "", "val"),  # a 30 s recording, 50 s to train
])
def test_split_part_under_two_samples_is_data_error(tmp_path, capsys, command,
                                                    role, window, part):
    synth_scene(tmp_path, name="s1", duration=30.0)
    path = write_config(
        tmp_path, f"data_root = {tmp_path}\nsplit.s1 = {role}\n{window}")
    assert run(command, "--config", path,
               "--out", str(tmp_path / "run")) == cli.EXIT_DATA
    assert f"sequence 's1': the {part} part holds 0" in capsys.readouterr().err


def test_split_part_without_ground_truth_is_data_error(tmp_path, capsys):
    # the ground-truth clock runs 20 s late: nothing covers the first 10 s
    synth_scene(tmp_path, name="s1", duration=30.0)
    path = write_config(tmp_path, (f"data_root = {tmp_path}\nsplit.s1 = test\n"
                                   "window.s1 = 0, 10\noffset.s1 = 20\n"))
    assert run("evaluate", "--config", path,
               "--out", str(tmp_path / "rep")) == cli.EXIT_DATA
    assert "sequence 's1': no ground truth covers the test part" in \
        capsys.readouterr().err


@pytest.mark.parametrize("line", ["offset.S1 = 0.5", "window.s2 = 0, 1",
                                  "imu.s3 = imu.csv"])
def test_sequence_key_naming_no_split_sequence_is_data_error(tmp_path, capsys,
                                                             line):
    # with a readable s1, such a key was ignored and evaluate exited 0
    synth_scene(tmp_path, name="s1", duration=4.0)
    path = write_config(tmp_path, (f"data_root = {tmp_path}\n"
                                   f"split.s1 = test\n{line}\n"))
    assert run("evaluate", "--config", path, "--methods", "raw", "--distances",
               "1", "--out", str(tmp_path / "rep")) == cli.EXIT_DATA
    key = line.split(" = ")[0]
    assert f"config key '{key}' names no split sequence" in \
        capsys.readouterr().err


def test_evaluate_on_config_without_sequences_is_data_error(tmp_path, capsys):
    # an empty config once wrote an empty aoe.csv and exited 0
    path = write_config(tmp_path, "")
    assert run("evaluate", "--config", path,
               "--out", str(tmp_path / "rep")) == cli.EXIT_DATA
    assert "names no test or train sequence" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "rep" / "aoe.csv")


@pytest.mark.parametrize("line, message", [
    ("window.c = 0", "config key 'window.c' of sequence 'c' needs two "
                     "comma-separated numbers (start, end in s), got '0'"),
    ("offset.a = half", "config key 'offset.a' of sequence 'a' needs one "
                        "number (s), got 'half'"),
])
def test_malformed_window_or_offset_is_data_error_before_loading(
        tmp_path, capsys, line, message):
    # data_root holds no data: the value check must fail before any load
    path = write_config(tmp_path, (f"data_root = {tmp_path}\n"
                                   f"split.a = test\nsplit.c = test\n{line}\n"))
    assert run("evaluate", "--config", path,
               "--out", str(tmp_path / "rep")) == cli.EXIT_DATA
    assert message in capsys.readouterr().err


# -- config keys -------------------------------------------------------------------

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.mark.parametrize("line, message", [
    ("offest.s1 = 0.1", "unknown config key 'offest.s1'"),
    ("rate = 200", "the sample period is measured"),
    ("format = kitti", "unknown format 'kitti'"),
])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_unknown_config_key_is_data_error_before_loading(tmp_path, capsys,
                                                         command, line,
                                                         message):
    # data_root holds no data: the key check must fail before any load
    cfg = tmp_path / "split.cfg"
    cfg.write_text(f"data_root = {tmp_path}\nsplit.s1 = test\n{line}\n")
    assert run(command, "--config", str(cfg), "--out",
               str(tmp_path / "run")) == cli.EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["euroc.cfg", "tumvi.cfg"])
def test_shipped_configs_pass_the_key_checks(name):
    path = os.path.join(CONFIGS, name)
    cfg = cli._read_config(path)
    args = cli.build_parser().parse_args(["train", "--config", path])
    cli._train_config(args, cfg)
    cli._loss_config(cfg)


def test_adam_constants_are_not_train_config_keys(tmp_path):
    for key in ("train.beta1", "train.beta2", "train.eps",
                "train.restart_mult", "train.lr_min"):
        with pytest.raises(data.ValidationError,
                           match="unknown train config key"):
            cli._read_config(write_config(tmp_path, f"{key} = 0.5\n"))
    for flag in ("--restart-mult", "--lr-min"):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["train", flag, "0.5"])


# -- sample period -----------------------------------------------------------------

def test_evaluate_100hz_scene_needs_no_rate(tmp_path):
    scene = str(tmp_path / "scene100")
    assert run("synth", "--rate", "100", "--duration", "20", "--seed", "7",
               "--out", scene) == 0
    assert run("evaluate", "--imu", os.path.join(scene, "imu.csv"),
               "--gt", os.path.join(scene, "gt.csv"),
               "--methods", "raw,zero", "--distances", "7",
               "--out", str(tmp_path / "rep")) == 0


# -- checkpoints and methods -------------------------------------------------------

def test_proposed_on_calibrate_checkpoint_is_data_error(tmp_path, capsys):
    scene = synth_scene(tmp_path, duration=12.0, gyro_bias="0.02,0,0")
    ckpt = str(tmp_path / "cal.json")
    network.save_checkpoint(ckpt, network.ModelParams(),
                            extra={"epoch": 1, "zero_input": True})
    io = ["--imu", os.path.join(scene, "imu.csv"),
          "--gt", os.path.join(scene, "gt.csv"), "--checkpoint", ckpt]
    rep = ["--distances", "7", "--out", str(tmp_path / "rep")]
    assert run("evaluate", *io, *rep) == cli.EXIT_DATA
    assert "use method 'calibrated'" in capsys.readouterr().err
    assert run("evaluate", *io, *rep, "--methods", "raw,calibrated,zero") == 0
    out = ["--out", str(tmp_path / "att.csv")]
    assert run("integrate", *io, *out) == cli.EXIT_DATA
    assert "use method 'calibrated'" in capsys.readouterr().err
    assert run("integrate", *io, *out, "--method", "calibrated") == 0


def test_evaluate_on_truncated_checkpoint_is_data_error(tmp_path, capsys):
    scene = synth_scene(tmp_path, duration=12.0)
    ckpt = tmp_path / "ckpt.json"
    network.save_checkpoint(ckpt, network.ModelParams())
    payload = json.loads(ckpt.read_text())
    spec = payload["tensors"]["conv0.w"]
    spec["data"] = spec["data"][:-4]
    ckpt.write_text(json.dumps(payload))
    assert run("evaluate", "--imu", os.path.join(scene, "imu.csv"),
               "--gt", os.path.join(scene, "gt.csv"),
               "--checkpoint", str(ckpt), "--distances", "7",
               "--out", str(tmp_path / "rep")) == cli.EXIT_DATA
    assert "checkpoint conv0.w" in capsys.readouterr().err


@pytest.mark.parametrize("drop, message", [
    (("config", "dropout"), "no key 'dropout'"),
    (("input_std",), "no key 'input_std'"),
    (("tensors", "conv0.w", "data"), "no key 'data'"),
    (("tensors", "conv3.b"), "no key 'conv3.b'"),
    (("bn_running", 3), "has 3 batchnorm layers, the model 4"),
])
def test_evaluate_on_checkpoint_missing_a_key_is_data_error(tmp_path, capsys,
                                                             drop, message):
    scene = synth_scene(tmp_path, duration=12.0)
    ckpt = tmp_path / "ckpt.json"
    network.save_checkpoint(ckpt, network.ModelParams())
    payload = json.loads(ckpt.read_text())
    node = payload
    for key in drop[:-1]:
        node = node[key]
    del node[drop[-1]]
    ckpt.write_text(json.dumps(payload))
    assert run("evaluate", "--imu", os.path.join(scene, "imu.csv"),
               "--gt", os.path.join(scene, "gt.csv"),
               "--checkpoint", str(ckpt), "--distances", "7",
               "--out", str(tmp_path / "rep")) == cli.EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("methods", ["raw,calibrated,proposed,zero",
                                     "raw,proposed,zero"])
def test_evaluate_with_nan_final_bias_is_data_error(tmp_path, capsys,
                                                    methods):
    # the proposed track fails on the worker thread (and calibrated, when
    # asked for, on the main one); either way the command exits 2 with
    # the serial run's message and leaves no thread behind
    scene = synth_scene(tmp_path, duration=12.0)
    params = network.ModelParams()
    params.conv_b[-1].data = np.array([0.0, np.nan, 0.0])
    ckpt = str(tmp_path / "nan.json")
    network.save_checkpoint(ckpt, params)
    threads = threading.active_count()
    assert run("evaluate", "--imu", os.path.join(scene, "imu.csv"),
               "--gt", os.path.join(scene, "gt.csv"), "--checkpoint", ckpt,
               "--methods", methods, "--distances", "7",
               "--out", str(tmp_path / "rep")) == cli.EXIT_DATA
    assert capsys.readouterr().err == \
        "error: non-finite angular rate at index 0\n"
    assert threading.active_count() == threads


def test_evaluate_leaves_no_thread_behind(tmp_path):
    scene = synth_scene(tmp_path, duration=12.0)
    params = network.ModelParams()
    params.conv_w[-1].data = np.full(params.conv_w[-1].shape, 1e-4)
    ckpt = str(tmp_path / "ckpt.json")
    network.save_checkpoint(ckpt, params)
    threads = threading.active_count()
    assert run("evaluate", "--imu", os.path.join(scene, "imu.csv"),
               "--gt", os.path.join(scene, "gt.csv"), "--checkpoint", ckpt,
               "--distances", "7", "--out", str(tmp_path / "rep")) == 0
    assert threading.active_count() == threads
    with open(tmp_path / "rep" / "aoe.csv") as f:
        assert [row.split(",")[0] for row in f.read().splitlines()[1:]] == [
            "raw", "calibrated", "proposed", "zero"]


def test_evaluate_scores_proposed_on_the_lane(tmp_path, monkeypatch):
    # one worker thread per command: the one that main's compute lane owns
    scene = synth_scene(tmp_path, duration=12.0)
    ckpt = str(tmp_path / "ckpt.json")
    network.save_checkpoint(ckpt, network.ModelParams())
    names = {}
    estimate = evaluator.estimate_attitudes

    def recorded(method, *args):
        names[method] = threading.current_thread().name
        return estimate(method, *args)

    monkeypatch.setattr(evaluator, "estimate_attitudes", recorded)
    assert run("evaluate", "--imu", os.path.join(scene, "imu.csv"),
               "--gt", os.path.join(scene, "gt.csv"), "--checkpoint", ckpt,
               "--distances", "7", "--out", str(tmp_path / "rep")) == 0
    assert names.pop("proposed").startswith("autodiff-lane")
    assert set(names.values()) == {threading.current_thread().name}


def test_integrate_matches_estimate_attitudes(tmp_path):
    scene = synth_scene(tmp_path, duration=20.0, gyro_bias="0.02,0,0")
    outdir = str(tmp_path / "run")
    assert run("train", *train_args(scene, outdir), "--epochs", "1") == 0
    ckpt = os.path.join(outdir, "checkpoint.json")
    params, _ = network.load_checkpoint(ckpt)
    imu_path = os.path.join(scene, "imu.csv")
    seq, gt = data.load_sequence(imu_path, os.path.join(scene, "gt.csv"))
    aligned = data.align_ground_truth(seq, gt)
    for method in ("proposed", "calibrated"):
        att = str(tmp_path / f"{method}.csv")
        assert run("integrate", "--checkpoint", ckpt, "--imu", imu_path,
                   "--gt", os.path.join(scene, "gt.csv"),
                   "--method", method, "--out", att) == 0
        _, written = data.load_sequence(imu_path, att)
        assert len(written) == len(seq) + 1
        np.testing.assert_array_equal(written.t[:-1], seq.t)
        want = evaluator.estimate_attitudes(method, seq, aligned, params)
        np.testing.assert_allclose(written.rot[:-1], want, rtol=0, atol=1e-9)


# -- docs --------------------------------------------------------------------------

def readme_commands():
    """Every `gyrodenoise ...` line in README.md code blocks, with its `\\`
    continuation lines joined."""
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    commands, in_block, pending = [], False, None
    for line in read(path).splitlines():
        if line.startswith("```"):
            in_block = not in_block
            continue
        if pending is not None:
            pending += " " + line.strip()
        elif in_block and line.startswith("gyrodenoise "):
            pending = line.strip()
        else:
            continue
        if pending.endswith("\\"):
            pending = pending[:-1]
        else:
            commands.append(pending)
            pending = None
    return commands


def test_readme_commands_parse():
    import shlex

    commands = readme_commands()
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
    assert {"synth", "calibrate", "train", "evaluate"} <= {
        shlex.split(c)[1] for c in commands}


def test_commands_run_on_one_blas_thread(monkeypatch):
    fns = autodiff._openblas_thread_fns()
    if fns is None:
        pytest.skip("numpy does not link OpenBLAS")
    seen = []
    monkeypatch.setattr(cli, "cmd_report",
                        lambda args: seen.append(fns[0]()) or cli.EXIT_OK)
    assert cli.main(["report", "--summary", "unused.json"]) == cli.EXIT_OK
    assert seen == [1]


def test_commands_keep_freed_memory(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(1))
    monkeypatch.setattr(cli, "cmd_report", lambda args: cli.EXIT_OK)
    assert cli.main(["report", "--summary", "unused.json"]) == cli.EXIT_OK
    assert calls == [1]


def test_keep_freed_memory_is_not_applied_without_mallopt(monkeypatch):
    assert cli._keep_freed_memory() in (True, False)
    # a libc that ctypes finds, but with no mallopt
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: types.SimpleNamespace(
        gnu_get_libc_version=lambda: b"2.35"))
    assert cli._keep_freed_memory() is False
