import json
import os

import numpy as np
import pytest

from gyrodenoise import autodiff, cli, data, network


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


def test_divergence_into_large_residual_is_exit_3(tmp_path):
    # a stationary scene and a checkpoint whose constant correction turns
    # every 32-sample block by pi: log_so3 rejects the residual on the first
    # validation pass, which is divergence, not a data error
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
    argv = ["--imu", str(tmp_path / "imu.csv"), "--gt", str(tmp_path / "gt.csv"),
            "--out", str(tmp_path / "run"), "--window-len", "608", "--quiet"]
    assert run("train", *argv, "--epochs", "1", "--resume", ckpt) == cli.EXIT_DIVERGED


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
    for name in ("aoe.csv", "roe.csv", "summary.json", "roe_boxplot.svg"):
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


def test_integrate_matches_estimate_attitudes(tmp_path):
    from gyrodenoise import evaluator

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
