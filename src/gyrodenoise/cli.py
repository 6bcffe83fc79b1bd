"""Command-line interface binding the library into reproducible workflows.

Subcommands:
  synth      generate a synthetic scene (IMU CSV, ground-truth CSV, and a
             calibration manifest recording the injected parameters)
  calibrate  fit the static-calibration model (zeroed network input)
  train      fit the full correction network
  integrate  run open-loop attitude integration with a checkpoint
  evaluate   compute AOE/ROE for the baseline methods and write reports
  report     rebuild the report files from summary.json and roe.npy

Exit codes: 0 success, 1 usage error, 2 data validation error,
3 numerical divergence.

The environment variable GYRODENOISE_OUT, when set, is prepended to
relative output paths so batch runs can redirect everything at once.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import re
import sys

import numpy as np

from . import autodiff, data, evaluator, imu, loss, network, trainer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

OUT_ENV = "GYRODENOISE_OUT"

# glibc's mallopt parameters, and the largest block the heap serves: every
# activation of a default training step is below it
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_HEAP_MMAP_THRESHOLD = 32 * 1024 * 1024


def _resolve_out(path):
    root = os.environ.get(OUT_ENV)
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def _vec(text, n, name):
    parts = [float(x) for x in text.split(",")]
    if len(parts) != n:
        raise data.ValidationError(f"{name} needs {n} comma-separated values")
    return np.array(parts)


def _write_snapshot(outdir, args, extra=None):
    """Record the command's flags, then extra's config keys and values."""
    lines = [f"command = {args.command}"]
    for key, val in sorted(vars(args).items()):
        if key in ("command", "func") or val is None:
            continue
        lines.append(f"{key} = {val}")
    for key, val in (extra or {}).items():
        lines.append(f"{key} = {val}")
    with open(os.path.join(outdir, "config_snapshot.cfg"), "w") as f:
        f.write("\n".join(lines) + "\n")


# -- dataset plumbing --------------------------------------------------------------

# each TrainConfig field's value type, for its train.* config key and its flag
TRAIN_FIELDS = {f.name: type(f.default)
                for f in dataclasses.fields(trainer.TrainConfig)}


def _read_config(path):
    """Parse a dataset config file and check every key before data loads.

    Keys: format (euroc, tumvi or synth), data_root, split.NAME (train,
    val, test or train+val), window.NAME (start, end in s from the first
    stamp), imu.NAME / gt.NAME path overrides, offset.NAME (ground-truth
    clock offset, s), train.<TrainConfig field>, loss.js, loss.huber_delta
    and net.dropout. Any other key, a per-sequence key whose NAME has no
    split. key, an unknown role, a window or offset value that is not two
    comma-separated numbers or one number, or a train, loss or net value
    of the wrong type is a ValidationError. Returns the flat dict, with
    the train, loss and net values converted.
    """
    cfg = data.parse_config(path)
    names = {key[len("split."):] for key in cfg if key.startswith("split.")}
    members = {"train": TRAIN_FIELDS, "net": {"dropout": float},
               "loss": {"huber_delta": float,
                        "js": lambda s: tuple(int(x) for x in s.split(","))}}
    for key, val in list(cfg.items()):
        group, _, member = key.partition(".")
        if group in ("split", "window", "imu", "gt", "offset") and member:
            if member not in names:
                raise data.ValidationError(
                    f"config key {key!r} names no split sequence")
            if group == "split" and val not in ("train", "val", "test",
                                                "train+val"):
                raise data.ValidationError(f"unknown split role {val!r}")
            if group in ("window", "offset"):
                _check_numbers(key, member, val, 2 if group == "window" else 1)
        elif group in members and member:
            if member not in members[group]:
                raise data.ValidationError(
                    f"unknown {group} config key {member!r}")
            try:
                cfg[key] = members[group][member](val)
            except ValueError as err:
                raise data.ValidationError(
                    f"config key {key!r}: {err}") from None
        elif key not in ("format", "data_root"):
            why = ": the sample period is measured" if key == "rate" else ""
            raise data.ValidationError(f"unknown config key {key!r}{why}")
    return cfg


def _check_numbers(key, name, text, count):
    what = ("two comma-separated numbers (start, end in s)" if count == 2
            else "one number (s)")
    try:
        ok = len([float(x) for x in text.split(",")]) == count
    except ValueError:
        ok = False
    if not ok:
        raise data.ValidationError(
            f"config key {key!r} of sequence {name!r} needs {what}, "
            f"got {text!r}")


def _sequence_paths(root, name, fmt):
    if fmt in ("euroc", "tumvi"):
        base = os.path.join(root, name, "mav0")
        return (os.path.join(base, "imu0", "data.csv"),
                os.path.join(base, "state_groundtruth_estimate0", "data.csv"))
    if fmt != "synth":
        raise data.ValidationError(f"unknown format {fmt!r}")
    return (os.path.join(root, name, "imu.csv"),
            os.path.join(root, name, "gt.csv"))


def _part(label, part, seq, aligned, start, stop):
    """Samples [start, stop) of a recording and of its aligned ground truth,
    as a (label, ImuSequence, GroundTruth) triple."""
    if stop - start < 2:
        raise data.ValidationError(
            f"sequence {seq.name!r}: the {part} part holds "
            f"{max(stop - start, 0)} IMU samples; it needs at least two")
    if aligned.gap_mask[start:stop].all():
        raise data.ValidationError(
            f"sequence {seq.name!r}: no ground truth covers the {part} part")
    return (label, seq.window(start, stop), aligned.window(start, stop))


def _load_split(cfg):
    """Load every split.NAME sequence of a config from _read_config.

    Each recording is aligned to its ground truth once, and every part is
    an index slice of it. A train+val sequence trains on its window
    (default 0, 50 s) and validates on what follows; any other role takes
    its window, or the whole recording. The sample period is each
    sequence's own, measured from its stamps.
    Returns {role: [(name, ImuSequence, aligned GroundTruth), ...]}.
    """
    fmt = cfg.get("format", "synth")
    root = cfg.get("data_root", ".")
    out = {"train": [], "val": [], "test": []}
    for key, role in sorted(cfg.items()):
        if not key.startswith("split."):
            continue
        name = key[len("split."):]
        imu_path, gt_path = _sequence_paths(root, name, fmt)
        seq, gt = data.load_sequence(cfg.get(f"imu.{name}", imu_path),
                                     cfg.get(f"gt.{name}", gt_path), name)
        aligned = data.align_ground_truth(
            seq, gt, offset_s=float(cfg.get(f"offset.{name}", 0.0)))
        window = cfg.get(f"window.{name}",
                         "0, 50" if role == "train+val" else "0, inf")
        lo, hi = (float(x) * 1e9 for x in window.split(","))
        rel = seq.t - seq.t[0]
        start = int(np.searchsorted(rel, lo))
        stop = int(np.searchsorted(rel, hi, side="right"))
        if role == "train+val":
            out["train"].append(_part(name, "train", seq, aligned, start, stop))
            out["val"].append(_part(name, "val", seq, aligned, stop, len(seq)))
        else:
            out[role].append(_part(name, role, seq, aligned, start, stop))
    return out


def _load_dataset(args, cfg):
    """Dataset from either --config (cfg, from _read_config) or a single
    --imu/--gt pair.

    The single-sequence form splits the recording in time: the leading
    (1 - val_frac) goes to train, the rest to val; evaluate uses it whole.
    At val_frac 0 the whole recording trains, and fit validates on it.
    """
    if args.config:
        return _load_split(cfg)
    if not (args.imu and args.gt):
        raise data.ValidationError("provide --config or both --imu and --gt")
    seq, gt = data.load_sequence(args.imu, args.gt,
                                 name=os.path.basename(args.imu))
    aligned = data.align_ground_truth(seq, gt)
    frac = getattr(args, "val_frac", 0.0)  # in [0, 1): _run_fit checks it
    if frac == 0:
        triple = ("seq", seq, aligned)
        return {"train": [triple], "val": [], "test": [triple]}
    cut = int(len(seq) * (1.0 - frac))
    head = _part("seq-train", "train", seq, aligned, 0, cut)
    tail = _part("seq-val", "val", seq, aligned, cut, len(seq))
    return {"train": [head], "val": [tail], "test": [tail]}


def _train_config(args, cfg, **defaults):
    """TrainConfig from defaults, config-file train.* keys, then flags."""
    fields = dict(defaults)
    for f in TRAIN_FIELDS:
        if f"train.{f}" in cfg:
            fields[f] = cfg[f"train.{f}"]
        if getattr(args, f) is not None:
            fields[f] = getattr(args, f)
    return trainer.TrainConfig(**fields)


def _loss_config(cfg):
    """LossConfig from config-file loss.* keys. The loss's sample period is
    not a key: it is the data's, measured from the IMU timestamps."""
    return loss.LossConfig(**{key[len("loss."):]: val
                              for key, val in cfg.items()
                              if key.startswith("loss.")})


# -- subcommands -------------------------------------------------------------------

def cmd_synth(args):
    if not 0.0 <= args.misalign < np.inf:
        raise data.ValidationError(
            f"--misalign {args.misalign!r}: must be finite and non-negative")
    rng = np.random.default_rng(args.seed)
    c_omega = np.eye(3)
    if args.misalign > 0:
        c_omega = c_omega + rng.uniform(-args.misalign, args.misalign,
                                        size=(3, 3))
    calib = imu.CalibParams(
        C_omega=c_omega,
        bias=np.concatenate([_vec(args.gyro_bias, 3, "--gyro-bias"),
                             _vec(args.acc_bias, 3, "--acc-bias")]),
        noise_std=_vec(args.noise_std, 6, "--noise-std"),
        noise_color=args.noise_color,
    )
    spec = imu.SyntheticScene(
        duration=args.duration, rate=args.rate,
        bias_walk_std=_vec(args.bias_walk, 6, "--bias-walk"),
    )
    scene = imu.generate_scene(spec, calib, seed=args.seed)
    outdir = _resolve_out(args.out)
    os.makedirs(outdir, exist_ok=True)
    data.write_imu_csv(os.path.join(outdir, "imu.csv"),
                       scene["imu_t_ns"], scene["gyro"], scene["acc"])
    data.write_gt_csv(os.path.join(outdir, "gt.csv"),
                      scene["gt_t_ns"], scene["rot"], scene["pos"])
    with open(os.path.join(outdir, "calib.json"), "w") as f:
        json.dump(calib.to_dict(), f, indent=1)
    _write_snapshot(outdir, args)
    print(f"wrote {scene['gyro'].shape[0]}-sample scene to {outdir}")
    return EXIT_OK


def _run_fit(args, zero_input, defaults):
    if not 0.0 <= args.val_frac < 1.0:
        raise data.ValidationError(
            f"--val-frac {args.val_frac!r}: must be in [0, 1)")
    outdir = _resolve_out(args.out)
    os.makedirs(outdir, exist_ok=True)
    cfg = _read_config(args.config) if args.config else {}
    tcfg = _train_config(args, cfg, **defaults)
    lcfg = _loss_config(cfg)
    # off in zeroed-input mode: the correction is a constant, and dropout
    # would only add gradient noise
    net_cfg = network.NetConfig(
        dropout=0.0 if zero_input else cfg.get("net.dropout", 0.1))
    dataset = _load_dataset(args, cfg)

    start_epoch = 0
    if args.resume:
        params, extra = network.load_checkpoint(args.resume)
        start_epoch = int(extra.get("epoch", 0))
    else:
        params = network.ModelParams(net_cfg, seed=tcfg.seed)

    log_path = os.path.join(outdir, "metrics.csv")
    train_pairs = [(s, g) for _, s, g in dataset["train"]]
    val_pairs = [(s, g) for _, s, g in dataset["val"]]
    result = trainer.fit(train_pairs, val_pairs, params, tcfg, lcfg,
                         zero_input=zero_input, log_path=log_path,
                         start_epoch=start_epoch, quiet=args.quiet)
    ckpt = os.path.join(outdir, "checkpoint.json")
    network.save_checkpoint(ckpt, result.best_params, extra={
        "epoch": result.best_epoch,
        "val_loss": result.best_val,
        "zero_input": zero_input,
    })
    # the final parameters and batchnorm statistics only: --resume from
    # this file starts Adam's moments afresh, reseeds the RNG and resets
    # best_val, so it does not continue the run exactly
    network.save_checkpoint(os.path.join(outdir, "checkpoint_last.json"),
                            result.params, extra={
                                "epoch": tcfg.epochs,
                                "zero_input": zero_input,
                            })
    _write_snapshot(outdir, args, {
        **{f"train.{f}": v for f, v in dataclasses.asdict(tcfg).items()},
        "loss.js": ",".join(map(str, lcfg.js)),
        "loss.huber_delta": lcfg.huber_delta,
        "net.dropout": params.config.dropout})
    if zero_input:
        c_rec, b_rec = trainer.recovered_calibration(result.best_params)
        with open(os.path.join(outdir, "calibration.json"), "w") as f:
            json.dump({"C_omega": c_rec.tolist(),
                       "gyro_bias": b_rec.tolist()}, f, indent=1)
    print(f"best validation loss {result.best_val:.6g} at epoch "
          f"{result.best_epoch}; checkpoint written to {ckpt}")
    return EXIT_OK


def cmd_train(args):
    return _run_fit(args, zero_input=False, defaults={})


def cmd_calibrate(args):
    # the 12-parameter problem needs far fewer epochs than the full model
    defaults = dict(epochs=300, restart_period=100, weight_decay=0.0,
                    augment_std=0.0)
    return _run_fit(args, zero_input=True, defaults=defaults)


def _check_checkpoint_methods(extra, methods):
    """`proposed` runs the network on the data; calibrate fits it on zeros."""
    if extra.get("zero_input", False) and "proposed" in methods:
        raise data.ValidationError(
            "method 'proposed' needs a train checkpoint; this one was fit by "
            "calibrate (zeroed network input): use method 'calibrated'")


def cmd_integrate(args):
    params, extra = network.load_checkpoint(args.checkpoint)
    _check_checkpoint_methods(extra, (args.method,))
    seq, gt = data.load_sequence(args.imu, args.gt)
    aligned = data.align_ground_truth(seq, gt)
    est = network.integrate_corrected(
        params, seq, aligned.rot[0], zero_input=args.method == "calibrated")
    out = _resolve_out(args.out)
    t_out = np.concatenate([seq.t, [2 * seq.t[-1] - seq.t[-2]]])
    data.write_gt_csv(out, t_out, est, np.zeros((len(est), 3)))
    print(f"wrote {len(est)} attitude samples to {out}")
    return EXIT_OK


def cmd_evaluate(args):
    outdir = _resolve_out(args.out)
    os.makedirs(outdir, exist_ok=True)
    methods = tuple(args.methods.split(","))
    for m in methods:
        if m not in evaluator.METHODS:
            raise data.ValidationError(f"unknown method {m!r}")
    distances = tuple(float(d) for d in args.distances.split(","))
    if not all(0 < d < np.inf for d in distances):
        raise data.ValidationError(
            f"distances {args.distances!r}: each must be finite and positive")
    cfg = _read_config(args.config) if args.config else {}
    params = None
    if args.checkpoint:
        params, extra = network.load_checkpoint(args.checkpoint)
        _check_checkpoint_methods(extra, methods)
    dataset = _load_dataset(args, cfg)
    sequences = dataset["test"] or dataset["train"]
    if not sequences:
        raise data.ValidationError(
            f"config {args.config!r} names no test or train sequence")
    reports = evaluator.run_baselines(sequences, params, distances, methods)
    path = evaluator.write_reports(reports, outdir)
    _write_snapshot(outdir, args)
    for r in reports:
        print(f"{r.sequence} {r.method}: AOE 3d {r.aoe_3d:.3f} deg, "
              f"yaw {r.aoe_yaw:.3f} deg")
    print(f"summary written to {path}")
    return EXIT_OK


def cmd_report(args):
    reports = evaluator.load_reports(args.summary)
    outdir = _resolve_out(args.out)
    evaluator.write_reports(reports, outdir)
    print(f"report files regenerated in {outdir}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

def _add_dataset_flags(p, val_frac=None):
    p.add_argument("--config", help="dataset/split config file")
    p.add_argument("--imu", help="IMU CSV (single-sequence mode)")
    p.add_argument("--gt", help="ground-truth CSV (single-sequence mode)")
    if val_frac is not None:
        p.add_argument("--val-frac", dest="val_frac", type=float,
                       default=val_frac)


def _add_train_flags(p):
    p.add_argument("--out", default="run")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--quiet", action="store_true")
    for f, typ in TRAIN_FIELDS.items():
        p.add_argument(f"--{f.replace('_', '-')}", dest=f, type=typ,
                       default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gyrodenoise",
        description="Gyro denoising and open-loop attitude estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    # argparse takes a plain negative number for a value, but reads a comma
    # list that starts with one (--gyro-bias -0.02,0,0) as an option
    p._negative_number_matcher = re.compile(
        p._negative_number_matcher.pattern + r"|^-[\d.][^,]*,.*")
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--rate", type=float, default=200.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="scene")
    p.add_argument("--gyro-bias", default="0,0,0", help="rad/s")
    p.add_argument("--acc-bias", default="0,0,0", help="m/s^2")
    p.add_argument("--noise-std", default="0,0,0,0,0,0",
                   help="per-channel noise std (3 gyro + 3 acc)")
    p.add_argument("--noise-color", type=float, default=0.0,
                   help="low-pass coefficient in [0,1); 0 = white")
    p.add_argument("--bias-walk", default="0,0,0,0,0,0",
                   help="bias random-walk std per sqrt(s), 6 channels")
    p.add_argument("--misalign", type=float, default=0.0,
                   help="uniform misalignment/scale magnitude for C_omega")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("calibrate", help="fit the zeroed-input calibration")
    _add_dataset_flags(p, val_frac=0.2)
    _add_train_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("train", help="fit the full correction network")
    _add_dataset_flags(p, val_frac=0.2)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("integrate", help="integrate corrected rates")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--imu", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--method", default="proposed",
                   choices=("proposed", "calibrated"))
    p.add_argument("--out", default="attitude.csv")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("evaluate", help="compute AOE/ROE reports")
    _add_dataset_flags(p)
    p.add_argument("--checkpoint")
    p.add_argument("--methods", default=",".join(evaluator.METHODS))
    p.add_argument("--distances", default=",".join(
        f"{d:g}" for d in evaluator.DEFAULT_DISTANCES))
    p.add_argument("--out", default="reports")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="regenerate files from summary.json")
    p.add_argument("--summary", required=True)
    p.add_argument("--out", default="reports")
    p.set_defaults(func=cmd_report)

    return parser


def _keep_freed_memory():
    """Under glibc, serve blocks up to 32 MiB from the heap and never trim
    it, so memory that backward frees stays in the process for the next
    step instead of going back to the kernel and being faulted in again.
    Threads share that one heap (one arena): what the compute lane's thread
    allocates reuses memory the main thread freed, instead of growing an
    arena of its own. Returns whether the policy was applied; with any
    other libc it is not."""
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # the parameters above are glibc's
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, -1) == 1
            and mallopt(_M_ARENA_MAX, 1) == 1)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    _keep_freed_memory()
    try:
        # every GEMM on one thread; the command's one worker thread is the
        # lane: the kernels of a large batch hand it half of their work,
        # with the bits of one thread, and evaluate its proposed track
        with autodiff.one_blas_thread(), autodiff.compute_lane():
            return args.func(args)
    except trainer.DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
