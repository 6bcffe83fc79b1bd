"""Command-line interface binding the library into reproducible workflows.

Subcommands:
  synth      generate a synthetic scene (IMU CSV, ground-truth CSV, and a
             calibration manifest recording the injected parameters)
  calibrate  fit the static-calibration model (zeroed network input)
  train      fit the full correction network
  integrate  run open-loop attitude integration with a checkpoint
  evaluate   compute AOE/ROE for the baseline methods and write reports
  report     rebuild the report files from summary.json and roe.csv

Exit codes: 0 success, 1 usage error, 2 data validation error,
3 numerical divergence.

The environment variable GYRODENOISE_OUT, when set, is prepended to
relative output paths so batch runs can redirect everything at once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import data, evaluator, imu, loss, network, trainer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

OUT_ENV = "GYRODENOISE_OUT"


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
    """Record the resolved settings so the run can be reproduced exactly."""
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

CONFIG_KEYS = ("format", "data_root")
CONFIG_PREFIXES = ("split.", "window.", "imu.", "gt.", "offset.", "train.",
                   "loss.", "net.")


def _check_config_keys(cfg):
    """Reject any config key outside CONFIG_KEYS and CONFIG_PREFIXES; the
    train.*, loss.* and net.* names are checked by their own readers."""
    for key in cfg:
        if key not in CONFIG_KEYS and not key.startswith(CONFIG_PREFIXES):
            why = ": the sample period is measured" if key == "rate" else ""
            raise data.ValidationError(f"unknown config key {key!r}{why}")


def _sequence_paths(root, name, fmt):
    if fmt in ("euroc", "tumvi"):
        base = os.path.join(root, name, "mav0")
        return (os.path.join(base, "imu0", "data.csv"),
                os.path.join(base, "state_groundtruth_estimate0", "data.csv"))
    if fmt != "synth":
        raise data.ValidationError(f"unknown format {fmt!r}")
    return (os.path.join(root, name, "imu.csv"),
            os.path.join(root, name, "gt.csv"))


def _load_split(cfg):
    """Load every sequence named in a dataset config file.

    Recognized keys: format (directory layout), data_root, split.NAME,
    window.NAME (s), imu.NAME / gt.NAME path overrides, offset.NAME (gt
    clock offset, s) and the fit commands' train.*, loss.*, net.*; any
    other key is a ValidationError before data loads. The sample period
    is each sequence's own, measured from its stamps.
    Returns {role: [(name, ImuSequence, aligned GroundTruth), ...]}.
    """
    _check_config_keys(cfg)
    fmt = cfg.get("format", "synth")
    root = cfg.get("data_root", ".")
    spec = data.SplitSpec.from_config(cfg)
    out = {"train": [], "val": [], "test": []}
    for name, role in sorted(spec.roles.items()):
        imu_path, gt_path = _sequence_paths(root, name, fmt)
        imu_path = cfg.get(f"imu.{name}", imu_path)
        gt_path = cfg.get(f"gt.{name}", gt_path)
        seq, gt = data.load_sequence(imu_path, gt_path, name)
        offset = float(cfg.get(f"offset.{name}", 0.0))
        t0 = seq.t[0]
        if role == "train+val":
            # leading window to train, remainder to val
            lo, hi = spec.windows.get(name, (0.0, 50.0))
            cut = int(np.searchsorted(seq.t, t0 + hi * 1e9, side="right"))
            lo_i = int(np.searchsorted(seq.t, t0 + lo * 1e9))
            parts = (("train", seq.window(lo_i, cut)),
                     ("val", seq.window(cut, len(seq))))
        else:
            if name in spec.windows:
                lo, hi = spec.windows[name]
                keep = ((seq.t - t0) >= lo * 1e9) & ((seq.t - t0) <= hi * 1e9)
                idx = np.nonzero(keep)[0]
                seq = seq.window(int(idx[0]), int(idx[-1]) + 1)
            parts = ((role, seq),)
        for part_role, part_seq in parts:
            aligned = data.align_ground_truth(part_seq, gt, offset_s=offset)
            out[part_role].append((name, part_seq, aligned))
    return out


def _load_dataset(args):
    """Dataset from either --config or a single --imu/--gt pair.

    The single-sequence form splits the recording in time: the leading
    (1 - val_frac) goes to train, the rest to val; evaluate uses it whole.
    """
    if getattr(args, "config", None):
        return _load_split(data.parse_config(args.config))
    if not (getattr(args, "imu", None) and getattr(args, "gt", None)):
        raise data.ValidationError("provide --config or both --imu and --gt")
    seq, gt = data.load_sequence(args.imu, args.gt,
                                 name=os.path.basename(args.imu))
    aligned = data.align_ground_truth(seq, gt)
    frac = getattr(args, "val_frac", 0.0) or 0.0
    if frac <= 0:
        triple = ("seq", seq, aligned)
        return {"train": [triple], "val": [], "test": [triple]}
    cut = int(len(seq) * (1.0 - frac))
    head = ("seq-train", seq.window(0, cut),
            data.GroundTruth(aligned.t[:cut], aligned.rot[:cut],
                             aligned.pos[:cut], aligned.gap_mask[:cut]))
    tail = ("seq-val", seq.window(cut, len(seq)),
            data.GroundTruth(aligned.t[cut:], aligned.rot[cut:],
                             aligned.pos[cut:], aligned.gap_mask[cut:]))
    return {"train": [head], "val": [tail], "test": [tail]}


def _train_config(args, cfg=None, **defaults):
    """TrainConfig from defaults, config-file train.* keys, then flags."""
    fields = dict(defaults)
    casts = {f: type(getattr(trainer.TrainConfig(), f))
             for f in trainer.TrainConfig.__dataclass_fields__}
    for key, val in (cfg or {}).items():
        if key.startswith("train."):
            f = key[len("train."):]
            if f not in casts:
                raise data.ValidationError(f"unknown train config key {f!r}")
            fields[f] = casts[f](val)
    for f in casts:
        flag = getattr(args, f, None)
        if flag is not None:
            fields[f] = flag
    return trainer.TrainConfig(**fields)


def _loss_config(cfg=None):
    """LossConfig from config-file loss.* keys. The loss's sample period is
    not a key: it is the data's, measured from the IMU timestamps."""
    fields = {}
    for key, val in (cfg or {}).items():
        if not key.startswith("loss."):
            continue
        f = key[len("loss."):]
        if f == "js":
            fields["js"] = tuple(int(x) for x in val.split(","))
        elif f == "huber_delta":
            fields["huber_delta"] = float(val)
        else:
            raise data.ValidationError(f"unknown loss config key {f!r}")
    return loss.LossConfig(**fields)


# -- subcommands -------------------------------------------------------------------

def cmd_synth(args):
    outdir = _resolve_out(args.out)
    os.makedirs(outdir, exist_ok=True)
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
    outdir = _resolve_out(args.out)
    os.makedirs(outdir, exist_ok=True)
    cfg = data.parse_config(args.config) if args.config else {}
    tcfg = _train_config(args, cfg, **defaults)
    lcfg = _loss_config(cfg)
    dropout = tcfg_dropout(zero_input, cfg)
    dataset = _load_dataset(args)

    start_epoch = 0
    if args.resume:
        params, extra = network.load_checkpoint(args.resume)
        start_epoch = int(extra.get("epoch", 0))
    else:
        params = network.ModelParams(network.NetConfig(dropout=dropout),
                                     seed=tcfg.seed)

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
    # the final state continues a run seamlessly under --resume
    network.save_checkpoint(os.path.join(outdir, "checkpoint_last.json"),
                            result.params, extra={
                                "epoch": tcfg.epochs,
                                "zero_input": zero_input,
                            })
    _write_snapshot(outdir, args, {"resolved_epochs": tcfg.epochs})
    if zero_input:
        c_rec, b_rec = trainer.recovered_calibration(result.best_params)
        with open(os.path.join(outdir, "calibration.json"), "w") as f:
            json.dump({"C_omega": c_rec.tolist(),
                       "gyro_bias": b_rec.tolist()}, f, indent=1)
    print(f"best validation loss {result.best_val:.6g} at epoch "
          f"{result.best_epoch}; checkpoint written to {ckpt}")
    return EXIT_OK


def tcfg_dropout(zero_input, cfg):
    """Dropout for the model: off in zeroed-input mode (the correction is a
    constant, dropout would only add gradient noise). `net.dropout` is the
    only net.* config key; any other is a ValidationError."""
    for key in cfg:
        if key.startswith("net.") and key != "net.dropout":
            raise data.ValidationError(f"unknown net config key {key[4:]!r}")
    if zero_input:
        return 0.0
    return float(cfg.get("net.dropout", 0.1))


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
    params = None
    if args.checkpoint:
        params, extra = network.load_checkpoint(args.checkpoint)
        _check_checkpoint_methods(extra, methods)
    dataset = _load_dataset(args)
    sequences = dataset["test"] or dataset["train"]
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
    for f, typ in (("epochs", int), ("lr0", float), ("restart_period", int),
                   ("weight_decay", float), ("seed", int),
                   ("window_len", int), ("windows_per_batch", int),
                   ("val_every", int), ("augment_std", float)):
        p.add_argument(f"--{f.replace('_', '-')}", dest=f, type=typ,
                       default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gyrodenoise",
        description="Gyro denoising and open-loop attitude estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
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
    p.add_argument("--methods", default="raw,calibrated,proposed,zero")
    p.add_argument("--distances", default="7,21,35")
    p.add_argument("--out", default="reports")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="regenerate files from summary.json")
    p.add_argument("--summary", required=True)
    p.add_argument("--out", default="reports")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 for --help, 2 for usage errors
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except trainer.DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
