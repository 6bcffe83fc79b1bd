"""Workloads: drive `gyrodenoise` through cli.main in-process, time each
unit op, and check the outputs.

The unit op of `train` and `calibrate` is one optimizer step (make_batch,
forward, backward, adam_step); its latency is the interval between the
timestamps taken after consecutive trainer.adam_step calls within one
command. The unit op of `evaluate` is one whole `evaluate` command.
"""

from __future__ import annotations

import io
import json
import math
import os
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from gyrodenoise import cli, data, loss, network, trainer

from inputs import BATCH, EVAL_DURATION, RATE, VAL_FRAC, WINDOW

N_PARAMS = 77_052
# epochs per train/calibrate command; validation runs only after the last
FIT_EPOCHS = {"train": 8, "calibrate": 50}
# At the default lr0 of 0.01, Adam's first step moves every weight of the
# zeroed final layer by 0.01 and the loss stays above its initial value for
# tens of steps, so an 8-step command could not show training working. A
# step costs the same at any learning rate.
EXTRA_ARGS = {"train": ["--lr0", "0.002"], "calibrate": []}
ARTIFACT = {"train": "metrics.csv", "calibrate": "metrics.csv",
            "evaluate": "aoe.csv"}
TAIL_LADDER = (90.0, 99.0, 99.9)
AOE_TOL_DEG = 1e-6


class StepClock:
    """Timestamps every trainer.adam_step call (used as a context manager)."""

    def __init__(self):
        self.stamps = []
        self._orig = None

    def __enter__(self):
        orig = self._orig = trainer.adam_step
        stamps = self.stamps

        def adam_step(*args, **kwargs):
            out = orig(*args, **kwargs)
            stamps.append(perf_counter())
            return out

        trainer.adam_step = adam_step
        return self

    def __exit__(self, *exc):
        trainer.adam_step = self._orig


@dataclass
class Command:
    code: int
    wall: float
    log: str
    stamps: list
    artifact: bytes


def command_argv(workload, paths, outdir, seed):
    if workload == "evaluate":
        return ["evaluate", "--imu", paths["imu"], "--gt", paths["gt"],
                "--checkpoint", paths["checkpoint"], "--out", outdir]
    epochs = str(FIT_EPOCHS[workload])
    return [workload, "--imu", paths["imu"], "--gt", paths["gt"],
            "--out", outdir, "--epochs", epochs, "--val-every", epochs,
            "--seed", str(seed), "--quiet"] + EXTRA_ARGS[workload]


def run_cli(argv):
    """cli.main with its output captured; returns (exit code, seconds, log)."""
    buf = io.StringIO()
    t0 = perf_counter()
    with redirect_stdout(buf), redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except Exception:  # counted as a failed command, not a crash
            traceback.print_exc()
            code = -1
    return code, perf_counter() - t0, buf.getvalue()


def run_phase(workload, argv, outdir, seconds, min_commands, clock):
    """Repeat the command until the next one would end past `seconds`."""
    cmds = []
    t0 = perf_counter()
    while True:
        n0 = len(clock.stamps)
        code, wall, log = run_cli(argv)
        artifact = b""
        path = os.path.join(outdir, ARTIFACT[workload])
        if os.path.exists(path):
            with open(path, "rb") as f:
                artifact = f.read()
        cmds.append(Command(code, wall, log, clock.stamps[n0:], artifact))
        elapsed = perf_counter() - t0
        if (len(cmds) >= min_commands
                and elapsed * (len(cmds) + 1) / len(cmds) > seconds):
            return cmds


def op_samples(workload, cmds):
    if workload == "evaluate":
        return [c.wall for c in cmds if c.code == 0]
    return [b - a for c in cmds for a, b in zip(c.stamps, c.stamps[1:])]


def samples_per_s(workload, cmds):
    wall = sum(c.wall for c in cmds)
    if workload == "evaluate":
        n = sum(1 for c in cmds if c.code == 0) * int(EVAL_DURATION * RATE)
    else:
        n = sum(len(c.stamps) for c in cmds) * BATCH * WINDOW
    return n / wall


def timing(values):
    """Median and tail: the highest percentile of TAIL_LADDER with at least
    ten samples beyond it (None when there are too few samples)."""
    n = len(values)
    p50 = float(np.median(values)) if n else 0.0  # no op succeeded
    tail = None
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10:
            tail = (q, float(np.percentile(values, q)))
    return p50, tail, n


# -- output checks -------------------------------------------------------------------

def _losses(metrics_csv):
    rows = metrics_csv.decode().strip().splitlines()[1:]
    train = [float(r.split(",")[1]) for r in rows]
    val = [float(r.split(",")[2]) for r in rows if r.split(",")[2]]
    return train, val


def untrained_val_loss(scene):
    """Loss of an untrained model, whose output is the raw gyro, on the
    validation window the CLI holds out (the trailing VAL_FRAC, one window)."""
    n = len(scene["gyro"])
    cut = int(n * (1.0 - VAL_FRAC))
    t = scene["imu_t_ns"][cut:]
    seq = data.ImuSequence(t, scene["gyro"][cut:], scene["acc"][cut:])
    gt = data.GroundTruth(t, scene["rot"][cut:n], scene["pos"][cut:n])
    params = network.ModelParams()
    lcfg = loss.LossConfig()
    batch = loss.make_batch(seq, gt, [0], WINDOW, params.config, lcfg)
    return float(loss.total_loss(params, batch, lcfg).data)


def check_fit(workload, cmds, outdir, scene):
    """(per-command failure lists, run-level failures, notes)."""
    epochs = FIT_EPOCHS[workload]
    # `train` trains with dropout and input noise, so its per-epoch train
    # loss is noisy; its deterministic validation loss is compared with the
    # untrained model's. `calibrate` validates in eval mode, where batchnorm
    # uses running statistics that lag far behind after a short run, so its
    # train loss (noise-free data, no dropout) is compared with the first.
    initial = untrained_val_loss(scene) if workload == "train" else None
    notes = {"untrained_val_loss": initial} if initial else {}
    per_cmd = []
    for c in cmds:
        bad = []
        if c.code != 0:
            bad.append(f"exit code {c.code}: {c.log.strip()[-300:]}")
        elif c.artifact != cmds[0].artifact:
            bad.append("metrics.csv differs from the first repeat")
        else:
            train, val = _losses(c.artifact)
            if len(train) != epochs or len(val) != 1:
                bad.append("metrics.csv is missing epochs or validation")
            elif not all(math.isfinite(x) for x in train + val):
                bad.append("non-finite loss logged")
            elif initial is not None and not val[-1] < initial:
                bad.append(f"final validation loss {val[-1]:.6g} not below "
                           f"the untrained model's {initial:.6g}")
            elif initial is None and not train[-1] < train[0]:
                bad.append(f"final train loss {train[-1]:.6g} not below "
                           f"the first {train[0]:.6g}")
            else:
                notes.update(first_train_loss=train[0],
                             final_train_loss=train[-1], final_val_loss=val[-1])
        if c.code == 0 and len(c.stamps) != epochs:
            bad.append(f"{len(c.stamps)} optimizer steps, expected {epochs}")
        per_cmd.append(bad)

    run_bad = []
    try:
        params, _ = network.load_checkpoint(
            os.path.join(outdir, "checkpoint.json"))
        if network.count_params(params) != N_PARAMS:
            run_bad.append("checkpoint does not hold 77,052 parameters")
    except (OSError, ValueError, KeyError) as err:
        run_bad.append(f"checkpoint does not reload: {err}")
    if workload == "calibrate":
        try:
            with open(os.path.join(outdir, "calibration.json")) as f:
                cal = json.load(f)
            c_omega = np.array(cal["C_omega"], dtype=float)
            bias = np.array(cal["gyro_bias"], dtype=float)
            if (c_omega.shape != (3, 3) or bias.shape != (3,)
                    or not np.all(np.isfinite(c_omega))
                    or not np.all(np.isfinite(bias))):
                run_bad.append("calibration.json is not a finite 3x3 + 3")
        except (OSError, ValueError, KeyError) as err:
            run_bad.append(f"calibration.json unreadable: {err}")
    return per_cmd, run_bad, notes


def _read_aoe(aoe_csv):
    out = {}
    for row in aoe_csv.decode().strip().splitlines()[1:]:
        method, _, a3, ay = row.split(",")
        out[method] = (float(a3), float(ay))
    return out


def reference_aoe(scene):
    """Independent AOE for `raw` (scipy cumulative integration) and `zero`
    (direct numpy geodesic), in degrees."""
    from scipy.spatial.transform import Rotation

    m = len(scene["gyro"])
    gt_rots = scene["rot"][:m]
    incs = Rotation.from_rotvec(scene["gyro"] * (1.0 / RATE))
    cur = Rotation.from_matrix(gt_rots[0])
    track = [cur]
    for i in range(m - 1):
        cur = cur * incs[i]
        track.append(cur)
    err = Rotation.from_matrix(gt_rots).inv() * Rotation.concatenate(track)
    raw = np.degrees(np.sqrt(np.mean(err.magnitude() ** 2)))

    e = np.swapaxes(gt_rots, -1, -2) @ gt_rots[0]
    skew = np.stack([e[:, 2, 1] - e[:, 1, 2], e[:, 0, 2] - e[:, 2, 0],
                     e[:, 1, 0] - e[:, 0, 1]], axis=-1)
    angle = np.arctan2(0.5 * np.linalg.norm(skew, axis=-1),
                       0.5 * (np.trace(e, axis1=1, axis2=2) - 1.0))
    zero = np.degrees(np.sqrt(np.mean(angle ** 2)))
    return {"raw": raw, "zero": zero}


def check_evaluate(cmds, outdir, scene):
    per_cmd = []
    first = cmds[0].artifact
    for c in cmds:
        bad = []
        if c.code != 0:
            bad.append(f"exit code {c.code}: {c.log.strip()[-300:]}")
        elif c.artifact != first:
            bad.append("aoe.csv differs from the first repeat")
        per_cmd.append(bad)

    run_bad = []
    notes = {}
    if cmds[0].code != 0:
        return per_cmd, ["first evaluate failed"], notes
    aoe = _read_aoe(first)
    if set(aoe) != {"raw", "calibrated", "proposed", "zero"}:
        run_bad.append(f"aoe.csv methods {sorted(aoe)}")
        return per_cmd, run_bad, notes
    if not all(math.isfinite(v) for pair in aoe.values() for v in pair):
        run_bad.append("non-finite AOE")
    ref = reference_aoe(scene)
    for method in ("raw", "zero"):
        diff = abs(aoe[method][0] - ref[method])
        notes[f"aoe_{method}_ref_diff_deg"] = float(diff)
        if not diff <= AOE_TOL_DEG:
            run_bad.append(f"{method} AOE {aoe[method][0]!r} deg vs reference "
                           f"{ref[method]!r} deg")
    if aoe["proposed"] == aoe["raw"]:
        run_bad.append("proposed AOE equals raw: the checkpoint had no effect")
    if not os.path.exists(os.path.join(outdir, "summary.json")):
        run_bad.append("summary.json missing")
    notes.update({f"aoe_{m}_deg": v[0] for m, v in aoe.items()})
    return per_cmd, run_bad, notes


def ops_per_command(workload):
    return 1 if workload == "evaluate" else FIT_EPOCHS[workload]
