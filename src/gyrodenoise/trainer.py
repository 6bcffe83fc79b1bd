"""Optimization loop: ADAM with decoupled weight decay and warm restarts.

Each epoch draws fixed-length windows at random 32-aligned offsets from
every training sequence, perturbs them with small Gaussian noise, and steps
ADAM on the increment loss. Validation loss is computed periodically on
deterministic windows; the parameters with the lowest validation loss are
retained. The whole loop is deterministic under a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from . import loss, network, so3


# training-time augmentation noise, 0.01 deg/s expressed in rad/s
DEFAULT_AUGMENT_STD = 0.01 * np.pi / 180.0
# ADAM moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class DivergenceError(RuntimeError):
    """Training loss became non-finite or its residuals left the log's domain."""

    def __init__(self, epoch, reason="non-finite training loss"):
        super().__init__(f"{reason} at epoch {epoch}")
        self.epoch = epoch


@dataclass
class TrainConfig:
    epochs: int = 1800
    lr0: float = 0.01
    restart_period: int = 600
    weight_decay: float = 0.1
    seed: int = 0
    window_len: int = 1792
    windows_per_batch: int = 6
    val_every: int = 25
    augment_std: float = DEFAULT_AUGMENT_STD

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, float) and not math.isfinite(val):
                raise ValueError(f"{f.name} must be finite, got {val}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for name in ("lr0", "restart_period", "window_len",
                     "windows_per_batch", "val_every"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.weight_decay < 0 or self.augment_std < 0:
            raise ValueError("weight_decay and augment_std must be >= 0")


def cosine_warm_restarts(step, period, lr0=0.01):
    """Learning rate at an integer step: a cosine from lr0 down to 0 over
    each period, resetting to lr0 at every period boundary."""
    if step < 0:
        raise ValueError("step must be >= 0")
    t = step % period
    return 0.5 * lr0 * (1.0 + np.cos(np.pi * t / period))


class AdamState:
    """First/second moment accumulators per named parameter."""

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0


def _decays(name, n_layers):
    """Decoupled weight decay applies to conv weights, non-final conv biases
    and batchnorm scales; the calibration matrix, the final-layer bias and
    batchnorm shifts are exempt."""
    if name == "c_omega" or name.endswith(".beta"):
        return False
    if name == f"conv{n_layers - 1}.b":
        return False
    return True


def adam_step(params: network.ModelParams, state: AdamState, lr,
              weight_decay=0.0):
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    n_layers = params.config.n_layers
    for name, p in params.trainable():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        if state.m[name].shape != p.data.shape:
            raise ValueError(f"optimizer state shape mismatch for {name!r}")
        state.m[name] = ADAM_BETA1 * state.m[name] + (1 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1 - ADAM_BETA2) * g * g
        mhat = state.m[name] / bc1
        vhat = state.v[name] / bc2
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        if weight_decay > 0 and _decays(name, n_layers):
            p.data = p.data - lr * weight_decay * p.data


def compute_input_stats(train_data):
    """Per-channel mean/std of the 6 input channels over all train samples."""
    cols = np.concatenate(
        [np.concatenate([seq.gyro, seq.acc], axis=1) for seq, _ in train_data]
    )
    return cols.mean(axis=0), cols.std(axis=0)


def _epoch_starts(n, window_len, stride, rng):
    """Random window starts (multiples of stride) covering a sequence once."""
    n_win = max(1, n // window_len)
    lim = (n - window_len) // stride
    return [int(rng.integers(0, lim + 1)) * stride for _ in range(n_win)]


def _val_starts(n, window_len, stride):
    starts = np.arange(0, n - window_len + 1, window_len)
    return [int(s) // stride * stride for s in starts]


@dataclass
class TrainResult:
    params: network.ModelParams        # final parameters
    best_params: network.ModelParams   # lowest validation loss
    best_epoch: int
    best_val: float
    history: list = field(default_factory=list)  # (epoch, train, val, lr)


def _guarded_loss(epoch, *args, **kwargs):
    """total_loss with divergence failures mapped to DivergenceError."""
    try:
        out = loss.total_loss(*args, **kwargs)
    except so3.DomainError as err:
        # non-finite rates blow up inside the exponential map; rates far off
        # the ground truth leave residual rotations near pi, outside log_so3
        raise DivergenceError(epoch, str(err)) from err
    if not np.isfinite(out.data):
        raise DivergenceError(epoch)
    return out


def _eval_loss(params, batches, lcfg, zero_input, epoch=0):
    total, n = 0.0, 0
    with ad.no_grad():
        for batch in batches:
            val = _guarded_loss(epoch, params, batch, lcfg, training=False,
                                zero_input=zero_input).data
            total += float(val) * len(batch.x)
            n += len(batch.x)
    return total / n


def _chunk(items, size):
    out = [items[i:i + size] for i in range(0, len(items), size)]
    if len(out) > 1 and len(out[-1]) == 1:
        # a singleton batch breaks batch statistics; fold it into the
        # previous one
        tail = out.pop()
        out[-1] = out[-1] + tail
    return out


def fit(train_data, val_data, params: network.ModelParams,
        tcfg: TrainConfig, lcfg: loss.LossConfig, zero_input=False,
        log_path=None, start_epoch=0, quiet=True):
    """Run the training loop. train_data/val_data are lists of
    (ImuSequence, GroundTruth) pairs with ground truth already resampled
    onto the IMU clock. Returns a TrainResult.

    start_epoch > 0 resumes a run from the given parameters: the schedule
    and the metrics log continue from that epoch, but Adam's moments start
    at zero and the RNG is reseeded to seed + start_epoch (not exact).
    """
    if not train_data:
        raise ValueError("empty training set")
    if start_epoch == 0:
        params.set_input_stats(*compute_input_stats(train_data))
    stride = lcfg.max_j
    t_win = tcfg.window_len

    val_data = val_data or []
    for seq, gt in train_data + val_data:
        if len(seq) < t_win:
            raise ValueError(
                f"sequence {seq.name or '?'} shorter than the training "
                f"window ({len(seq)} < {t_win})"
            )

    rng = np.random.default_rng(tcfg.seed + start_epoch)
    state = AdamState()

    val_batches = [
        loss.make_batch(seq, gt, _val_starts(len(seq), t_win, stride), t_win,
                        params.config, lcfg)
        for seq, gt in (val_data or train_data)
    ]

    best_val = _eval_loss(params, val_batches, lcfg, zero_input, start_epoch)
    best_params = params.copy()
    best_epoch = start_epoch
    history = []
    log_file = open(log_path, "a" if start_epoch else "w") if log_path else None
    if log_file and not start_epoch:
        log_file.write("epoch,train_loss,val_loss,lr\n")

    try:
        for epoch in range(start_epoch, tcfg.epochs):
            lr = cosine_warm_restarts(epoch, tcfg.restart_period, tcfg.lr0)
            losses = []
            for seq, gt in train_data:
                starts = _epoch_starts(len(seq), t_win, stride, rng)
                for group in _chunk(starts, tcfg.windows_per_batch):
                    batch = loss.make_batch(seq, gt, group, t_win,
                                            params.config, lcfg)
                    if tcfg.augment_std > 0:
                        batch.x = batch.x + rng.normal(
                            size=batch.x.shape) * tcfg.augment_std
                    params.zero_grad()
                    out = _guarded_loss(epoch, params, batch, lcfg,
                                        training=True, rng=rng,
                                        zero_input=zero_input)
                    out.backward()
                    adam_step(params, state, lr, tcfg.weight_decay)
                    losses.append(float(out.data))
            train_loss = float(np.mean(losses))
            if not np.isfinite(train_loss):
                raise DivergenceError(epoch)

            val_loss = None
            if (epoch + 1) % tcfg.val_every == 0 or epoch + 1 == tcfg.epochs:
                val_loss = _eval_loss(params, val_batches, lcfg, zero_input,
                                      epoch)
                if val_loss < best_val:
                    best_val = val_loss
                    best_params = params.copy()
                    best_epoch = epoch + 1
            history.append((epoch + 1, train_loss, val_loss, lr))
            if log_file:
                vs = "" if val_loss is None else f"{val_loss:.17g}"
                log_file.write(f"{epoch + 1},{train_loss:.17g},{vs},{lr:.17g}\n")
                log_file.flush()
            if not quiet:
                vs = "" if val_loss is None else f" val {val_loss:.6g}"
                print(f"epoch {epoch + 1}: train {train_loss:.6g}{vs} lr {lr:.4g}")
    finally:
        if log_file:
            log_file.close()

    return TrainResult(params, best_params, best_epoch, best_val, history)


def recovered_calibration(params: network.ModelParams):
    """Invert the zeroed-input model back to sensor-frame quantities.

    The corrected rate in zeroed-input mode is w_hat = C_hat w_meas + c,
    with c the network's eval-mode response to a zero input.
    Undoing the measurement model w_meas = C w + b requires C_hat = inv(C)
    and c = -C_hat b, so the implied calibration is C = inv(C_hat) and the
    implied gyro bias is b = -inv(C_hat) c.
    """
    c_hat = params.c_omega.data
    rf = params.config.receptive_field
    zero = np.zeros((1, 6, rf + 1))
    with ad.no_grad():
        const = network.forward(params, zero, training=False,
                                zero_input=True).data[0, :, 0]
    c_implied = np.linalg.inv(c_hat)
    bias = -np.linalg.solve(c_hat, const)
    return c_implied, bias
