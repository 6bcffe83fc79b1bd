"""Gyro correction model: a dilated causal CNN plus a static 3x3 calibration.

The corrected rate is  w_hat_n = C_omega_hat @ w_imu_n + w_tilde_n  where
w_tilde is the network output computed from a past-only window of 6-channel
IMU data. At initialization C_omega_hat = I and the final layer is zeroed,
so the corrected gyro equals the raw gyro exactly.

A checkpoint is one JSON object: "version" (2), "config" (NetConfig),
"input_mean"/"input_std" (float lists), "tensors" ({name: {"shape": [...],
"data": ...}} in trainable() order), "bn_running" ([{"mean", "var"}] per
batchnorm layer) and "extra". Every "data", "mean" and "var" is the base64
of the values as little-endian float64 in C order, so a load gives back
every bit, the sign of zero included. Any other version, or a "config"
key that is not a NetConfig field, is refused.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import lane, so3

CHECKPOINT_VERSION = 2


@dataclass
class NetConfig:
    kernel_sizes: tuple = (7, 7, 7, 7, 1)
    dilations: tuple = (1, 4, 16, 64, 1)
    channels: tuple = (6, 16, 32, 64, 128, 3)
    dropout: float = 0.1

    def __post_init__(self):
        if len(self.kernel_sizes) != len(self.dilations):
            raise ValueError("kernel_sizes and dilations length mismatch")
        if len(self.channels) != len(self.kernel_sizes) + 1:
            raise ValueError("channels must have one more entry than layers")
        if not 0.0 <= self.dropout < 1.0:  # NaN fails too
            raise ValueError(f"dropout {self.dropout!r}: must be in [0, 1)")

    @property
    def n_layers(self):
        return len(self.kernel_sizes)

    @property
    def receptive_field(self):
        """Number of past samples feeding one output.

        The causal stack consumes sum((K-1) * dilation) past samples; for
        the default configuration that is 510.
        """
        return sum((k - 1) * d
                   for k, d in zip(self.kernel_sizes, self.dilations))

    @classmethod
    def from_dict(cls, d):
        # batchnorm's momentum and eps are autodiff constants, not config keys
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError("unknown checkpoint config key "
                             + ", ".join(map(repr, unknown)))
        return cls(
            kernel_sizes=tuple(d["kernel_sizes"]),
            dilations=tuple(d["dilations"]),
            channels=tuple(d["channels"]),
            dropout=d["dropout"],
        )


class ModelParams:
    """All trainable state plus the frozen input standardization stats."""

    def __init__(self, config: NetConfig = None, seed=0):
        self.config = config or NetConfig()
        cfg = self.config
        rng = np.random.default_rng(seed)
        self.conv_w = []
        self.conv_b = []
        for i in range(cfg.n_layers):
            c_in, c_out, k = cfg.channels[i], cfg.channels[i + 1], cfg.kernel_sizes[i]
            if i == cfg.n_layers - 1:
                # zeroed final layer: network correction is 0 before training
                w = np.zeros((c_out, c_in, k))
                b = np.zeros(c_out)
            else:
                bound = 1.0 / np.sqrt(c_in * k)
                w = rng.uniform(-bound, bound, size=(c_out, c_in, k))
                b = rng.uniform(-bound, bound, size=c_out)
            self.conv_w.append(ad.Tensor(w, requires_grad=True))
            self.conv_b.append(ad.Tensor(b, requires_grad=True))
        self.bn_gamma = []
        self.bn_beta = []
        self.bn_state = []
        for i in range(cfg.n_layers - 1):
            c = cfg.channels[i + 1]
            self.bn_gamma.append(ad.Tensor(np.ones(c), requires_grad=True))
            self.bn_beta.append(ad.Tensor(np.zeros(c), requires_grad=True))
            self.bn_state.append(ad.BatchNormState(c))
        self.c_omega = ad.Tensor(np.eye(3), requires_grad=True)
        # per-channel standardization of the network input (train-set stats)
        self.input_mean = np.zeros(6)
        self.input_std = np.ones(6)

    def trainable(self):
        """Named trainable tensors, in a fixed order."""
        out = []
        for i, (w, b) in enumerate(zip(self.conv_w, self.conv_b)):
            out.append((f"conv{i}.w", w))
            out.append((f"conv{i}.b", b))
        for i, (g, b) in enumerate(zip(self.bn_gamma, self.bn_beta)):
            out.append((f"bn{i}.gamma", g))
            out.append((f"bn{i}.beta", b))
        out.append(("c_omega", self.c_omega))
        return out

    def zero_grad(self):
        for _, t in self.trainable():
            t.zero_grad()

    def copy(self):
        """Deep copy of all parameters and running statistics."""
        out = ModelParams(self.config)
        src = dict(self.trainable())
        for name, t in out.trainable():
            t.data = src[name].data.copy()
        for dst, s in zip(out.bn_state, self.bn_state):
            dst.mean = s.mean.copy()
            dst.var = s.var.copy()
        out.input_mean = self.input_mean.copy()
        out.input_std = self.input_std.copy()
        return out

    def set_input_stats(self, mean, std):
        self.input_mean = np.asarray(mean, dtype=float)
        self.input_std = np.maximum(np.asarray(std, dtype=float), 1e-12)


def count_params(params: ModelParams):
    return sum(t.data.size for _, t in params.trainable())


def count_breakdown(params: ModelParams):
    conv = sum(w.data.size + b.data.size
               for w, b in zip(params.conv_w, params.conv_b))
    bn = sum(g.data.size + b.data.size
             for g, b in zip(params.bn_gamma, params.bn_beta))
    return {"conv": conv, "batchnorm": bn, "calibration": params.c_omega.data.size}


def forward(params: ModelParams, x, training=False, rng=None,
            zero_input=False):
    """Corrected gyro from a raw 6-channel window.

    x: (B, 6, T) float array with gyro in channels 0..2 (rad/s) and
    accelerometer in channels 3..5 (m/s^2). Returns a Tensor (B, 3, T')
    with T' = T - receptive_field: output n reads inputs n..n+rf of x.
    training=True with a non-zero dropout rate draws the masks from rng, a
    numpy Generator.

    zero_input forces the network input to zeros, so the correction is
    constant in time: C_omega_hat plus the network's response to zeros.
    That constant passes through every conv and batchnorm layer; in eval
    mode it depends on the batchnorm running statistics too.
    """
    cfg = params.config
    rf = cfg.receptive_field
    bsz, c, t = x.shape
    if c != 6:
        raise ValueError(f"expected 6 input channels, got {c}")
    if t < rf + 1:
        raise ValueError(f"window too short: {t} < receptive field + 1 = {rf + 1}")

    if zero_input:
        # constant-in-time correction: a single valid output column suffices
        h = ad.Tensor(np.zeros((bsz, 6, rf + 1)))
    else:
        xs = (x - params.input_mean[None, :, None]) / params.input_std[None, :, None]
        h = ad.Tensor(xs)

    for i in range(cfg.n_layers):
        h = ad.conv1d_dilated(h, params.conv_w[i], params.conv_b[i],
                              cfg.dilations[i])
        if i < cfg.n_layers - 1:
            h = ad.batchnorm1d(h, params.bn_gamma[i], params.bn_beta[i],
                               params.bn_state[i], training)
            h = ad.gelu(h)
            if training and cfg.dropout > 0:
                h = ad.dropout(h, cfg.dropout, rng)

    return ad.channel_affine(params.c_omega, ad.Tensor(x[:, :3, rf:])) + h


# the eval forward runs the CNN over this many outputs at a time, so the
# activations a thread holds are one block's, whatever the sequence length;
# at 1024 the widest layer's (1, 128, 1024) buffers (1 MiB each) fit in a
# core's L2 cache
EVAL_BLOCK = 1024


def _mean_padded(params, imu_seq):
    """(1, 6, receptive_field + M) network input: the recording behind
    receptive_field columns of params.input_mean, which standardise to +0.0
    (zero padding)."""
    rf = params.config.receptive_field
    x = np.empty((1, 6, rf + len(imu_seq)))
    x[0, :, :rf] = params.input_mean[:, None]
    x[0, :3, rf:] = imu_seq.gyro.T
    x[0, 3:, rf:] = imu_seq.acc.T
    return x


def rate_blocks(params: ModelParams, imu_seq):
    """The eval-mode corrected rates of a recording as a lane.Jobs
    queue, one job per block of EVAL_BLOCK outputs: each returns its
    block's (L, 3) rates from a valid forward over its receptive_field
    samples of history, so a block's rates are the same bits whichever
    thread computes it."""
    x = _mean_padded(params, imu_seq)
    width = EVAL_BLOCK + params.config.receptive_field

    def block(s):
        def rates():
            with ad.no_grad():  # grad mode is per thread
                return forward(params, x[:, :, s:s + width]).data[0].T
        return rates

    return lane.Jobs([block(s) for s in range(0, len(imu_seq), EVAL_BLOCK)])


def integrate_corrected(params: ModelParams, imu_seq, r0, zero_input=False,
                        blocks=None):
    """Open-loop attitude from corrected rates (eval mode).

    imu_seq is a data.ImuSequence, integrated over its measured sample
    period; returns an (M+1, 3, 3) rotation stack starting at r0.

    The rates are those of rate_blocks(params, imu_seq). The calling thread
    takes its blocks together with the lane it has open (as under
    the command line), so both cores compute blocks; with no lane open
    every block runs on this thread and no thread starts. blocks, such a
    queue that the lane may already be taking from, is joined instead of a
    new one. zero_input's constant correction needs one column of the
    forward.
    """
    if zero_input:
        with ad.no_grad():
            w_hat = forward(params, _mean_padded(params, imu_seq),
                            zero_input=True).data[0].T
    else:
        if blocks is None:
            blocks = rate_blocks(params, imu_seq).start()
        w_hat = np.concatenate(blocks.join())
    return so3.integrate_increments(r0, w_hat, imu_seq.dt)


# -- checkpoints -----------------------------------------------------------------

def _to_base64(a):
    """base64 of the array's values as little-endian float64, in C order."""
    raw = np.ascontiguousarray(a, dtype="<f8")
    return base64.b64encode(raw).decode("ascii")


def _from_base64(text, shape, what):
    """A writable float array of the given shape from _to_base64's text."""
    if not isinstance(text, str):
        raise ValueError(f"checkpoint {what}: expected a base64 string")
    raw = base64.b64decode(text, validate=True)
    n = int(np.prod(shape))
    if len(raw) != 8 * n:
        raise ValueError(f"checkpoint {what}: {len(raw)} bytes of payload, "
                         f"shape {tuple(shape)} needs {8 * n}")
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def save_checkpoint(path, params: ModelParams, extra=None):
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "input_mean": params.input_mean.tolist(),
        "input_std": params.input_std.tolist(),
        "tensors": {
            name: {"shape": list(t.data.shape), "data": _to_base64(t.data)}
            for name, t in params.trainable()
        },
        "bn_running": [
            {"mean": _to_base64(s.mean), "var": _to_base64(s.var)}
            for s in params.bn_state
        ],
        "extra": extra or {},
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def load_checkpoint(path):
    """(ModelParams, extra) from a checkpoint; ValueError when the file is
    not one (a JSON object of this layout), naming a missing key."""
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    try:
        params = ModelParams(NetConfig.from_dict(payload["config"]))
        named = dict(params.trainable())
        for name in payload["tensors"]:
            if name not in named:
                raise ValueError(f"unknown tensor {name!r} in checkpoint")
        for name, tensor in named.items():
            spec = payload["tensors"][name]
            arr = _from_base64(spec["data"], spec["shape"], name)
            if arr.shape != tensor.data.shape:
                raise ValueError(f"shape mismatch for {name!r}")
            tensor.data = arr
        bn_running = payload["bn_running"]
        if len(bn_running) != len(params.bn_state):
            raise ValueError(f"checkpoint has {len(bn_running)} batchnorm "
                             f"layers, the model {len(params.bn_state)}")
        for i, (state, saved) in enumerate(zip(params.bn_state, bn_running)):
            state.mean = _from_base64(saved["mean"], state.mean.shape,
                                      f"bn{i} mean")
            state.var = _from_base64(saved["var"], state.var.shape,
                                     f"bn{i} var")
        params.set_input_stats(payload["input_mean"], payload["input_std"])
        extra = payload.get("extra", {})
        if not isinstance(extra, dict):
            raise TypeError("extra is not a JSON object")
    except KeyError as err:
        raise ValueError(f"checkpoint {path} has no key {err.args[0]!r}") from None
    except TypeError as err:
        raise ValueError(f"checkpoint {path} is malformed: {err}") from None
    return params, extra
