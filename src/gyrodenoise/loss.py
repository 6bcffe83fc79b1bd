"""Training objective: Huber loss on the SO(3) log of increment mismatch.

Per-sample corrected-rate increments exp(w_hat_n dt) are reduced to
orientation increments over j samples with a log-depth tree of batched
matrix products, compared against precomputed ground-truth increments, and
penalized with a per-component Huber loss. Windows are subsampled one every
j timestamps; the total loss sums the j = 16 and j = 32 terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import data, network


@dataclass
class LossConfig:
    js: tuple = (16, 32)
    huber_delta: float = 0.005

    def __post_init__(self):
        for j in self.js:
            if j < 1 or (j & (j - 1)) != 0:
                raise ValueError(f"j must be a power of two, got {j}")
        # a negative delta rewards large residuals, and zero learns nothing
        if not 0.0 < self.huber_delta < np.inf:
            raise ValueError(f"loss.huber_delta {self.huber_delta!r}: must "
                             "be finite and positive")

    @property
    def max_j(self):
        return max(self.js)


def tree_products(increments, j, stages_out=None):
    """Reduce per-sample increments to products over consecutive blocks of j.

    increments: (..., M, 3, 3) rotations (numpy array or Tensor) with M
    divisible by j. Returns (..., M/j, 3, 3): the products at block starts
    0, j, 2j, ... Runs exactly log2(j) pairwise batched stages; each stage
    is appended to stages_out when provided.
    """
    if j < 1 or (j & (j - 1)) != 0:
        raise ValueError(f"j must be a power of two, got {j}")
    is_tensor = isinstance(increments, ad.Tensor)
    m = increments.shape[-3]
    if m % j != 0:
        raise ValueError(f"sequence length {m} not divisible by j={j}")
    x = increments
    for _ in range(int(np.log2(j))):
        a = x[(Ellipsis, slice(0, None, 2), slice(None), slice(None))]
        b = x[(Ellipsis, slice(1, None, 2), slice(None), slice(None))]
        x = ad.matmul(a, b) if is_tensor else np.matmul(a, b)
        if stages_out is not None:
            stages_out.append(x.shape[-3])
    return x


def increment_loss(pred_blocks, gt_blocks, huber_delta, valid):
    """Mean Huber penalty on log(gt @ pred^T) over supervision windows.

    pred_blocks: Tensor (..., W, 3, 3) predicted increments per block.
    gt_blocks: numpy (..., W, 3, 3) ground-truth increments.
    valid: boolean (..., W) mask; False entries (gap windows) are excluded.
    """
    flat_pred = pred_blocks.reshape((-1, 3, 3))
    flat_gt = np.asarray(gt_blocks, dtype=float).reshape((-1, 3, 3))
    keep = np.nonzero(np.asarray(valid, dtype=bool).ravel())[0]
    if keep.size == 0:
        raise ValueError("no valid supervision windows")
    flat_pred = flat_pred[keep]
    flat_gt = flat_gt[keep]
    resid = ad.matmul(ad.Tensor(flat_gt), flat_pred.transpose(0, 2, 1))
    per_window = ad.huber(ad.log_so3(resid), huber_delta).sum(axis=-1)
    return per_window.mean()


@dataclass
class LossBatch:
    """Fixed-length training windows with aligned ground-truth increments.

    x: (B, 6, T) raw IMU windows whose global start indices are multiples
    of max(js), sampled every dt seconds. sup_offset is the local index
    (into the valid network output) of the first supervised increment;
    gt[j] holds (B, W_j, 3, 3) ground-truth increments with validity masks
    in valid[j].
    """

    x: np.ndarray
    sup_offset: int
    sup_len: int
    dt: float
    gt: dict = field(default_factory=dict)
    valid: dict = field(default_factory=dict)


def make_batch(imu_seq, gt_aligned, starts, window_len, net_config,
               loss_config: LossConfig):
    """Assemble a LossBatch from window start indices (multiples of max j).

    gt_aligned must be resampled onto the IMU clock; blocks whose ground
    truth runs past the aligned range or touches a gap are masked out.
    window_len must exceed receptive_field + max(js).
    """
    rf = net_config.receptive_field
    mj = loss_config.max_j
    t = window_len
    sup_first = ((rf + mj - 1) // mj) * mj  # first multiple of mj >= rf
    sup_len = ((t - sup_first) // mj) * mj
    if sup_len < mj:
        raise ValueError("window too short for the receptive field and max j")

    xs = []
    for s in starts:
        if s % mj != 0:
            raise ValueError(f"window start {s} not aligned to {mj}")
        if s + t > len(imu_seq):
            raise ValueError("window exceeds sequence length")
        xs.append(np.concatenate([imu_seq.gyro[s:s + t].T,
                                  imu_seq.acc[s:s + t].T], axis=0))

    # local output index of increment i0: i0 - (s + rf), identical across
    # windows since all starts share the same residue mod mj
    sup_offset = sup_first - rf
    batch = LossBatch(np.stack(xs), sup_offset, sup_len, imu_seq.dt)
    i0 = np.asarray(starts, dtype=np.int64)[:, None] + sup_first
    for j in loss_config.js:
        bs = i0 + j * np.arange(sup_len // j)
        batch.gt[j], batch.valid[j] = data.gt_increments(gt_aligned, bs,
                                                         bs + j)
    return batch


def total_loss(params, batch: LossBatch, config: LossConfig, training=False,
               rng=None, zero_input=False):
    """Differentiable total loss over a LossBatch: sum of the per-j terms."""
    w_hat = network.forward(params, batch.x, training=training, rng=rng,
                            zero_input=zero_input)
    a = batch.sup_offset
    sup = w_hat[(slice(None), slice(None), slice(a, a + batch.sup_len))]
    sup = sup.transpose(0, 2, 1)  # (B, L, 3)
    incs = ad.exp_so3(sup * batch.dt)
    out = None
    for j in config.js:
        pred_blocks = tree_products(incs, j)
        term = increment_loss(pred_blocks, batch.gt[j], config.huber_delta,
                              batch.valid[j])
        out = term if out is None else out + term
    return out
