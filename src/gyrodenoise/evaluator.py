"""Attitude error metrics and baseline comparisons.

AOE is the root-mean-square geodesic distance between estimated and true
attitudes after aligning the estimate to the ground truth at the first
sample. ROE collects relative errors over windows spanning fixed trajectory
displacements (7, 21 and 35 m by default) so drift is scored independently
of where it starts. Both come in a full 3D and a yaw-only variant and are
reported in degrees.

The ROE windows of one distance bucket are held as columns (RoeWindows:
one array per field, one entry per window) from `roe` through the report
summaries to roe.npy, one structured array of every window's fields. The
method, sequence and bucket of its rows come from the per-bucket counts in
summary.json.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff, data, network, so3

DEFAULT_DISTANCES = (7.0, 21.0, 35.0)
ROE_TOLERANCE = 0.05
METHODS = ("raw", "calibrated", "proposed", "zero")

# aoe and roe_errors score this many rotations at a time, so their
# temporaries stay a block's size whatever the sequence length
SCORE_BLOCK = 4096

# roe.npy's record: the RoeWindows fields, in their units
ROE_DTYPE = np.dtype([("start", "<i8"), ("end", "<i8"), ("distance", "<f8"),
                      ("error_3d", "<f8"), ("error_yaw", "<f8")])


@dataclass
class RoeWindows:
    """The ROE windows of one distance bucket, one array entry per window."""
    start: np.ndarray      # int64 index of the window's first sample
    end: np.ndarray        # int64 index of its last sample
    distance: np.ndarray   # traveled meters, within tolerance of the bucket
    error_3d: np.ndarray   # degrees
    error_yaw: np.ndarray  # degrees

    def __len__(self):
        return len(self.start)


def _yaw_of(e):
    """Yaw angle (rotation about z, ZYX convention) of matrices (..., 3, 3)."""
    return np.arctan2(e[..., 1, 0], e[..., 0, 0])


def aoe(gt_rots, est_rots):
    """Absolute orientation error in degrees, (aoe_3d, aoe_yaw).

    The estimate is left-aligned so est[0] equals gt[0]; the n = 0 zero
    term is included in the average. The errors are computed SCORE_BLOCK
    samples at a time and averaged over the whole sequence.
    """
    gt_rots = np.asarray(gt_rots, dtype=float)
    est_rots = np.asarray(est_rots, dtype=float)
    if len(gt_rots) != len(est_rots):
        raise ValueError(
            f"length mismatch: {len(gt_rots)} ground truth vs "
            f"{len(est_rots)} estimates"
        )
    if len(gt_rots) < 2:
        raise ValueError("need at least two samples")
    align = gt_rots[0] @ est_rots[0].T
    v = np.empty((len(gt_rots), 3))
    yaw = np.empty(len(gt_rots))
    for lo in range(0, len(gt_rots), SCORE_BLOCK):
        blk = slice(lo, lo + SCORE_BLOCK)
        e = np.swapaxes(gt_rots[blk], -1, -2) @ (align @ est_rots[blk])
        v[blk] = so3.log_so3(e)
        yaw[blk] = _yaw_of(e)
    aoe_3d = np.sqrt(np.mean(np.sum(v * v, axis=-1)))
    aoe_yaw = np.sqrt(np.mean(yaw * yaw))
    return np.degrees(aoe_3d), np.degrees(aoe_yaw)


@dataclass
class GtWindows:
    """The ground truth of one distance bucket's ROE windows, one entry per
    window that is within tolerance and clear of gaps."""
    start: np.ndarray      # int64 index n of the window's first sample
    end: np.ndarray        # int64 index g(n) of its last sample
    distance: np.ndarray   # traveled meters
    gt_inv: np.ndarray     # (W, 3, 3) transposed ground-truth increments


def roe_windows(gt, distances=DEFAULT_DISTANCES):
    """{distance: GtWindows} of a data.GroundTruth: the ROE windows every
    estimate on its sample clock is scored over.

    For each start n the end g(n) is the index whose traveled distance is
    nearest the target; windows off by more than ROE_TOLERANCE times the
    target, or touching a ground-truth gap, are skipped.
    """
    seg = np.linalg.norm(np.diff(gt.pos, axis=0), axis=-1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    out = {}
    for dist in distances:
        if cum[-1] < dist:
            raise ValueError(
                f"trajectory too short for the {dist} m bucket "
                f"({cum[-1]:.1f} m traveled)"
            )
        n = np.arange(len(cum))
        g = np.searchsorted(cum, cum + dist)
        g = np.clip(g, 1, len(cum) - 1)
        # nearest-index selection between the bracketing candidates
        below = np.abs(cum[g - 1] - cum - dist)
        above = np.abs(cum[g] - cum - dist)
        g = np.where(below < above, g - 1, g)
        traveled = cum[g] - cum
        keep = (g > n) & (np.abs(traveled - dist) <= ROE_TOLERANCE * dist)
        n, g, traveled = n[keep], g[keep], traveled[keep]
        d_gt, valid = data.gt_increments(gt, n, g)
        out[dist] = GtWindows(n[valid], g[valid], traveled[valid],
                              np.swapaxes(d_gt[valid], -1, -2))
    return out


def roe_errors(windows, est_rots):
    """{distance: RoeWindows} of an attitude track over roe_windows' windows,
    in their order; est_rots must be on the ground truth's sample clock.
    The start, end and distance columns are the windows' own arrays, shared
    by every track scored over them. The errors are computed SCORE_BLOCK
    windows at a time."""
    est_rots = np.asarray(est_rots, dtype=float)
    out = {}
    for dist, w in windows.items():
        err3d = np.empty(len(w.start))
        erryaw = np.empty(len(w.start))
        for lo in range(0, len(w.start), SCORE_BLOCK):
            blk = slice(lo, lo + SCORE_BLOCK)
            d_est = (np.swapaxes(est_rots[w.start[blk]], -1, -2)
                     @ est_rots[w.end[blk]])
            e = w.gt_inv[blk] @ d_est
            err3d[blk] = np.linalg.norm(so3.log_so3(e), axis=-1)
            erryaw[blk] = np.abs(_yaw_of(e))
        out[dist] = RoeWindows(w.start, w.end, w.distance,
                               np.degrees(err3d, out=err3d),
                               np.degrees(erryaw, out=erryaw))
    return out


def roe(gt, est_rots, distances=DEFAULT_DISTANCES):
    """Relative orientation errors over fixed-displacement windows.

    gt is a data.GroundTruth aligned to the estimate's sample clock (its
    positions provide the arclength); the windows are roe_windows'.
    Returns {distance: RoeWindows}: the kept windows' start and end
    indices n < g(n), their traveled distance in m, and their 3D and yaw
    errors in degrees, in order of n.
    """
    if len(gt.rot) != len(est_rots):
        raise ValueError("ground truth and estimate length mismatch")
    return roe_errors(roe_windows(gt, distances), est_rots)


def percentiles(values):
    """Quartiles {25.0, 50.0, 75.0: value} of a sample array (linear
    interpolation); NaN for an empty one."""
    qs = (25.0, 50.0, 75.0)
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {q: float("nan") for q in qs}
    return dict(zip(qs, np.percentile(arr, qs).tolist()))


@dataclass
class MetricsReport:
    method: str
    sequence: str
    aoe_3d: float
    aoe_yaw: float
    roe_samples: dict = field(default_factory=dict)  # distance -> RoeWindows

    def roe_summary(self):
        out = {}
        for dist, samples in sorted(self.roe_samples.items()):
            p3 = percentiles(samples.error_3d)
            py = percentiles(samples.error_yaw)
            out[dist] = {
                "count": len(samples),
                "median_3d": p3[50.0],
                "p25_3d": p3[25.0],
                "p75_3d": p3[75.0],
                "median_yaw": py[50.0],
                "p25_yaw": py[25.0],
                "p75_yaw": py[75.0],
            }
        return out


def estimate_attitudes(method, seq, gt, params=None):
    """Attitude track of one baseline method on the ground-truth clock."""
    n = len(gt.rot)
    r0 = gt.rot[0]
    if method in ("calibrated", "proposed") and params is None:
        raise ValueError(f"method {method!r} needs a trained checkpoint")
    if method == "raw":
        est = so3.integrate_increments(r0, seq.gyro, seq.dt)
    elif method == "calibrated":
        est = network.integrate_corrected(params, seq, r0, zero_input=True)
    elif method == "proposed":
        est = network.integrate_corrected(params, seq, r0)
    elif method == "zero":
        est = np.tile(r0, (n, 1, 1))
    else:
        raise ValueError(f"unknown method {method!r}")
    return est[:n]


def _outcome(fn, *args):
    """(fn(*args), None), or (None, the exception it raised)."""
    try:
        return fn(*args), None
    except Exception as err:
        return None, err


def run_baselines(sequences, params=None, distances=DEFAULT_DISTANCES,
                  methods=METHODS):
    """Evaluate each method on each (name, ImuSequence, GroundTruth) triple.

    Ground truth must be aligned to the IMU clock. Returns MetricsReport
    objects ordered by (sequence name, method order as given).

    Per sequence, once its ROE windows are built, the `proposed` attitude
    track (the blocked CNN forward and its integration) is computed on the
    autodiff compute lane while this thread estimates and scores the other
    methods; then it scores `proposed`. Inside an open `compute_lane()`,
    as under the command line, that is the lane already open; otherwise
    one is opened and joined here. The lane's matrix products and large
    ufunc loops release the GIL, so the two overlap on a second core.
    Every track and score is computed as one after another would compute
    it, so the reports are bit-identical to a serial run's, and when
    methods fail the error raised is the first one in method order.
    """
    reports = []
    with autodiff.compute_lane() as worker:
        for name, seq, gt in sorted(sequences, key=lambda x: x[0]):
            windows = roe_windows(gt, distances)
            ahead = (worker.submit(estimate_attitudes, "proposed", seq, gt,
                                   params)
                     if "proposed" in methods else None)
            # a sequence without gaps is scored on views, not on copies
            good = ~gt.gap_mask if gt.gap_mask.any() else slice(None)

            def score(method):
                est = (ahead.result() if method == "proposed" else
                       estimate_attitudes(method, seq, gt, params))
                a3, ay = aoe(gt.rot[good], est[good])
                return MetricsReport(method, name, a3, ay,
                                     roe_errors(windows, est))

            scored = [None] * len(methods)
            # the other methods first, while the worker runs
            for i in sorted(range(len(methods)),
                            key=lambda i: methods[i] == "proposed"):
                scored[i] = _outcome(score, methods[i])
            for report, err in scored:
                if err is not None:
                    raise err
                reports.append(report)
    return reports


# -- report files ------------------------------------------------------------------

def write_reports(reports, outdir):
    """Emit aoe.csv, roe.npy, summary.json (AOE and ROE quartiles and window
    counts per method, sequence and bucket) and an ROE box plot per distance.

    roe.npy is one ROE_DTYPE array (np.save, no pickle) with a row per
    window: reports in summary.json order, each report's buckets sorted by
    distance, so the summary's counts split it back into buckets.
    """
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "aoe.csv"), "w") as f:
        f.write("method,sequence,aoe_3d_deg,aoe_yaw_deg\n")
        for r in reports:
            f.write(f"{r.method},{r.sequence},{r.aoe_3d:.17g},{r.aoe_yaw:.17g}\n")
    buckets = [w for r in reports for _, w in sorted(r.roe_samples.items())]
    record = np.empty(sum(map(len, buckets)), dtype=ROE_DTYPE)
    lo = 0
    for w in buckets:
        for name in ROE_DTYPE.names:
            record[name][lo:lo + len(w)] = getattr(w, name)
        lo += len(w)
    np.save(os.path.join(outdir, "roe.npy"), record, allow_pickle=False)
    roes = [r.roe_summary() for r in reports]
    summary = {
        "summaries": [
            {"method": r.method, "sequence": r.sequence,
             "aoe_3d": r.aoe_3d, "aoe_yaw": r.aoe_yaw,
             "roe": {str(d): v for d, v in roe.items()}}
            for r, roe in zip(reports, roes)
        ],
    }
    path = os.path.join(outdir, "summary.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    write_roe_boxplot([(r.method, roe) for r, roe in zip(reports, roes)],
                      os.path.join(outdir, "roe_boxplot.svg"))
    return path


def load_reports(path):
    """Reports from an evaluate run's summary.json and the roe.npy beside
    it, split into buckets by the summary's counts; ValueError when either
    file is malformed (a missing key is named) or they do not match."""
    roe_path = os.path.join(os.path.dirname(path), "roe.npy")
    with open(path) as f:
        summary = json.load(f)
    try:
        record = np.load(roe_path, allow_pickle=False)
    except (ValueError, EOFError) as err:  # not an .npy file, or cut short
        raise ValueError(f"{roe_path}: {err}") from None
    if record.dtype != ROE_DTYPE or record.ndim != 1:
        raise ValueError(f"{roe_path} holds a {record.ndim}-D {record.dtype} "
                         f"array, not a 1-D {ROE_DTYPE} record")
    try:
        summaries = summary["summaries"]
        counts = [stats["count"] for s in summaries
                  for stats in s["roe"].values()]
        if sum(counts) != len(record):
            raise ValueError(f"{roe_path} holds {len(record)} windows, but "
                             f"{path} counts {sum(counts)}")
        cuts = np.cumsum(counts)[:-1]
        columns = zip(*(np.split(record[name].copy(), cuts)
                        for name in ROE_DTYPE.names))
        reports = []
        for s in summaries:
            samples = {float(d): RoeWindows(*next(columns)) for d in s["roe"]}
            reports.append(MetricsReport(s["method"], s["sequence"],
                                         s["aoe_3d"], s["aoe_yaw"], samples))
    except KeyError as err:
        raise ValueError(f"summary {path} has no key {err.args[0]!r}") from None
    except TypeError as err:
        raise ValueError(f"summary {path} is malformed: {err}") from None
    return reports


def write_roe_boxplot(roe_summaries, path):
    """3D ROE median/quartile boxes from (method, roe_summary()) pairs."""
    groups = {}
    for method, roe in roe_summaries:
        for dist, s in roe.items():
            groups.setdefault(dist, {}).setdefault(method, []).append(s)
    dists = sorted(groups)
    methods = sorted({method for method, _ in roe_summaries})
    width, height = 120 * max(1, len(dists) * len(methods)), 320
    top, bottom = 20, 40
    hi = max((s["p75_3d"] for g in groups.values()
              for ss in g.values() for s in ss), default=1.0)
    hi = max(hi, 1e-9)

    def y_of(v):
        return top + (height - top - bottom) * (1.0 - v / (1.1 * hi))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{width}" height="{height}">']
    x = 30
    for dist in dists:
        for method in methods:
            stats = groups[dist].get(method)
            if not stats:
                continue
            med = float(np.mean([s["median_3d"] for s in stats]))
            p25 = float(np.mean([s["p25_3d"] for s in stats]))
            p75 = float(np.mean([s["p75_3d"] for s in stats]))
            parts.append(
                f'<rect x="{x}" y="{y_of(p75):.1f}" width="60" '
                f'height="{max(y_of(p25) - y_of(p75), 0.5):.1f}" '
                f'fill="none" stroke="black"/>'
            )
            parts.append(
                f'<line x1="{x}" y1="{y_of(med):.1f}" x2="{x + 60}" '
                f'y2="{y_of(med):.1f}" stroke="red"/>'
            )
            parts.append(
                f'<text x="{x}" y="{height - 8}" font-size="10">'
                f"{method}@{dist:g}m</text>"
            )
            x += 100
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts))
