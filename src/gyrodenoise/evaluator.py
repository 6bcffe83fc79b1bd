"""Attitude error metrics and baseline comparisons.

AOE is the root-mean-square geodesic distance between estimated and true
attitudes after aligning the estimate to the ground truth at the first
sample. ROE collects relative errors over windows spanning fixed trajectory
displacements (7, 21 and 35 m by default) so drift is scored independently
of where it starts. Both come in a full 3D and a yaw-only variant and are
reported in degrees.

The ROE windows of one distance bucket are held as columns (RoeWindows:
one array per field, one entry per window) from `roe` through the report
summaries to roe.csv, which writes each block of rows with one template.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import data, network, so3

DEFAULT_DISTANCES = (7.0, 21.0, 35.0)
METHODS = ("raw", "calibrated", "proposed", "zero")


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
    term is included in the average.
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
    est = (gt_rots[0] @ est_rots[0].T) @ est_rots
    e = np.swapaxes(gt_rots, -1, -2) @ est
    v = so3.log_so3(e)
    aoe_3d = np.sqrt(np.mean(np.sum(v * v, axis=-1)))
    yaw = _yaw_of(e)
    aoe_yaw = np.sqrt(np.mean(yaw * yaw))
    return np.degrees(aoe_3d), np.degrees(aoe_yaw)


def roe(gt, est_rots, distances=DEFAULT_DISTANCES, tolerance=0.05):
    """Relative orientation errors over fixed-displacement windows.

    gt is a data.GroundTruth aligned to the estimate's sample clock (its
    positions provide the arclength). For each start n the end g(n) is the
    index whose traveled distance is nearest the target; windows off by
    more than the tolerance, or touching a ground-truth gap, are skipped.
    Returns {distance: RoeWindows}: the kept windows' start and end
    indices n < g(n), their traveled distance in m, and their 3D and yaw
    errors in degrees, in order of n.
    """
    est_rots = np.asarray(est_rots, dtype=float)
    if len(gt.rot) != len(est_rots):
        raise ValueError("ground truth and estimate length mismatch")
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
        keep = (g > n) & (np.abs(traveled - dist) <= tolerance * dist)
        n, g, traveled = n[keep], g[keep], traveled[keep]
        d_gt, valid = data.gt_increments(gt, n, g)
        n, g, traveled, d_gt = n[valid], g[valid], traveled[valid], d_gt[valid]
        d_est = np.swapaxes(est_rots[n], -1, -2) @ est_rots[g]
        e = np.swapaxes(d_gt, -1, -2) @ d_est
        err3d = np.degrees(np.linalg.norm(so3.log_so3(e), axis=-1))
        erryaw = np.degrees(np.abs(_yaw_of(e)))
        out[dist] = RoeWindows(n, g, traveled, err3d, erryaw)
    return out


def percentiles(values):
    """Quartiles {25.0, 50.0, 75.0: value} of a sample array (linear
    interpolation); NaN for an empty one."""
    qs = (25.0, 50.0, 75.0)
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {q: float("nan") for q in qs}
    return {q: float(np.percentile(arr, q)) for q in qs}


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


def run_baselines(sequences, params=None, distances=DEFAULT_DISTANCES,
                  methods=METHODS):
    """Evaluate each method on each (name, ImuSequence, GroundTruth) triple.

    Ground truth must be aligned to the IMU clock. Returns MetricsReport
    objects ordered by (sequence name, method order as given).
    """
    reports = []
    for name, seq, gt in sorted(sequences, key=lambda x: x[0]):
        good = ~gt.gap_mask
        for method in methods:
            est = estimate_attitudes(method, seq, gt, params)
            a3, ay = aoe(gt.rot[good], est[good])
            samples = roe(gt, est, distances)
            reports.append(MetricsReport(method, name, a3, ay, samples))
    return reports


# -- report files ------------------------------------------------------------------

def write_reports(reports, outdir):
    """Emit aoe.csv, roe.csv (one row per window), summary.json (AOE and ROE
    quartiles per method and sequence) and an ROE box plot per distance."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "aoe.csv"), "w") as f:
        f.write("method,sequence,aoe_3d_deg,aoe_yaw_deg\n")
        for r in reports:
            f.write(f"{r.method},{r.sequence},{r.aoe_3d:.17g},{r.aoe_yaw:.17g}\n")
    with open(os.path.join(outdir, "roe.csv"), "w") as f:
        f.write("method,sequence,target_m,start,end,"
                "distance_m,error_3d_deg,error_yaw_deg\n")
        for r in reports:
            for dist, w in sorted(r.roe_samples.items()):
                # '%.17g' % x and f"{x:.17g}" print the same digits
                head = f"{r.method},{r.sequence},{dist:g},".replace("%", "%%")
                row = head + "%d,%d,%.6g,%.17g,%.17g\n"
                f.write("".join(map(row.__mod__, zip(
                    w.start.tolist(), w.end.tolist(), w.distance.tolist(),
                    w.error_3d.tolist(), w.error_yaw.tolist()))))
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
    """Reports from an evaluate run's summary.json and the roe.csv beside it;
    window distances keep the 6 significant digits roe.csv holds."""
    roe_path = os.path.join(os.path.dirname(path), "roe.csv")
    rows = {}
    with open(roe_path) as f:
        f.readline()
        for line in f:
            head, target, a, b, d, e3, ey = line.rstrip("\n").rsplit(",", 6)
            method, sequence = head.split(",", 1)
            rows.setdefault((method, sequence, target), []).append(
                (int(a), int(b), float(d), float(e3), float(ey)))
    with open(path) as f:
        summaries = json.load(f)["summaries"]
    reports = []
    for s in summaries:
        samples = {}
        for d, stats in s["roe"].items():
            got = rows.get((s["method"], s["sequence"], f"{float(d):g}"), [])
            if len(got) != stats["count"]:
                raise ValueError(f"{roe_path} does not match {path}")
            a, b, dist, e3, ey = zip(*got) if got else ((),) * 5
            samples[float(d)] = RoeWindows(
                np.array(a, dtype=np.int64), np.array(b, dtype=np.int64),
                np.array(dist, dtype=float), np.array(e3, dtype=float),
                np.array(ey, dtype=float))
        reports.append(MetricsReport(s["method"], s["sequence"], s["aoe_3d"],
                                     s["aoe_yaw"], samples))
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
