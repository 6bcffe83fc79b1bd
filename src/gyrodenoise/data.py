"""Dataset ingestion, ground-truth alignment and ground-truth increments.

One CSV reader serves every supported recording:
  IMU           t_ns, 3 gyro (rad/s), 3 accelerometer (m/s^2) columns: the
                canonical file written by this package and the native
                EuRoC MAV / TUM-VI imu0 csv (w_RS_S_*, a_RS_S_*)
  ground truth  t_ns, p(3), q(w,x,y,z); extra columns (EuRoC) are ignored
The rows after the header are read in one numpy pass; a file that pass
rejects goes through a line parser, which names the line of any malformed,
short or non-finite row. The writers emit every value in %.17g, which reads
back to the same float64. The sample period is measured from the IMU
stamps, never configured.

Each successful parse is kept beside its CSV in `<file>.parsed.npz`, keyed
by the SHA-256 of the file's bytes, the column count, the text encoding
and parser_version(); a later read of the same bytes loads the arrays
from it instead of parsing again, with the same bits. parser_version()
holds the SHA-256 of this module's source and numpy's version, so any
change to what a parse returns or rejects, or to what a sidecar holds,
turns every earlier sidecar into a miss by itself. A sidecar that is
missing, unreadable or holds another key is a miss. It is written only
where the CSV's directory is writable, with the CSV's permission bits,
and it is always safe to delete.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import locale
import os
import pathlib
import shutil
import tempfile
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import so3


class ValidationError(ValueError):
    """Input data fails a structural or numerical sanity check."""


@dataclass
class ImuSequence:
    t: np.ndarray            # ns, strictly increasing
    gyro: np.ndarray         # (M, 3) rad/s
    acc: np.ndarray          # (M, 3) m/s^2
    name: str = ""
    # sample period (s): the median of the exact int64 stamp differences
    dt: float = field(init=False)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.int64)
        self.gyro = np.asarray(self.gyro, dtype=float)
        self.acc = np.asarray(self.acc, dtype=float)
        if len(self.t) != len(self.gyro) or len(self.t) != len(self.acc):
            raise ValidationError("timestamp/channel length mismatch")
        if len(self.t) < 2:
            raise ValidationError("the sample period needs two IMU samples")
        dts = np.diff(self.t)
        if np.any(dts <= 0):
            i = int(np.nonzero(dts <= 0)[0][0])
            raise ValidationError(f"non-monotonic timestamps at row {i + 1}")
        self.dt = float(np.median(dts)) / 1e9

    def __len__(self):
        return len(self.t)

    def window(self, start, stop):
        return ImuSequence(self.t[start:stop], self.gyro[start:stop],
                           self.acc[start:stop], self.name)


@dataclass
class GroundTruth:
    t: np.ndarray            # ns
    rot: np.ndarray          # (K, 3, 3)
    pos: np.ndarray          # (K, 3) m
    gap_mask: np.ndarray = None  # (K,) bool, True where ground truth absent

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.int64)
        self.rot = np.asarray(self.rot, dtype=float)
        self.pos = np.asarray(self.pos, dtype=float)
        if self.gap_mask is None:
            self.gap_mask = np.zeros(len(self.t), dtype=bool)
        self.gap_mask = np.asarray(self.gap_mask, dtype=bool)

    def __len__(self):
        return len(self.t)

    def window(self, start, stop):
        return GroundTruth(self.t[start:stop], self.rot[start:stop],
                           self.pos[start:stop], self.gap_mask[start:stop])


# -- parsing -------------------------------------------------------------------

SIDECAR_SUFFIX = ".parsed.npz"


@functools.cache
def parser_version():
    """Part of every sidecar key: the SHA-256 of this module's source (the
    parse, its checks and the sidecar format all live here) and numpy's
    version (np.loadtxt's rules), so that no sidecar another version of the
    parser wrote is ever read."""
    with open(__file__, "rb") as f:
        source = hashlib.sha256(f.read()).hexdigest()
    return f"gyrodenoise.data sha256={source} numpy={np.__version__}"


def _read_csv_rows(path, n_cols_min):
    """Numeric rows of a CSV whose first column is a timestamp in ns.

    Returns (t, values): the timestamps as exact int64 (a float64 parse
    would round EuRoC-scale stamps, ~1.4e18 ns, to multiples of 256 ns) and
    the next n_cols_min - 1 columns as a float (N, n_cols_min - 1) array.
    Non-numeric lines before the first data row are headers.

    When the file's sidecar holds the key of its bytes, the arrays come
    from the sidecar; otherwise the file is parsed, and the result is
    stored in the sidecar for the next read when the file's bytes did not
    change during the parse.
    """
    raw = pathlib.Path(path).read_bytes()
    key = (f"{parser_version()} columns={n_cols_min} "
           f"encoding={locale.getpreferredencoding(False)} "
           f"sha256={hashlib.sha256(raw).hexdigest()}")
    sidecar = os.fspath(path) + SIDECAR_SUFFIX
    rows = _read_sidecar(sidecar, key, n_cols_min)
    if rows is None:
        # np.loadtxt reads a path in chunks but a stream over raw a line at
        # a time, so the path is parsed, and _write_sidecar checks that the
        # file still holds raw
        rows = _parse_csv(path, n_cols_min)
        _write_sidecar(path, raw, sidecar, key, *rows)
    return rows


def _read_sidecar(path, key, n_cols_min):
    """(t, values) from the sidecar at path when it holds key, else None."""
    try:
        # np.load leaves a file it opened itself open when the archive is
        # malformed
        with open(path, "rb") as f:
            z = np.load(f, allow_pickle=False)
            if not isinstance(z, np.lib.npyio.NpzFile):
                return None  # a lone .npy array
            with z:
                if z["key"].tolist() != key:
                    return None
                t, values = z["t"], z["v"]
    # what np.load raises on a file that is not a whole npz archive of
    # arrays
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    if (t.dtype != np.int64 or values.dtype != np.float64 or t.ndim != 1
            or values.shape != (len(t), n_cols_min - 1)):
        return None
    return t, values


def _write_sidecar(path, raw, sidecar, key, t, values):
    """Store the parse of the CSV at path in sidecar, with the CSV's
    permission bits, so whoever can read the CSV can read it too. A file
    that no longer holds raw, the bytes key was made from, was rewritten
    during its parse and is not stored.

    It is written to a temporary file in the same directory and moved into
    place, so a reader finds either no sidecar or a whole one. A directory
    that cannot be written means no sidecar, and no temporary file is left
    behind; one that a killed process leaves is named after its sidecar
    (`<sidecar>.<random>.tmp`).
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(sidecar) or ".",
                                   prefix=os.path.basename(sidecar) + ".",
                                   suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as f:
            if pathlib.Path(path).read_bytes() != raw:
                return
            np.savez(f, key=np.array(key), t=t, v=values)
        shutil.copymode(path, tmp)
        os.replace(tmp, sidecar)
    except OSError:
        pass  # no sidecar: the next read parses again
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _parse_csv(path, n_cols_min):
    """_read_csv_rows's (t, values), parsed from the file at path.

    The lines after the headers are read in one np.loadtxt pass. Any file
    that pass rejects (a float-formatted or out-of-range stamp, a short row,
    a malformed field, a blank-looking or comment line after the first data
    row) or that holds a non-finite value goes to the line parser, which
    owns every error message and the truncation of float stamps. A '#' is
    data to loadtxt here, so "1,2,3 # note" fails both readers alike.
    """
    skip = _header_lines(path)
    if skip is None:
        raise ValidationError(f"{path}: no data rows")
    try:
        rows = np.loadtxt(
            path, delimiter=",", comments=None, skiprows=skip,
            usecols=range(n_cols_min), ndmin=1,
            dtype=[("t", "<i8"), ("v", "<f8", (n_cols_min - 1,))])
    except ValueError:
        pass
    else:
        if np.isfinite(rows["v"]).all():
            return (np.ascontiguousarray(rows["t"]),
                    np.ascontiguousarray(rows["v"]))
    return _parse_csv_lines(path, n_cols_min, skip)


def _header_lines(path):
    """Number of lines before the first one whose first field is a
    timestamp, or None when no line is."""
    with open(path) as f:
        for i, line in enumerate(f):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                _parse_stamp(line.split(",")[0])
            except ValueError:
                continue
            return i
    return None


def _parse_csv_lines(path, n_cols_min, skip):
    """_read_csv_rows for the lines after the first skip, one at a time;
    every error names its line."""
    stamps, rows, linenos = [], [], []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if lineno <= skip or not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                stamp = _parse_stamp(parts[0])
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: malformed numeric field"
                ) from None
            if len(parts) < n_cols_min:
                raise ValidationError(
                    f"{path}: line {lineno}: expected at least {n_cols_min} "
                    f"columns, got {len(parts)}"
                )
            try:
                row = [float(x) for x in parts[1:n_cols_min]]
            except ValueError:
                raise ValidationError(
                    f"{path}: line {lineno}: malformed numeric field"
                ) from None
            if stamp is None:
                raise ValidationError(f"{path}: line {lineno}: non-finite value")
            stamps.append(stamp)
            rows.append(row)
            linenos.append(lineno)
    values = np.array(rows)
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        lineno = linenos[int(np.argmax(bad))]
        raise ValidationError(f"{path}: line {lineno}: non-finite value")
    try:
        t = np.array(stamps, dtype=np.int64)
    except OverflowError:
        i = next(i for i, s in enumerate(stamps) if not -2**63 <= s < 2**63)
        raise ValidationError(
            f"{path}: line {linenos[i]}: timestamp outside the int64 range"
        ) from None
    return t, values


def _parse_stamp(s):
    """Exact integer nanoseconds. A float-formatted stamp is truncated, and
    a non-finite one gives None; ValueError if s is not a number."""
    try:
        return int(s)
    except ValueError:
        v = float(s)
        return int(v) if np.isfinite(v) else None


def load_sequence(imu_path, gt_path, name=""):
    """Load one recording. Returns (ImuSequence, GroundTruth)."""
    imu_t, imu_rows = _read_csv_rows(imu_path, 7)
    imu = ImuSequence(
        t=imu_t,
        gyro=imu_rows[:, 0:3],
        acc=imu_rows[:, 3:6],
        name=name,
    )
    gt_t, gt_rows = _read_csv_rows(gt_path, 8)
    gt = GroundTruth(
        t=gt_t,
        rot=so3.quat_to_rot(gt_rows[:, 3:7]),
        pos=gt_rows[:, 0:3],
    )
    return imu, gt


def write_imu_csv(path, t_ns, gyro, acc):
    _write_csv(path, "t_ns,gx,gy,gz,ax,ay,az\n", t_ns,
               np.concatenate([gyro, acc], axis=1))


def write_gt_csv(path, t_ns, rots, pos):
    _write_csv(path, "t_ns,px,py,pz,qw,qx,qy,qz\n", t_ns,
               np.concatenate([pos, so3.rot_to_quat(rots)], axis=1))


def _write_csv(path, header, t_ns, values):
    """One row per stamp: the stamp as an integer, then each value of its
    row of values in %.17g, which reads back to the same float64."""
    values = np.asarray(values, dtype=float)
    row = "%d" + ",%.17g" * values.shape[1] + "\n"
    with open(path, "w") as f:
        f.write(header)
        f.write("".join(map(row.__mod__, zip(np.asarray(t_ns).tolist(),
                                             *values.T.tolist()))))


# -- alignment -----------------------------------------------------------------

def align_ground_truth(imu: ImuSequence, gt: GroundTruth, offset_s=0.0):
    """Resample ground truth onto IMU timestamps.

    Rotations are interpolated along the geodesic
    R(tau) = R_a exp(tau log(R_a^T R_b)), positions linearly. IMU samples
    bracketed by a ground-truth spacing larger than 2.5 times the median
    spacing, or falling outside the ground-truth range, are flagged
    in gap_mask. A constant time offset (seconds) is applied to the
    ground-truth clock before resampling.
    """
    gt_t = gt.t + np.int64(round(offset_s * 1e9))
    if gt_t[-1] < imu.t[0] or gt_t[0] > imu.t[-1]:
        raise ValidationError("no time overlap between IMU and ground truth")

    if np.array_equal(gt_t, imu.t):
        return GroundTruth(imu.t, gt.rot.copy(), gt.pos.copy(),
                           gt.gap_mask.copy())

    med_dt = float(np.median(np.diff(gt_t)))
    idx = np.searchsorted(gt_t, imu.t, side="right") - 1
    outside = (idx < 0) | (idx >= len(gt_t) - 1)
    idx = np.clip(idx, 0, len(gt_t) - 2)
    # differences in exact int64 before the division: float64 stamps at
    # EuRoC scale (~1.4e18 ns) are rounded to multiples of 256 ns
    span = gt_t[idx + 1] - gt_t[idx]
    tau = np.clip((imu.t - gt_t[idx]) / span, 0.0, 1.0)

    ra = gt.rot[idx]
    rb = gt.rot[idx + 1]
    dv = so3.log_so3(np.swapaxes(ra, -1, -2) @ rb)
    rot = ra @ so3.exp_so3(tau[:, None] * dv)
    pos = gt.pos[idx] * (1 - tau[:, None]) + gt.pos[idx + 1] * tau[:, None]

    gaps = outside | (span > 2.5 * med_dt)
    gaps |= gt.gap_mask[idx] | gt.gap_mask[np.clip(idx + 1, 0, len(gt_t) - 1)]
    # exact hits on the last ground-truth sample are not outside
    exact_last = imu.t == gt_t[-1]
    gaps &= ~exact_last
    return GroundTruth(imu.t, rot, pos, gaps)


def gt_increments(gt: GroundTruth, starts, ends):
    """Ground-truth increments delta R = R_start^T R_end per window.

    starts and ends are integer arrays of one shape S. Returns rots
    (S, 3, 3) and valid (S,): a window is valid when its end lies inside
    the sequence and no sample in [start, end] is a gap. Invalid windows
    hold the identity.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    cumgap = np.concatenate([[0], np.cumsum(gt.gap_mask, dtype=np.int64)])
    valid = ends < len(gt.rot)
    valid[valid] = cumgap[ends[valid] + 1] == cumgap[starts[valid]]
    rots = np.tile(np.eye(3), starts.shape + (1, 1))
    rots[valid] = (np.swapaxes(gt.rot[starts[valid]], -1, -2)
                   @ gt.rot[ends[valid]])
    return rots, valid


# -- config files ----------------------------------------------------------------

def parse_config(path):
    """Flat `key = value` file; '#' starts a comment; later keys win."""
    cfg = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}: line {lineno}: expected key = value")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg
