"""Numerically stable rotation algebra on SO(3).

All rotations are plain 3x3 numpy arrays (optionally stacked along leading
axes). Rotation vectors ("axis-angle") are 3-vectors in radians. Functions
accept both single and batched inputs where noted.
"""

from __future__ import annotations

import numpy as np

# Branch thresholds, shared by the plain kernels and the autodiff nodes.
# Below EXP_SMALL_ANGLE the Rodrigues coefficients use their Taylor series.
# Below LOG_SMALL_ANGLE the log coefficient theta / (2 sin theta) does too:
# its derivative's closed form cancels catastrophically under ~1e-4.
EXP_SMALL_ANGLE = 1e-6
LOG_SMALL_ANGLE = 1e-4
LOG_NEAR_PI = np.pi - 1e-4

ORTHO_TOL = 1e-6


class InvalidRotationError(ValueError):
    """Raised when a matrix fails the SO(3) invariants beyond tolerance."""


class DomainError(ValueError):
    """Raised when a rotation vector is non-finite, or a rotation is too
    close to pi for the differentiable logarithm: what diverging rates
    produce inside the training loss."""


def hat(v):
    """Skew-symmetric matrix of a 3-vector (batched over leading axes)."""
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def vee(m):
    """Inverse of hat: extract the 3-vector from a skew-symmetric matrix."""
    m = np.asarray(m, dtype=float)
    return np.stack(
        [m[..., 2, 1], m[..., 0, 2], m[..., 1, 0]], axis=-1
    )


def _dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def check_rotation(r, tol=ORTHO_TOL):
    """Raise InvalidRotationError if r is not a rotation within tol.

    Batched over leading axes. |R^T R - I|_F comes from the six dot
    products of the columns c0, c1, c2 of R, and det R from the triple
    product c0 . (c1 x c2).
    """
    r = np.asarray(r, dtype=float)
    if r.shape[-2:] != (3, 3):
        raise InvalidRotationError(f"expected trailing shape (3, 3), got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise InvalidRotationError("non-finite entries in rotation matrix")
    c0, c1, c2 = cols = [[r[..., i, j] for i in range(3)] for j in range(3)]
    diag = [_dot3(c, c) - 1.0 for c in cols]
    off = [_dot3(c0, c1), _dot3(c0, c2), _dot3(c1, c2)]
    err = np.sqrt(sum(d * d for d in diag) + 2.0 * sum(o * o for o in off))
    if np.any(err > tol):
        raise InvalidRotationError(
            f"matrix fails orthonormality: |R^T R - I| = {float(np.max(err)):.3e}"
        )
    det = _dot3(c0, (c1[1] * c2[2] - c1[2] * c2[1],
                     c1[2] * c2[0] - c1[0] * c2[2],
                     c1[0] * c2[1] - c1[1] * c2[0]))
    if np.any(np.abs(det - 1.0) > tol):
        raise InvalidRotationError(f"determinant {float(np.min(det)):.6f} != 1")
    return r


def _exp_coeffs(theta):
    """Rodrigues coefficients of angles theta, with their series below
    EXP_SMALL_ANGLE: sin(t)/t, (1 - cos t)/t^2 and (t - sin t)/t^3."""
    small = theta < EXP_SMALL_ANGLE
    th = np.where(small, 1.0, theta)  # avoid division warnings
    sin = np.sin(th)
    a = np.where(small, 1.0 - theta**2 / 6.0, sin / th)
    b = np.where(small, 0.5 - theta**2 / 24.0, (1.0 - np.cos(th)) / th**2)
    c = np.where(small, 1.0 / 6.0 - theta**2 / 120.0, (th - sin) / th**3)
    return a, b, c


def exp_so3(v):
    """SO(3) exponential map (Rodrigues formula), batched over leading axes."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise DomainError("non-finite rotation vector")
    a, b, _ = _exp_coeffs(np.linalg.norm(v, axis=-1))
    k = hat(v)
    return (
        np.eye(3)
        + a[..., None, None] * k
        + b[..., None, None] * (k @ k)
    )


def right_jacobian(v):
    """Right Jacobian of the SO(3) exponential, batched over leading axes:
    exp(v + dv) = exp(v) exp(right_jacobian(v) dv) to first order."""
    v = np.asarray(v, dtype=float)
    _, b, c = _exp_coeffs(np.linalg.norm(v, axis=-1))
    k = hat(v)
    return np.eye(3) - b[..., None, None] * k + c[..., None, None] * (k @ k)


def _log_near_pi(r, theta):
    # (R + R^T)/2 = cos(t) I + (1 - cos(t)) n n^T; recover the axis from the
    # strongest column, then fix its sign with the skew part.
    c = np.cos(theta)
    s = (r + r.T) / 2.0
    nnt = (s - c * np.eye(3)) / (1.0 - c)
    i = int(np.argmax(np.diag(nnt)))
    n = nnt[:, i]
    n = n / np.linalg.norm(n)
    a = vee(r - r.T)  # = 2 sin(t) n
    if np.dot(a, n) < 0:
        n = -n
    elif np.dot(a, n) == 0.0:
        # theta == pi exactly: sign is ambiguous, pick a canonical one
        for x in n:
            if x != 0.0:
                if x < 0:
                    n = -n
                break
    return theta * n


def log_parts(r):
    """Angle theta, a = vee(R - R^T) = 2 sin(theta) n, and the coefficient
    c = theta / (2 sin theta) (series below LOG_SMALL_ANGLE) of rotations
    r (..., 3, 3), so that log(R) = c a away from theta = pi."""
    tr = np.trace(r, axis1=-2, axis2=-1)
    theta = np.arccos(np.clip((tr - 1.0) / 2.0, -1.0, 1.0))
    a = vee(r - np.swapaxes(r, -1, -2))
    small = theta < LOG_SMALL_ANGLE
    th = np.where(small, 1.0, theta)
    c = np.where(small, 0.5 + theta**2 / 12.0, th / (2.0 * np.sin(th)))
    return theta, a, c


def log_so3(r):
    """SO(3) logarithm map, inverse of exp_so3 on the ball |v| < pi.

    Batched over leading axes. Uses a series branch near theta = 0 and
    symmetric-part axis extraction near theta = pi.
    """
    r = check_rotation(r)
    single = r.ndim == 2
    rs = r.reshape((-1, 3, 3))
    theta, a, c = log_parts(rs)
    out = c[:, None] * a
    for idx in np.nonzero(theta > LOG_NEAR_PI)[0]:
        out[idx] = _log_near_pi(rs[idx], theta[idx])
    return out[0] if single else out.reshape(r.shape[:-2] + (3,))


def project_to_so3(m):
    """Nearest rotation matrix (polar decomposition via SVD), batched."""
    m = np.asarray(m, dtype=float)
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    det = np.linalg.det(r)
    # flip the last singular direction where det == -1
    if np.any(det < 0):
        u = u.copy()
        u[..., :, 2] = np.where((det < 0)[..., None], -u[..., :, 2], u[..., :, 2])
        r = u @ vt
    return r


def sequential_product(rots, reproject_every=512):
    """Left-to-right product of a stack of rotations (M, 3, 3).

    Re-projects onto SO(3) every `reproject_every` factors to bound
    round-off drift.
    """
    rots = np.asarray(rots, dtype=float)
    out = np.eye(3)
    for i, r in enumerate(rots):
        out = out @ r
        if reproject_every and (i + 1) % reproject_every == 0:
            out = project_to_so3(out)
    return out


def integrate_increments(r0, omegas, dt, reproject_every=512):
    """Open-loop integration R_n = R_{n-1} exp(omega_n dt).

    Returns the (M+1, 3, 3) stack R_0..R_M for M angular-rate samples.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 2 or omegas.shape[1] != 3:
        raise ValueError(f"expected (M, 3) angular rates, got {omegas.shape}")
    bad = np.nonzero(~np.all(np.isfinite(omegas), axis=1))[0]
    if bad.size:
        raise ValueError(f"non-finite angular rate at index {int(bad[0])}")
    incs = exp_so3(omegas * dt)
    out = np.empty((len(omegas) + 1, 3, 3))
    out[0] = np.asarray(r0, dtype=float)
    cur = out[0]
    for i, inc in enumerate(incs):
        cur = cur @ inc
        if reproject_every and (i + 1) % reproject_every == 0:
            cur = project_to_so3(cur)
        out[i + 1] = cur
    return out


def quat_to_rot(q):
    """Unit quaternion (w, x, y, z) to rotation matrix, batched.

    Internal helper for ground-truth parsing; quaternions are not part of
    the public rotation API.
    """
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    r = np.empty(q.shape[:-1] + (3, 3))
    r[..., 0, 0] = 1 - 2 * (y * y + z * z)
    r[..., 0, 1] = 2 * (x * y - w * z)
    r[..., 0, 2] = 2 * (x * z + w * y)
    r[..., 1, 0] = 2 * (x * y + w * z)
    r[..., 1, 1] = 1 - 2 * (x * x + z * z)
    r[..., 1, 2] = 2 * (y * z - w * x)
    r[..., 2, 0] = 2 * (x * z - w * y)
    r[..., 2, 1] = 2 * (y * z + w * x)
    r[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return r


def rot_to_quat(r):
    """Rotations (..., 3, 3) to unit quaternions (..., 4), as (w, x, y, z).

    Where the trace is positive, w = sqrt(1 + tr) / 2 and the rest follow
    from the skew part. Elsewhere the largest diagonal entry i gives
    q_i = sqrt(1 + r_ii - r_jj - r_kk) / 2, and the result is renormalised:
    the per-row BLAS dot (a 1x4 by 4x1 matmul) adds the squares in the order
    of np.linalg.norm on one quaternion.
    """
    r = np.asarray(r, dtype=float)
    lead = r.shape[:-2]
    r = r.reshape(-1, 3, 3)
    d = np.diagonal(r, axis1=1, axis2=2)
    tr = d[:, 0] + d[:, 1] + d[:, 2]
    pos = tr > 0
    q = np.empty((len(r), 4))

    rp = r[pos]
    s = np.sqrt(tr[pos] + 1.0) * 2
    q[pos, 0] = 0.25 * s
    q[pos, 1] = (rp[:, 2, 1] - rp[:, 1, 2]) / s
    q[pos, 2] = (rp[:, 0, 2] - rp[:, 2, 0]) / s
    q[pos, 3] = (rp[:, 1, 0] - rp[:, 0, 1]) / s

    rn = r[~pos]
    n = np.arange(len(rn))
    i = np.argmax(d[~pos], axis=1)
    j, k = (i + 1) % 3, (i + 2) % 3
    s = np.sqrt(rn[n, i, i] - rn[n, j, j] - rn[n, k, k] + 1.0) * 2
    qn = np.empty((len(rn), 4))
    qn[:, 0] = (rn[n, k, j] - rn[n, j, k]) / s
    qn[n, 1 + i] = 0.25 * s
    qn[n, 1 + j] = (rn[n, j, i] + rn[n, i, j]) / s
    qn[n, 1 + k] = (rn[n, k, i] + rn[n, i, k]) / s
    q[~pos] = qn / np.sqrt(qn[:, None, :] @ qn[:, :, None])[:, 0]
    return q.reshape(lead + (4,))
