import numpy as np
import pytest

from gyrodenoise import so3


# --- independent quaternion oracle -----------------------------------------

def quat_mul(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return np.array([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ])


def quat_from_axis_angle(v):
    theta = np.linalg.norm(v)
    if theta < 1e-300:
        return np.array([1.0, 0, 0, 0])
    axis = v / theta
    return np.concatenate([[np.cos(theta / 2)], np.sin(theta / 2) * axis])


def rot_from_quat(q):
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


# --- exp --------------------------------------------------------------------

def test_exp_zero_is_identity():
    assert np.array_equal(so3.exp_so3([0.0, 0.0, 0.0]), np.eye(3))


def test_exp_quarter_turn_maps_x_to_y():
    r = so3.exp_so3([0.0, 0.0, np.pi / 2])
    np.testing.assert_allclose(r @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-15)
    # cross-check against the quaternion oracle
    np.testing.assert_allclose(
        r, rot_from_quat(quat_from_axis_angle(np.array([0, 0, np.pi / 2]))),
        atol=1e-15,
    )


def test_exp_generic_vector_is_orthonormal_and_roundtrips():
    v = np.array([0.3, -0.2, 0.1])
    r = so3.exp_so3(v)
    np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(r) - 1) < 1e-12
    np.testing.assert_allclose(so3.log_so3(r), v, atol=1e-9)


def test_exp_matches_quaternion_oracle_randomized():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.normal(size=3) * rng.uniform(0, np.pi - 0.05)
        np.testing.assert_allclose(
            so3.exp_so3(v), rot_from_quat(quat_from_axis_angle(v)), atol=1e-12
        )


def test_exp_rejects_non_finite():
    with pytest.raises(ValueError):
        so3.exp_so3([np.nan, 0, 0])


# --- log --------------------------------------------------------------------

def test_log_identity_is_zero():
    assert np.array_equal(so3.log_so3(np.eye(3)), np.zeros(3))


def test_log_near_pi_branch():
    theta = np.pi - 1e-4
    r = so3.exp_so3([0, 0, theta])
    v = so3.log_so3(r)
    assert abs(np.linalg.norm(v) - theta) < 1e-6
    np.testing.assert_allclose(v, [0, 0, theta], atol=1e-6)


def test_log_near_pi_oracle_randomized():
    rng = np.random.default_rng(1)
    for _ in range(50):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        theta = np.pi - rng.uniform(1e-6, 1e-4)
        r = rot_from_quat(quat_from_axis_angle(theta * axis))
        np.testing.assert_allclose(so3.log_so3(r), theta * axis, atol=1e-6)


def test_log_rejects_non_orthonormal():
    with pytest.raises(so3.InvalidRotationError):
        so3.log_so3(np.eye(3) + 1e-3)


def check_rotation_reference(r, tol=so3.ORTHO_TOL):
    """The batched-matmul and np.linalg.det check that the closed form
    replaced: None if r passes, else the message it raises with."""
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        return "non-finite entries in rotation matrix"
    err = np.linalg.norm(np.swapaxes(r, -1, -2) @ r - np.eye(3), axis=(-2, -1))
    if np.any(err > tol):
        return ("matrix fails orthonormality: |R^T R - I| = "
                f"{float(np.max(err)):.3e}")
    det = np.linalg.det(r)
    if np.any(np.abs(det - 1.0) > tol):
        return f"determinant {float(np.min(det)):.6f} != 1"
    return None


def check_rotation_outcome(r):
    try:
        so3.check_rotation(r)
    except so3.InvalidRotationError as err:
        return str(err)
    return None


def test_check_rotation_matches_matmul_det_reference():
    rng = np.random.default_rng(41)
    rots = so3.exp_so3(rng.normal(scale=2.0, size=(500, 3)))

    def sheared(f):
        # R (I + s e0 e1^T): |M^T M - I|_F = sqrt(2 s^2 + s^4) = f * tol,
        # det 1
        s = np.sqrt(np.sqrt(1.0 + (f * so3.ORTHO_TOL) ** 2) - 1.0)
        m = np.eye(3)
        m[0, 1] = s
        return rots @ m

    nan, inf = rots.copy(), rots.copy()
    nan[7, 1, 2] = np.nan
    inf[3, 0, 0] = -np.inf
    reflected = rots @ np.diag([1.0, 1.0, -1.0])
    mixed = rots.copy()
    mixed[-1] = sheared(1.01)[-1]
    cases = {"rotations": rots, "below tol": sheared(0.99),
             "above tol": sheared(1.01), "reflection": reflected,
             "nan": nan, "inf": inf, "one bad in a batch": mixed,
             "stacked": rots.reshape(5, 100, 3, 3)}
    want = {"rotations": None, "below tol": None, "reflection": "determinant",
            "nan": "non-finite", "inf": "non-finite",
            "above tol": "orthonormality", "one bad in a batch": "orthonormality",
            "stacked": None}
    for name, batch in cases.items():
        ref = check_rotation_reference(batch)
        assert check_rotation_outcome(batch) == ref, name
        assert (ref is None) == (want[name] is None), name
        if ref is not None:
            assert want[name] in ref, name
        for i, r in enumerate(batch.reshape(-1, 3, 3)[::50]):
            assert (check_rotation_outcome(r)
                    == check_rotation_reference(r)), (name, i)


def test_exp_log_roundtrip_property():
    rng = np.random.default_rng(2)
    n = 10_000
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    thetas = rng.uniform(0, np.pi - 0.05, size=n)
    # force coverage of both branches
    thetas[:100] = rng.uniform(0, 1e-7, size=100)
    thetas[100:200] = np.pi - 0.05 - rng.uniform(0, 1e-6, size=100)
    v = axes * thetas[:, None]
    err = np.linalg.norm(so3.log_so3(so3.exp_so3(v)) - v, axis=1)
    assert np.max(err) < 1e-8


def test_collinear_group_property():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=3)
        v *= rng.uniform(0, np.pi / 2 - 0.1) / np.linalg.norm(v)
        lhs = so3.exp_so3(v) @ so3.exp_so3(v)
        np.testing.assert_allclose(lhs, so3.exp_so3(2 * v), atol=1e-10)


# --- products ---------------------------------------------------------------

def test_drift_bounded_over_many_compositions():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(10_000, 3)) * 0.05
    rots = so3.exp_so3(v)
    out = so3.sequential_product(rots, reproject_every=512)
    assert np.linalg.norm(out.T @ out - np.eye(3)) < 1e-9


def test_project_to_so3_recovers_perturbed_rotation():
    rng = np.random.default_rng(5)
    r = so3.exp_so3(rng.normal(size=3))
    p = so3.project_to_so3(r + 1e-10 * rng.normal(size=(3, 3)))
    so3.check_rotation(p, tol=1e-12)
    np.testing.assert_allclose(p, r, atol=1e-9)


# --- quaternions --------------------------------------------------------------

def rot_to_quat_reference(r):
    """One matrix at a time: the form the batched kernel must match bit for
    bit, trace branch and renormalised largest-diagonal branch alike."""
    tr = np.trace(r)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        return np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s,
             (r[1, 0] - r[0, 1]) / s]
        )
    i = int(np.argmax(np.diag(r)))
    j, k = (i + 1) % 3, (i + 2) % 3
    s = np.sqrt(r[i, i] - r[j, j] - r[k, k] + 1.0) * 2
    q = np.empty(4)
    q[0] = (r[k, j] - r[j, k]) / s
    q[1 + i] = 0.25 * s
    q[1 + j] = (r[j, i] + r[i, j]) / s
    q[1 + k] = (r[k, i] + r[i, k]) / s
    return q / np.linalg.norm(q)


def test_rot_to_quat_matches_per_matrix_reference_bit_for_bit():
    rng = np.random.default_rng(12)
    axes = rng.normal(size=(6000, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    # all angles, then within 1e-6 of pi, where the renormalisation matters
    angles = np.concatenate([rng.uniform(0.0, np.pi, 3000),
                             np.pi - rng.uniform(0.0, 1e-6, 3000)])
    rots = so3.exp_so3(axes * angles[:, None])
    rots = np.concatenate([rots, np.eye(3)[None], so3.exp_so3(
        np.pi * np.eye(3))])
    diag = np.diagonal(rots, axis1=1, axis2=2)
    trace_branch = np.array([np.trace(r) > 0 for r in rots])
    assert trace_branch.sum() > 1000 and (~trace_branch).sum() > 4000
    # every largest-diagonal axis of the second branch is exercised
    counts = np.bincount(np.argmax(diag[~trace_branch], axis=1), minlength=3)
    assert counts.min() > 1000
    want = np.array([rot_to_quat_reference(r) for r in rots])
    got = so3.rot_to_quat(rots)
    np.testing.assert_array_equal(got, want)
    # any leading shape, a single matrix included
    np.testing.assert_array_equal(
        so3.rot_to_quat(rots[:12].reshape(3, 4, 3, 3)), want[:12].reshape(
            3, 4, 4))
    np.testing.assert_array_equal(so3.rot_to_quat(rots[-1]), want[-1])
    # and it inverts quat_to_rot up to the quaternion's sign
    back = so3.quat_to_rot(got)
    np.testing.assert_allclose(back, rots, rtol=0, atol=1e-12)


# --- integrate_increments ---------------------------------------------------

def integrate_reference(r0, omegas, dt):
    """One sample at a time, projecting the running product onto SO(3)
    after every REPROJECT_EVERY-th increment."""
    incs = so3.exp_so3(np.asarray(omegas, dtype=float) * dt)
    out = np.empty((len(incs) + 1, 3, 3))
    out[0] = r0
    cur = out[0]
    for i, inc in enumerate(incs):
        cur = cur @ inc
        if (i + 1) % so3.REPROJECT_EVERY == 0:
            cur = so3.project_to_so3(cur)
        out[i + 1] = cur
    return out


@pytest.mark.parametrize("m", [1, 511, 512, 513, 1024, 1025, 12_000])
def test_integrate_matches_per_sample_reference(m):
    rng = np.random.default_rng(m)
    r0 = so3.exp_so3(rng.normal(size=3))
    omegas = rng.normal(size=(m, 3)) * 2.0
    out = so3.integrate_increments(r0, omegas, 0.005)
    assert out.shape == (m + 1, 3, 3)
    np.testing.assert_array_equal(out[0], r0)
    want = integrate_reference(r0, omegas, 0.005)
    err = np.swapaxes(want, -1, -2) @ out
    assert np.max(np.linalg.norm(so3.log_so3(err), axis=-1)) <= 1e-12


def integrate_whole_exp(r0, omegas, dt):
    """integrate_increments as it was with one exp_so3 over all M samples."""
    omegas = np.asarray(omegas, dtype=float)
    m = len(omegas)
    out = np.empty((m + 1, 3, 3))
    out[0] = r0
    width = min(so3.REPROJECT_EVERY, m)
    n_blocks = -(-m // width)
    inc = np.empty((n_blocks * width, 3, 3))
    inc[:m] = so3.exp_so3(omegas * dt)
    inc[m:] = np.eye(3)
    prefix = inc.reshape(n_blocks, width, 3, 3)
    for k in range(1, width):
        prefix[:, k] = np.matmul(prefix[:, k - 1], prefix[:, k])
    start = out[0]
    for b in range(n_blocks):
        lo, hi = b * width, min((b + 1) * width, m)
        out[lo + 1:hi + 1] = np.matmul(start, prefix[b, :hi - lo])
        if hi % so3.REPROJECT_EVERY == 0:
            start = out[hi] = so3.project_to_so3(out[hi])
    return out


@pytest.mark.parametrize("m", [1, 511, 512, 513, 12_000])
def test_integrate_block_exp_matches_whole_array_exp(m):
    rng = np.random.default_rng(100 + m)
    r0 = so3.exp_so3(rng.normal(size=3))
    omegas = rng.normal(size=(m, 3)) * 2.0
    omegas[::5] *= 1e-7  # angles under EXP_SMALL_ANGLE take the series
    omegas[::7] = 0.0
    np.testing.assert_array_equal(so3.integrate_increments(r0, omegas, 0.005),
                                  integrate_whole_exp(r0, omegas, 0.005))


def test_integrate_peak_memory_in_blocks(traced_peak):
    # the result and the increments are 0.86 MB each at 12,000 samples;
    # with one exp_so3 over all of them the traced peak was 5.8 MB
    omegas = np.random.default_rng(12).normal(size=(12_000, 3))
    peak = traced_peak(lambda: so3.integrate_increments(np.eye(3), omegas,
                                                        0.005))
    assert peak < 3_000_000


def test_integrate_projects_at_multiples_of_the_period():
    # round-off pulls the running product off SO(3) by a few 1e-15 over a
    # period; the projection at each multiple of it brings that back down
    rng = np.random.default_rng(11)
    n = so3.REPROJECT_EVERY * np.arange(1, 9)
    out = so3.integrate_increments(np.eye(3), rng.normal(size=(n[-1] + 7, 3)),
                                   0.005)
    gram = np.swapaxes(out, -1, -2) @ out - np.eye(3)
    off = np.linalg.norm(gram, axis=(-2, -1))
    assert np.median(off[n]) < 0.3 * np.median(off[n - 1])


def test_integrate_zero_rates_stays_put():
    r0 = so3.exp_so3([0.1, 0.2, 0.3])
    out = so3.integrate_increments(r0, np.zeros((10, 3)), 0.005)
    assert out.shape == (11, 3, 3)
    for r in out:
        np.testing.assert_allclose(r, r0, atol=0)


def test_integrate_constant_yaw_closed_form():
    omegas = np.tile([0.0, 0.0, 0.1], (2000, 1))
    out = so3.integrate_increments(np.eye(3), omegas, 0.005)
    np.testing.assert_allclose(out[-1], so3.exp_so3([0, 0, 1.0]), atol=1e-9)


def test_integrate_matches_sequential_exp_product():
    rng = np.random.default_rng(6)
    omegas = rng.normal(size=(300, 3))
    dt = 0.005
    out = so3.integrate_increments(np.eye(3), omegas, dt)
    prod = so3.sequential_product(so3.exp_so3(omegas * dt), reproject_every=0)
    np.testing.assert_allclose(out[0].T @ out[-1], prod, atol=1e-12)


def test_integrate_left_equivariance():
    rng = np.random.default_rng(7)
    omegas = rng.normal(size=(100, 3)) * 0.3
    r0 = so3.exp_so3(rng.normal(size=3))
    dr = so3.exp_so3(rng.normal(size=3))
    a = so3.integrate_increments(dr @ r0, omegas, 0.01)
    b = so3.integrate_increments(r0, omegas, 0.01)
    np.testing.assert_allclose(a, dr @ b, atol=1e-12)


def test_integrate_reports_offending_index():
    omegas = np.zeros((5, 3))
    omegas[3, 1] = np.inf
    with pytest.raises(ValueError, match="index 3"):
        so3.integrate_increments(np.eye(3), omegas, 0.01)
    with pytest.raises(ValueError):
        so3.integrate_increments(np.eye(3), np.zeros((5, 3)), 0.0)

