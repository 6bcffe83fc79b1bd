"""Property tests for the shared SO(3) kernels and the autodiff nodes over them.

Each property runs on hypothesis-drawn rotation vectors plus explicit angles
just below and just above every branch threshold, so both sides of each
series/closed-form switch are always exercised.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gyrodenoise import autodiff as ad
from gyrodenoise import so3

NODE_MAX_ANGLE = np.pi - 0.01   # the autodiff log node's domain

# (1 -/+ 1e-3) around the series thresholds; +/- 1e-6 rad around the
# near-pi switch, which keeps both sides below pi
SMALL_EDGES = [t * f for t in (so3.EXP_SMALL_ANGLE, so3.LOG_SMALL_ANGLE)
               for f in (1 - 1e-3, 1 + 1e-3)]
PI_EDGES = [so3.LOG_NEAR_PI - 1e-6, so3.LOG_NEAR_PI + 1e-6]

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
EDGE_DIRECTION = (0.3, -0.5, 0.8)

directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda d: np.linalg.norm(d) > 0.1)


def at_angles(angles, **other):
    """Add an explicit example at each angle along a fixed direction."""
    def deco(fn):
        for a in angles:
            fn = example(direction=EDGE_DIRECTION, angle=a, **other)(fn)
        return fn
    return deco


def rotvec(direction, angle):
    d = np.asarray(direction, dtype=float)
    return angle * d / np.linalg.norm(d)


def central_difference(f, x, h):
    """Gradient of scalar f at x (any shape) by central differences."""
    g = np.zeros_like(x)
    for i in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (f(x + step) - f(x - step)) / (2 * h)
    return g


def assert_close_relative(got, want, rtol, atol=0.0):
    err = np.linalg.norm(got - want)
    assert err <= rtol * np.linalg.norm(want) + atol, (err, got, want)


def log_rtol(angle):
    """Relative accuracy of the log at this angle. arccos loses about
    eps / sin(angle) of the angle, which theta / (2 sin theta) turns into a
    relative error of about eps / (pi - angle)^2 just below LOG_NEAR_PI."""
    return 1e-14 * (1.0 + 1.0 / (np.pi - angle) ** 2)


# -- kernels ------------------------------------------------------------------------

@PROPERTY
@at_angles(SMALL_EDGES + PI_EDGES)
@given(direction=directions, angle=st.floats(0.0, np.pi - 1e-3))
def test_log_inverts_exp(direction, angle):
    v = rotvec(direction, angle)
    assert_close_relative(so3.log_so3(so3.exp_so3(v)), v, log_rtol(angle))


@PROPERTY
@at_angles(SMALL_EDGES + PI_EDGES, q=(1.0, 2.0, -0.5), q_angle=2.0)
@given(direction=directions, angle=st.floats(0.0, np.pi - 1e-3),
       q=directions, q_angle=st.floats(0.0, np.pi))
def test_log_is_conjugation_equivariant(direction, angle, q, q_angle):
    v = rotvec(direction, angle)
    rq = so3.exp_so3(rotvec(q, q_angle))
    # the two products round each matrix entry by about eps, absolutely
    assert_close_relative(so3.log_so3(rq @ so3.exp_so3(v) @ rq.T), rq @ v,
                          log_rtol(angle), atol=1e-15)


# -- autodiff nodes -------------------------------------------------------------------

@PROPERTY
@at_angles(SMALL_EDGES)
@given(direction=directions, angle=st.floats(0.0, NODE_MAX_ANGLE))
def test_node_forwards_match_kernels_bit_for_bit(direction, angle):
    v = rotvec(direction, angle)
    r = so3.exp_so3(v)
    assert np.array_equal(ad.exp_so3(v).data, r)
    assert np.array_equal(ad.log_so3(r).data, so3.log_so3(r))


@PROPERTY
@at_angles(SMALL_EDGES)
@given(direction=directions, angle=st.floats(0.0, NODE_MAX_ANGLE))
def test_exp_node_gradient_matches_central_differences(direction, angle):
    v = rotvec(direction, angle)
    w = np.random.default_rng(0).normal(size=(3, 3))
    vt = ad.Tensor(v, requires_grad=True)
    (ad.exp_so3(vt) * w).sum().backward()
    fd = central_difference(lambda x: float(np.sum(so3.exp_so3(x) * w)), v,
                            1e-7)
    assert_close_relative(vt.grad, fd, 1e-4)


@PROPERTY
@at_angles(SMALL_EDGES)
@given(direction=directions, angle=st.floats(0.0, NODE_MAX_ANGLE - 1e-3))
def test_log_node_gradient_matches_central_differences(direction, angle):
    # perturb along the rotation manifold, R exp(h e_k): an off-manifold
    # step on the diagonal would push the trace past 3 near the identity
    r = so3.exp_so3(rotvec(direction, angle))
    w = np.random.default_rng(1).normal(size=3)
    rt = ad.Tensor(r, requires_grad=True)
    (ad.log_so3(rt) * w).sum().backward()
    got = np.array([np.sum(rt.grad * (r @ so3.hat(e))) for e in np.eye(3)])
    fd = central_difference(
        lambda x: float(np.dot(ad.log_so3(r @ so3.exp_so3(x)).data, w)),
        np.zeros(3), 1e-7)
    assert_close_relative(got, fd, 1e-4)
