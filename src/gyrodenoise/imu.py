"""Low-cost IMU measurement model and synthetic scene generator.

The measurement model applies an intrinsic calibration matrix (misalignment
and scale factors), additive biases and Gaussian noise to true angular rates
and specific accelerations. The scene generator synthesizes smooth motion,
integrates it to ground-truth attitudes, and corrupts it through the same
model so tests can compare recovered against injected parameters.

Index convention: IMU sample k (k = 0..M-1) covers the interval
[t_k, t_{k+1}]; ground truth carries M+1 states R_0..R_M, so that
R_{k+1} = R_k exp(gyro_k * dt).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import so3

GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass
class CalibParams:
    """Intrinsic calibration: u = C [w; a] + b + eta.

    C is block-diagonal (the g-sensitivity coupling block is a non-goal):
    C_omega acts on the gyro channels, C_acc on the accelerometer channels.
    """

    C_omega: np.ndarray = field(default_factory=lambda: np.eye(3))
    C_acc: np.ndarray = field(default_factory=lambda: np.eye(3))
    bias: np.ndarray = field(default_factory=lambda: np.zeros(6))
    noise_std: np.ndarray = field(default_factory=lambda: np.zeros(6))
    # first-order low-pass coefficient for colored noise; 0 = white
    noise_color: float = 0.0

    def __post_init__(self):
        self.C_omega = np.asarray(self.C_omega, dtype=float)
        self.C_acc = np.asarray(self.C_acc, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        self.noise_std = np.asarray(self.noise_std, dtype=float)
        for name, c in (("C_omega", self.C_omega), ("C_acc", self.C_acc)):
            if not np.max(np.abs(c - np.eye(3))) <= 0.2:
                raise ValueError(f"{name} outside the near-identity model regime")
            if abs(np.linalg.det(c)) < 1e-12:
                raise ValueError(f"{name} is singular")
        if not np.all(np.isfinite(self.bias)):
            raise ValueError(f"bias {self.bias.tolist()}: must be finite")
        if not np.all((self.noise_std >= 0) & np.isfinite(self.noise_std)):
            raise ValueError(f"noise_std {self.noise_std.tolist()}: must be "
                             f"finite and non-negative")
        if not 0.0 <= self.noise_color < 1.0:
            raise ValueError(f"noise_color {self.noise_color!r}: must be in "
                             f"[0, 1)")

    def to_dict(self):
        return {
            "C_omega": self.C_omega.tolist(),
            "C_acc": self.C_acc.tolist(),
            "bias": self.bias.tolist(),
            "noise_std": self.noise_std.tolist(),
            "noise_color": self.noise_color,
        }


@dataclass
class SyntheticScene:
    """Parametric motion profile: sums of sinusoids with seeded phases."""

    duration: float = 60.0
    rate: float = 200.0
    gravity: np.ndarray = field(default_factory=lambda: GRAVITY.copy())
    # angular velocity amplitude (rad/s) and velocity amplitude (m/s)
    omega_amplitude: float = 1.0
    velocity_amplitude: float = 0.5
    # base linear speed along x (m/s), sets the trajectory arclength
    base_speed: float = 1.0
    bias_walk_std: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self):
        self.gravity = np.asarray(self.gravity, dtype=float)
        self.bias_walk_std = np.asarray(self.bias_walk_std, dtype=float)
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        n = self.duration * self.rate
        if not 2 <= n < np.inf:
            raise ValueError(f"duration {self.duration!r} at rate "
                             f"{self.rate!r}: must be finite and give at "
                             f"least 2 samples")
        if abs(n - round(n)) > 1e-9:
            raise ValueError("duration * rate must be an integer sample count")
        if not np.all((self.bias_walk_std >= 0)
                      & np.isfinite(self.bias_walk_std)):
            raise ValueError(f"bias_walk_std {self.bias_walk_std.tolist()}: "
                             f"must be finite and non-negative")

    @property
    def n_samples(self):
        return int(round(self.duration * self.rate))


def corrupt(true_gyro, true_acc, calib: CalibParams, seed: int,
            bias_walk_std=None, dt: float | None = None):
    """Apply the measurement model u = C [w; a] + b + eta to true signals.

    Returns (gyro_meas, acc_meas) as (M, 3) arrays. If bias_walk_std is
    nonzero the 6-channel bias evolves as a seeded random walk (requires dt),
    otherwise it stays at calib.bias.
    """
    true_gyro = np.asarray(true_gyro, dtype=float)
    true_acc = np.asarray(true_acc, dtype=float)
    if true_gyro.shape != true_acc.shape:
        raise ValueError(
            f"gyro/acc length mismatch: {true_gyro.shape} vs {true_acc.shape}"
        )
    m = len(true_gyro)
    rng = np.random.default_rng(seed)

    u = np.concatenate(
        [true_gyro @ calib.C_omega.T, true_acc @ calib.C_acc.T], axis=1
    )

    bias = np.tile(calib.bias, (m, 1))
    if bias_walk_std is not None and np.any(np.asarray(bias_walk_std) > 0):
        if dt is None:
            raise ValueError("bias random walk requires dt")
        steps = rng.normal(size=(m, 6)) * np.asarray(bias_walk_std) * np.sqrt(dt)
        bias = bias + np.cumsum(steps, axis=0)

    noise = rng.normal(size=(m, 6)) * calib.noise_std
    if calib.noise_color > 0:
        # first-order low-pass, gain-compensated to keep the stationary std
        alpha = calib.noise_color
        colored = np.empty_like(noise)
        state = np.zeros(6)
        for i in range(m):
            state = alpha * state + (1.0 - alpha) * noise[i]
            colored[i] = state
        noise = colored * np.sqrt((1 + alpha) / (1 - alpha))

    u = u + bias + noise
    return u[:, :3], u[:, 3:]


def true_acc_from_trajectory(rotations, velocities, dt, gravity=GRAVITY):
    """Specific acceleration in the IMU frame, gravity removed:

        a_n = R_{n-1}^T ((v_n - v_{n-1}) / dt - g),  n = 1..L-1

    rotations and velocities must have equal length L; the result has L-1
    samples, one per interval.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rotations = np.asarray(rotations, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    if len(rotations) != len(velocities):
        raise ValueError("need one rotation per velocity sample")
    gravity = np.asarray(gravity, dtype=float)
    world = (velocities[1:] - velocities[:-1]) / dt - gravity
    return np.einsum("nji,nj->ni", rotations[:-1], world)


def _smooth_profile(rng, n, dt, amplitude):
    """Sum of sinusoids with seeded random phases/amplitudes, (n, 3)."""
    n_harmonics, max_freq_hz = 4, 1.0
    t = np.arange(n) * dt
    out = np.zeros((n, 3))
    for _ in range(n_harmonics):
        freq = rng.uniform(0.05, max_freq_hz, size=3)
        phase = rng.uniform(0, 2 * np.pi, size=3)
        amp = rng.uniform(0.2, 1.0, size=3) * amplitude / n_harmonics
        out += amp * np.sin(2 * np.pi * freq * t[:, None] + phase)
    return out


def generate_scene(spec: SyntheticScene, calib: CalibParams, seed: int):
    """Synthesize a scene and its corrupted IMU readout.

    Returns a dict with keys:
      imu_t_ns       (M,) IMU timestamps
      gt_t_ns        (M+1,) ground-truth timestamps
      rot            (M+1, 3, 3) ground-truth attitudes R_0..R_M
      pos, vel       (M+1, 3) ground-truth positions/velocities
      true_gyro      (M, 3) rad/s, increment k maps R_k to R_{k+1}
      true_acc       (M, 3) m/s^2
      gyro, acc      (M, 3) corrupted measurements
      dt             sample period in seconds
    """
    rng = np.random.default_rng(seed)
    dt = 1.0 / spec.rate
    m = spec.n_samples

    omega = _smooth_profile(rng, m, dt, spec.omega_amplitude)
    vel = _smooth_profile(rng, m + 1, dt, spec.velocity_amplitude)
    vel[:, 0] += spec.base_speed

    rots = so3.integrate_increments(np.eye(3), omega, dt)  # (m+1, 3, 3)
    pos = np.concatenate([np.zeros((1, 3)), np.cumsum(vel[1:], axis=0) * dt])

    acc = true_acc_from_trajectory(rots, vel, dt, spec.gravity)

    gyro_meas, acc_meas = corrupt(
        omega, acc, calib, seed=int(rng.integers(2**32)), dt=dt,
        bias_walk_std=spec.bias_walk_std,
    )

    return {
        "imu_t_ns": (np.arange(m) * dt * 1e9).round().astype(np.int64),
        "gt_t_ns": (np.arange(m + 1) * dt * 1e9).round().astype(np.int64),
        "rot": rots,
        "pos": pos,
        "vel": vel,
        "true_gyro": omega,
        "true_acc": acc,
        "gyro": gyro_meas,
        "acc": acc_meas,
        "dt": dt,
    }
