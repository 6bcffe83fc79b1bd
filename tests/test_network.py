import base64
import contextlib
import json

import numpy as np
import pytest

from gyrodenoise import autodiff as ad
from gyrodenoise import cli, data, imu, network, so3


def test_param_count_matches_expected_total():
    params = network.ModelParams()
    assert network.count_params(params) == 77_052
    parts = network.count_breakdown(params)
    assert parts == {"conv": 76_563, "batchnorm": 480, "calibration": 9}
    assert sum(parts.values()) == 77_052


def test_param_count_scales_with_channels():
    cfg = network.NetConfig(channels=(6, 32, 64, 128, 256, 3))
    params = network.ModelParams(cfg)
    conv = sum(
        cfg.channels[i + 1] * cfg.channels[i] * cfg.kernel_sizes[i]
        + cfg.channels[i + 1]
        for i in range(5)
    )
    bn = 2 * sum(cfg.channels[1:5])
    assert network.count_params(params) == conv + bn + 9


def test_receptive_field_default():
    cfg = network.NetConfig()
    # causal stack consumes sum((K-1) d) past samples
    assert cfg.receptive_field == 6 * (1 + 4 + 16 + 64)


def test_untrained_forward_is_identity_on_gyro():
    rng = np.random.default_rng(0)
    params = network.ModelParams(seed=1)
    rf = params.config.receptive_field
    x = rng.normal(size=(2, 6, rf + 40))
    out = network.forward(params, x, training=False)
    np.testing.assert_array_equal(out.data, x[:, :3, rf:])


def test_zero_input_mode_is_constant_plus_linear():
    rng = np.random.default_rng(2)
    params = network.ModelParams(seed=3)
    # make the collapse nontrivial: random calibration and final layer bias
    params.c_omega.data = np.eye(3) + 0.05 * rng.normal(size=(3, 3))
    params.conv_b[-1].data = rng.normal(size=3)
    rf = params.config.receptive_field
    x = rng.normal(size=(1, 6, rf + 30))
    out = network.forward(params, x, training=False, zero_input=True).data[0]
    gyro = x[0, :3, rf:]
    correction = out - params.c_omega.data @ gyro
    # the correction is constant in time
    assert np.max(np.abs(correction - correction[:, :1])) < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="calibrate still runs the CNN on a zero input; the 12-parameter "
           "static path waits for test 7 to pass on it (CHANGES.md FOUND)")
def test_static_path_is_c_omega_plus_final_bias(monkeypatch):
    rng = np.random.default_rng(7)
    params = network.ModelParams(seed=3)
    params.c_omega.data = np.eye(3) + 0.05 * rng.normal(size=(3, 3))
    params.conv_b[-1].data = rng.normal(size=3)
    # running stats far from the zero-input activations' own statistics
    for s in params.bn_state:
        s.mean = rng.normal(size=s.mean.shape)
        s.var = rng.uniform(1e-4, 1e-2, size=s.var.shape)

    def no_cnn(*args, **kwargs):
        raise AssertionError("the static path must not run the CNN")

    monkeypatch.setattr(ad, "conv1d_dilated", no_cnn)
    monkeypatch.setattr(ad, "batchnorm1d", no_cnn)
    rf = params.config.receptive_field
    x = rng.normal(size=(2, 6, rf + 30))
    for training in (True, False):
        out = network.forward(params, x, training=training,
                              rng=np.random.default_rng(0),
                              zero_input=True).data
        linear = ad.channel_affine(params.c_omega,
                                   ad.Tensor(x[:, :3, rf:])).data
        np.testing.assert_array_equal(
            out, linear + params.conv_b[-1].data[None, :, None])


def test_receptive_field_probe():
    rng = np.random.default_rng(4)
    params = network.ModelParams(seed=5)
    # nonzero final layer so outputs depend on the inputs
    params.conv_w[-1].data = rng.normal(size=params.conv_w[-1].data.shape)
    params.conv_b[-1].data = rng.normal(size=3)
    rf = params.config.receptive_field
    t = rf + 10
    x = rng.normal(size=(1, 6, t))
    base = network.forward(params, x, training=False).data
    n = t - 1  # last output consumes inputs n-rf..n

    probe = x.copy()
    probe[0, :, n - rf - 5] += 1.0  # older than the window
    out = network.forward(params, probe, training=False).data
    np.testing.assert_array_equal(out[0, :, -1], base[0, :, -1])

    probe = x.copy()
    probe[0, 0, n - rf] += 1.0  # oldest sample inside the window
    out = network.forward(params, probe, training=False).data
    assert not np.array_equal(out[0, :, -1], base[0, :, -1])


def test_forward_rejects_short_window():
    params = network.ModelParams()
    with pytest.raises(ValueError, match="too short"):
        network.forward(params, np.zeros((1, 6, 100)))


def test_integrate_corrected_identity_params_matches_ground_truth():
    spec = imu.SyntheticScene(duration=10.0, rate=200.0)
    scene = imu.generate_scene(spec, imu.CalibParams(), seed=6)
    seq = data.ImuSequence(scene["imu_t_ns"], scene["gyro"], scene["acc"])
    params = network.ModelParams(seed=7)
    est = network.integrate_corrected(params, seq, scene["rot"][0])
    err = np.linalg.norm(est - scene["rot"], axis=(1, 2))
    assert np.max(err) < 1e-9


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    params = network.ModelParams(seed=9)
    params.c_omega.data = np.eye(3) + 0.01 * rng.normal(size=(3, 3))
    params.conv_b[-1].data = rng.normal(size=3)
    params.bn_state[0].mean = rng.normal(size=16)
    params.set_input_stats(rng.normal(size=6), np.abs(rng.normal(size=6)) + 1)
    path = tmp_path / "ckpt.json"
    network.save_checkpoint(path, params, extra={"epoch": 12})
    loaded, extra = network.load_checkpoint(path)
    assert extra["epoch"] == 12
    for (name, a), (_, b) in zip(params.trainable(), loaded.trainable()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
    np.testing.assert_array_equal(loaded.bn_state[0].mean, params.bn_state[0].mean)
    np.testing.assert_array_equal(loaded.input_mean, params.input_mean)


def _all_arrays(params):
    out = {name: t.data for name, t in params.trainable()}
    for i, s in enumerate(params.bn_state):
        out[f"bn{i}.mean"], out[f"bn{i}.var"] = s.mean, s.var
    return out


def test_checkpoint_keeps_every_bit(tmp_path):
    params = _trained_like_params()
    params.conv_b[0].data[:4] = [-0.0, 5e-324, -1e308, np.nan]
    params.bn_state[1].var[0] = -0.0
    path = tmp_path / "ckpt.json"
    network.save_checkpoint(path, params)
    assert json.loads(path.read_text())["version"] == 2
    loaded, _ = network.load_checkpoint(path)
    want, got = _all_arrays(params), _all_arrays(loaded)
    assert list(got) == list(want)
    for name in want:
        np.testing.assert_array_equal(got[name].view(np.int64),
                                      want[name].view(np.int64), name)
        assert got[name].flags.writeable, name
        got[name] += 1.0  # a writable copy, not a view of the payload


def _write_old_checkpoint(path, params, extra, version):
    """A checkpoint as versions 1 and 2 wrote it before the batchnorm
    settings became constants: "config" holds bn_momentum and bn_eps, each
    "bn_running" entry an "initialized" flag, and every array is a JSON
    float list (version 1) or the base64 of its float64 values (version 2)."""
    encode = {1: lambda a: a.ravel().tolist(),
              2: lambda a: base64.b64encode(a.astype("<f8")).decode()}[version]
    payload = {
        "version": version,
        "config": {"kernel_sizes": list(params.config.kernel_sizes),
                   "dilations": list(params.config.dilations),
                   "channels": list(params.config.channels),
                   "dropout": params.config.dropout,
                   "bn_momentum": 0.1, "bn_eps": 1e-5},
        "input_mean": params.input_mean.tolist(),
        "input_std": params.input_std.tolist(),
        "tensors": {
            name: {"shape": list(t.data.shape), "data": encode(t.data)}
            for name, t in params.trainable()
        },
        "bn_running": [
            {"mean": encode(s.mean), "var": encode(s.var), "initialized": True}
            for s in params.bn_state
        ],
        "extra": extra,
    }
    with open(path, "w") as f:
        json.dump(payload, f)


@pytest.mark.parametrize("version, message", [
    (1, "unsupported checkpoint version 1"),
    (2, "unknown checkpoint config key 'bn_eps', 'bn_momentum'"),
], ids=["version-1", "batchnorm-settings"])
def test_legacy_checkpoints_are_refused(tmp_path, capsys, version, message):
    # version 1 float lists and the batchnorm settings that batchnorm's
    # constants replaced are layouts no command writes
    params = _trained_like_params()
    path = tmp_path / f"v{version}.json"
    _write_old_checkpoint(path, params, {"epoch": 3}, version)
    with pytest.raises(ValueError, match=message):
        network.load_checkpoint(path)

    n = 2000
    seq = data.ImuSequence(np.arange(n) * 5_000_000, np.zeros((n, 3)),
                           np.zeros((n, 3)))
    data.write_imu_csv(tmp_path / "imu.csv", seq.t, seq.gyro, seq.acc)
    data.write_gt_csv(tmp_path / "gt.csv", seq.t,
                      np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 3)))
    capsys.readouterr()
    assert cli.main(["evaluate", "--imu", str(tmp_path / "imu.csv"),
                     "--gt", str(tmp_path / "gt.csv"), "--checkpoint",
                     str(path), "--methods", "raw",
                     "--out", str(tmp_path / "rep")]) == cli.EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda payload: [payload], "is not a JSON object"),
    (lambda payload: {**payload, "tensors": []}, "is malformed"),
    (lambda payload: {**payload, "config": 6}, "is malformed"),
    (lambda payload: {**payload, "extra": []}, "extra is not a JSON object"),
], ids=["list", "tensors-list", "config-number", "extra-list"])
def test_checkpoint_of_another_structure_is_refused(tmp_path, edit, message):
    path = tmp_path / "ckpt.json"
    network.save_checkpoint(path, network.ModelParams())
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message):
        network.load_checkpoint(path)


@pytest.mark.parametrize("dropout", [-0.1, 1.0, 1.5, float("nan"),
                                     float("inf")])
def test_dropout_outside_unit_interval_is_refused(tmp_path, dropout):
    with pytest.raises(ValueError, match=r"dropout .*: must be in \[0, 1\)"):
        network.NetConfig(dropout=dropout)
    path = tmp_path / "ckpt.json"
    network.save_checkpoint(path, network.ModelParams())
    payload = json.loads(path.read_text())
    payload["config"]["dropout"] = dropout  # NaN and Infinity in the JSON
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=r"dropout .*: must be in \[0, 1\)"):
        network.load_checkpoint(path)


def test_checkpoint_payload_length_and_version_are_checked(tmp_path):
    path = tmp_path / "ckpt.json"
    network.save_checkpoint(path, network.ModelParams())
    payload = json.loads(path.read_text())
    bad = tmp_path / "bad.json"
    short = json.loads(json.dumps(payload))      # conv1.b holds 32 values
    short["tensors"]["conv1.b"]["data"] = base64.b64encode(
        np.zeros(31)).decode()
    long = json.loads(json.dumps(payload))       # bn0's mean holds 16
    long["bn_running"][0]["mean"] = base64.b64encode(np.zeros(17)).decode()
    for what, broken in (("conv1.b", short), ("bn0 mean", long)):
        bad.write_text(json.dumps(broken))
        with pytest.raises(ValueError, match=f"checkpoint {what}: .* bytes"):
            network.load_checkpoint(bad)
    payload["version"] = 3
    bad.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unsupported checkpoint version 3"):
        network.load_checkpoint(bad)


def _trained_like_params(seed=8):
    """Default model with a non-zero final layer and settled batchnorm."""
    rng = np.random.default_rng(seed)
    params = network.ModelParams(seed=seed)
    params.conv_w[-1].data = 0.01 * rng.normal(size=params.conv_w[-1].data.shape)
    params.conv_b[-1].data = 0.01 * rng.normal(size=3)
    for s in params.bn_state:
        s.mean = 0.1 * rng.normal(size=s.mean.shape)
        s.var = rng.uniform(0.5, 2.0, size=s.var.shape)
    return params


def _mean_padded(params, seq):
    """The sequence's (1, 6, rf + n) network input behind rf columns of
    params.input_mean, which standardise to +0.0: a valid forward over it
    is a forward over the sequence with its standardised input left padded
    with zeros."""
    rf = params.config.receptive_field
    pad = np.repeat(params.input_mean[:, None], rf, axis=1)
    imu_rows = np.concatenate([seq.gyro.T, seq.acc.T])
    return np.concatenate([pad, imu_rows], axis=1)[None]


def test_mean_padding_standardises_to_positive_zero(monkeypatch):
    # the first conv layer sees exactly +0.0 in the padded columns, the
    # zeros a left zero padding of the standardised input would hold
    seen = []
    conv = ad.conv1d_dilated

    def first_layer_input(x, w, b, dilation=1):
        if x.data.shape[1] == 6:
            seen.append(x.data)
        return conv(x, w, b, dilation)

    monkeypatch.setattr(ad, "conv1d_dilated", first_layer_input)
    seq, _ = _scene_sequence(1.0, seed=12)
    rng = np.random.default_rng(12)
    params = _trained_like_params()
    rf = params.config.receptive_field
    for scale in (1e-6, 1.0, 1e6):
        params.set_input_stats(scale * rng.normal(size=6),
                               scale * rng.uniform(0.1, 10.0, size=6))
        params.input_mean[0] = -0.0
        network.forward(params, _mean_padded(params, seq))
        padded = seen.pop()[:, :, :rf]
        assert (padded == 0.0).all() and not np.signbit(padded).any(), scale


def _scene_sequence(duration, seed):
    spec = imu.SyntheticScene(duration=duration, rate=200.0)
    scene = imu.generate_scene(spec, imu.CalibParams(), seed=seed)
    seq = data.ImuSequence(scene["imu_t_ns"], scene["gyro"], scene["acc"])
    return seq, scene["rot"][0]


def test_integrate_corrected_matches_recorded_forward():
    # integrate_corrected runs without a graph; the values must be those of
    # the graph-recording forward
    seq, r0 = _scene_sequence(5.0, seed=9)
    params = _trained_like_params()
    x = _mean_padded(params, seq)
    for zero_input in (False, True):
        out = network.forward(params, x, training=False,
                              zero_input=zero_input)
        assert out._backward_fn is not None
        ref = so3.integrate_increments(r0, out.data[0].T, seq.dt)
        est = network.integrate_corrected(params, seq, r0,
                                          zero_input=zero_input)
        np.testing.assert_array_equal(est, ref)


def test_integrate_corrected_peak_memory_12k_samples(traced_peak):
    # recording the autodiff graph for this forward peaks at ~140 MB traced;
    # without the graph the peak is ~63 MB
    seq, r0 = _scene_sequence(60.0, seed=10)
    assert len(seq) == 12_000
    params = _trained_like_params()
    peak = traced_peak(lambda: network.integrate_corrected(params, seq, r0))
    assert peak < 90e6, f"traced peak {peak / 1e6:.1f} MB"


def test_integrate_corrected_peak_memory_in_place_kernels(traced_peak):
    # the same forward as above: conv, batchnorm and GELU without a graph
    # allocate their result, the buffer their backward would keep and one
    # conv tap buffer, and fill them in place; plain-expression kernels
    # build a fresh (1, C, T) temporary per step
    seq, r0 = _scene_sequence(60.0, seed=10)
    params = _trained_like_params()
    peak = traced_peak(lambda: network.integrate_corrected(params, seq, r0))
    assert peak < 45e6, f"traced peak {peak / 1e6:.1f} MB"


def test_integrate_corrected_peak_memory_in_blocks(traced_peak):
    # one forward over all 12,000 samples holds (1, 128, 12,000) activations
    # and peaks near 38 MB traced; blocks of EVAL_BLOCK outputs hold one
    # block's activations
    seq, r0 = _scene_sequence(60.0, seed=10)
    params = _trained_like_params()
    peak = traced_peak(lambda: network.integrate_corrected(params, seq, r0))
    assert peak < 10e6, f"traced peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("one_thread", [True, False])
def test_integrate_corrected_blocks_match_one_padded_forward(one_thread):
    # lengths on both sides of the receptive field (510) and of the block
    # edges (EVAL_BLOCK = 1024)
    assert network.EVAL_BLOCK == 1024
    full, r0 = _scene_sequence(60.0, seed=11)
    params = _trained_like_params()
    blas = ad.one_blas_thread() if one_thread else contextlib.nullcontext()
    with blas:
        for n in (2, 510, 511, 1023, 1024, 1025, 2047, 2048, 2049, 4097,
                  12_000):
            seq = full.window(0, n)
            x = _mean_padded(params, seq)
            with ad.no_grad():
                w_hat = network.forward(params, x).data[0].T
            ref = so3.integrate_increments(r0, w_hat, seq.dt)
            est = network.integrate_corrected(params, seq, r0)
            np.testing.assert_array_equal(est, ref, err_msg=f"{n} samples")
