import dataclasses
import struct
import zlib

import numpy as np
import pytest

from ganmc import gan
from ganmc.gan import (
    SAMPLE_BLOCK_ROWS,
    TRACK_FLOOR_FRACTION,
    Adam,
    CheckpointError,
    GanConfig,
    GanError,
    GanModel,
    MlpParams,
    WindowTransform,
    backward,
    detect_collapse,
    forward,
    init_mlp,
    load_checkpoint,
    sample,
    save_checkpoint,
    train,
)
from ganmc.windowing import partition

from conftest import gbm_prices


@pytest.fixture
def tiny_networks(monkeypatch):
    """Shrink GanConfig's network constants so a training run takes milliseconds."""
    for name, value in (("noise_dim", 4), ("gen_hidden", (16,)), ("disc_hidden", (16,))):
        monkeypatch.setattr(GanConfig, name, value)
    return monkeypatch


def small_training_run(epochs=3):
    # needs the tiny_networks fixture
    windows = gbm_prices(120, seed=6)[np.arange(100)[:, None] + np.arange(8)]
    return train(windows, GanConfig(T=8, epochs=epochs, batch_size=32, seed=2))


def small_trained_model(epochs=3):
    return small_training_run(epochs)[0]


def single_layer(w, b, act):
    return MlpParams(weights=[np.asarray(w, float)], biases=[np.asarray(b, float)], activations=[act])


class TestForward:
    def test_identity_layer_passes_through(self):
        net = single_layer(np.eye(3), np.zeros(3), "identity")
        x = np.array([1.0, -2.0, 3.5])
        np.testing.assert_allclose(forward(net, x), x)

    def test_zero_sigmoid_gives_half(self):
        net = single_layer(np.zeros((4, 2)), np.zeros(4), "sigmoid")
        np.testing.assert_allclose(forward(net, [3.0, -1.0]), 0.5)

    def test_two_layer_hand_computed(self):
        w1 = np.array([[1.0, 2.0], [0.0, 1.0]])
        b1 = np.array([0.5, -0.5])
        w2 = np.array([[1.0, -1.0]])
        b2 = np.array([0.25])
        net = MlpParams(weights=[w1, w2], biases=[b1, b2], activations=["relu", "identity"])
        x = np.array([1.0, 1.0])
        h = np.maximum(w1 @ x + b1, 0.0)
        expected = w2 @ h + b2
        np.testing.assert_allclose(forward(net, x), expected)

    def test_dimension_mismatch(self):
        net = single_layer(np.eye(3), np.zeros(3), "identity")
        with pytest.raises(GanError, match="input dim"):
            forward(net, [1.0, 2.0])

    def test_discriminator_output_in_unit_interval(self, rng):
        net = init_mlp([8, 16, 1], ["relu", "sigmoid"], rng)
        out = forward(net, rng.standard_normal((100, 8)) * 10)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_float32_net_computes_in_float32(self, rng):
        net = init_mlp([32, 128, 256, 64], ["relu", "relu", "identity"], rng)
        x = rng.standard_normal((100, 32))
        out = forward(net.astype(np.float32), x)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, forward(net, x), rtol=1e-5, atol=1e-5)


class TestBackward:
    def test_identity_layer_squared_loss_gradient(self, rng):
        w = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        net = single_layer(w, b, "identity")
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        # L = |Wx+b-y|^2 -> upstream dL/dout = 2(Wx+b-y)
        residual = w @ x + b - y
        g = backward(net, x, 2.0 * residual)
        np.testing.assert_allclose(g.weights[0], 2.0 * np.outer(residual, x))
        np.testing.assert_allclose(g.biases[0], 2.0 * residual)

    def test_zero_upstream_zero_gradients(self, rng):
        net = init_mlp([4, 8, 2], ["tanh", "sigmoid"], rng)
        g = backward(net, rng.standard_normal(4), np.zeros(2))
        assert all(np.all(gw == 0) for gw in g.weights)
        assert all(np.all(gb == 0) for gb in g.biases)

    @pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh", "identity"])
    def test_matches_finite_differences(self, act, rng):
        net = init_mlp([4, 6, 5, 3], [act, act, "sigmoid"], rng)
        x = rng.standard_normal(4)
        u = rng.standard_normal(3)
        g = backward(net, x, u)
        h = 1e-6
        for l in range(3):
            for arr, grad in ((net.weights[l], g.weights[l]), (net.biases[l], g.biases[l])):
                flat = arr.reshape(-1)
                for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    fp = float(forward(net, x) @ u)
                    flat[idx] = orig - h
                    fm = float(forward(net, x) @ u)
                    flat[idx] = orig
                    fd = (fp - fm) / (2 * h)
                    expected = grad.reshape(-1)[idx]
                    assert fd == pytest.approx(expected, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("act", ["relu", "sigmoid", "tanh", "identity"])
    def test_input_gradient_matches_finite_differences(self, act, rng):
        # the gradient the generator trains through: without grad_w/grad_b,
        # _backward_cached returns d sum(u * output) / dx
        net = init_mlp([4, 6, 5, 3], [act, act, "sigmoid"], rng)
        x = rng.standard_normal((2, 4))
        u = rng.standard_normal((2, 3))
        grad = gan._backward_cached(net, gan._forward_cached(net, x)[1], u)
        assert grad.shape == x.shape
        h = 1e-6
        for i in range(2):
            for j in range(4):
                step = np.zeros_like(x)
                step[i, j] = h
                fp, fm = (float(np.sum(forward(net, x + s) * u)) for s in (step, -step))
                fd = (fp - fm) / (2 * h)
                assert fd == pytest.approx(grad[i, j], rel=1e-5, abs=1e-9)

    def test_shape_mismatch(self, rng):
        net = init_mlp([4, 2], ["sigmoid"], rng)
        with pytest.raises(GanError):
            backward(net, np.ones(4), np.ones(3))


class TestFlatParams:
    def test_layers_are_views_of_one_vector(self, rng):
        net = init_mlp([4, 6, 3], ["relu", "identity"], rng)
        assert net.params.size == 4 * 6 + 6 + 6 * 3 + 3
        for arr in net.weights + net.biases:
            assert np.shares_memory(arr, net.params)
        net.params[:] = 0.0
        assert all(np.all(w == 0.0) for w in net.weights)

    def test_copy_is_independent(self, rng):
        net = init_mlp([4, 6, 3], ["relu", "identity"], rng)
        before = net.params.copy()
        twin = net.copy()
        twin.params += 1.0
        np.testing.assert_array_equal(net.params, before)


def reference_adam(weights, biases, grads, lr, beta1, beta2, eps):
    """Per-array Adam: the same elementwise sequence, one layer array at a time."""
    params = [w.copy() for w in weights] + [b.copy() for b in biases]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, (gw, gb) in enumerate(grads, start=1):
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for p, g, m, v in zip(params, list(gw) + list(gb), ms, vs):
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return params


GENERATOR = ([32, 128, 256, 64], ["relu", "relu", "identity"])
DISCRIMINATOR = ([64, 256, 64, 1], ["relu", "relu", "sigmoid"])


class TestAdam:
    # float32 is the training precision: the reference loop runs in it too,
    # and a silent up-cast of the moments or parameters fails the dtype check
    @pytest.mark.parametrize(
        "dims, acts, dtype",
        [(*GENERATOR, np.float64), (*DISCRIMINATOR, np.float64),
         (*GENERATOR, np.float32), (*DISCRIMINATOR, np.float32)],
        ids=["dims0-acts0", "dims1-acts1", "dims0-acts0-float32", "dims1-acts1-float32"],
    )
    def test_flat_step_bit_equal_to_per_array_loop(self, dims, acts, dtype, rng):
        net = init_mlp(dims, acts, rng).astype(dtype)
        grads = []
        for _ in range(5):
            grads.append((
                [rng.standard_normal(w.shape).astype(dtype) for w in net.weights],
                [rng.standard_normal(b.shape).astype(dtype) for b in net.biases],
            ))
        expected = reference_adam(net.weights, net.biases, grads, 2e-4, 0.5, 0.999, 1e-8)
        opt = Adam(net, 2e-4, 0.5, 0.999, 1e-8)
        for gw, gb in grads:
            opt.step(net, gw, gb)
        for got, want in zip(net.weights + net.biases, expected):
            assert want.dtype == dtype
            np.testing.assert_array_equal(got, want)
        assert net.params.dtype == opt.m.dtype == opt.v.dtype == dtype


class TestDetectCollapse:
    def test_identical_probe_windows_collapse(self):
        probe = np.tile(np.array([1.0, 2.0, 3.0]), (16, 1))
        reason = detect_collapse([1.0] * 30, [1.0] * 30, probe)
        assert reason is not None and "spread" in reason

    def test_healthy_losses_no_collapse(self, rng):
        d_losses = 1.2 + 0.1 * rng.standard_normal(50)
        g_losses = 0.8 + 0.1 * rng.standard_normal(50)
        probe = rng.uniform(0.0, 1.0, (16, 8))
        assert detect_collapse(d_losses, g_losses, probe) is None

    def test_nan_loss_collapses(self, rng):
        probe = rng.uniform(0.0, 1.0, (16, 8))
        reason = detect_collapse([1.0, float("nan")], [1.0, 1.0], probe)
        assert reason is not None and "non-finite" in reason

    def test_low_discriminator_loss_run_collapses(self, rng):
        probe = rng.uniform(0.0, 1.0, (16, 8))
        losses = [1.0] * 10 + [0.01] * 20
        reason = detect_collapse(losses, [1.0] * 30, probe)
        assert reason is not None and "discriminator loss" in reason


# every scalar GanConfig field but the seed
POSITIVE_FIELDS = ["T", "epochs", "batch_size", "scale"]

# GanConfig's class constants, with their values
CONSTANTS = {
    "noise_dim": 32, "gen_hidden": (128, 256), "disc_hidden": (256, 64),
    "lr_generator": 2e-4, "lr_discriminator": 2e-4, "beta1": 0.5, "beta2": 0.999,
    "adam_eps": 1e-8, "delta_loss": 0.05, "eps_std": 1e-4, "k_epochs": 20,
}


class TestGanConfig:
    @pytest.mark.parametrize("value", [0, -1], ids=["zero", "negative"])
    @pytest.mark.parametrize("name", POSITIVE_FIELDS)
    def test_scalar_must_be_positive(self, name, value):
        with pytest.raises(GanError, match=f"^{name} must be positive, got {value}$"):
            GanConfig(**{"T": 8, name: value})

    def test_seed_zero_accepted(self):
        assert GanConfig(T=8, seed=0).seed == 0

    def test_fields_are_what_a_caller_sets(self):
        assert [f.name for f in dataclasses.fields(GanConfig)] == [
            "T", "epochs", "batch_size", "seed", "scale"]

    @pytest.mark.parametrize("name", CONSTANTS)
    def test_constant_is_not_an_argument(self, name):
        with pytest.raises(TypeError, match=name):
            GanConfig(T=8, **{name: CONSTANTS[name]})
        assert getattr(GanConfig(T=8), name) == CONSTANTS[name]


class TestTrain:
    def test_degenerate_training_set_collapses(self, tiny_networks):
        # all-equal windows: the generator shrinks toward a point mass;
        # the spread threshold is raised so a short run catches it
        for name, value in (("lr_generator", 1e-3), ("lr_discriminator", 1e-3), ("eps_std", 0.03)):
            tiny_networks.setattr(GanConfig, name, value)
        windows = np.tile(np.linspace(90.0, 110.0, 8), (64, 1))
        cfg = GanConfig(T=8, epochs=4000, batch_size=32, scale=110.0, seed=3)
        _, report = train(windows, cfg)
        assert report.collapsed
        assert "spread" in report.collapse_reason

    def test_seed_reproducibility(self):
        prices = gbm_prices(200, seed=7)
        ws = partition(prices, 1, 16)
        cfg = GanConfig(T=16, epochs=20, batch_size=32, scale=float(prices.max()), seed=11)
        _, rep1 = train(ws.windows, cfg)
        _, rep2 = train(ws.windows, cfg)
        assert rep1.discriminator_losses == rep2.discriminator_losses
        assert rep1.generator_losses == rep2.generator_losses

    def test_gbm_windows_train_without_collapse(self):
        prices = gbm_prices(550, mu=0.0, sigma=0.2, seed=5)
        ws = partition(prices, 1, 32)
        assert len(ws) >= 500
        cfg = GanConfig(T=32, epochs=300, batch_size=64, scale=float(prices.max()), seed=1)
        _, report = train(ws.windows, cfg)
        assert not report.collapsed
        assert all(np.isfinite(report.discriminator_losses))

    @pytest.mark.usefixtures("tiny_networks")
    def test_returns_identity_head_and_transform(self):
        model = small_trained_model(epochs=1)
        assert model.generator.activations == ["relu", "identity"]
        assert model.transform is not None
        assert model.transform.mean.shape == model.transform.std.shape == (8,)
        assert len(model.transform.level_knots) >= 1

    @pytest.mark.usefixtures("tiny_networks")
    def test_returns_float64_nets_of_float32_values(self):
        # trained in float32 and cast once at the end; checkpoint format 2
        # stores them exactly (TestCheckpoint::test_round_trip_trained_model)
        model = small_trained_model()
        for net in (model.generator, model.discriminator):
            assert net.params.dtype == np.float64
            np.testing.assert_array_equal(net.params.astype(np.float32).astype(float), net.params)

    @pytest.mark.parametrize("level", [0.0, 1.0])
    @pytest.mark.usefixtures("tiny_networks")
    def test_saturated_discriminator_keeps_losses_finite(self, level, monkeypatch):
        # a float32 sigmoid rounds to exactly 0 or 1, where 1 - 1e-12 is 1.0
        # in float32: a clipped log taken in float32 would be -inf
        derivative = gan._ACTIVATIONS["sigmoid"][1]
        monkeypatch.setitem(gan._ACTIVATIONS, "sigmoid",
                            (lambda z: np.full_like(z, level), derivative))
        model, report = small_training_run()
        assert report.collapse_reason is None and report.epochs_run == 3
        assert np.isfinite(report.discriminator_losses + report.generator_losses).all()
        for net in (model.generator, model.discriminator):
            assert np.isfinite(net.params).all()

    def test_batch_size_validated(self):
        windows = np.ones((4, 8)) * 100
        cfg = GanConfig(T=8, epochs=1, batch_size=16, scale=100.0)
        with pytest.raises(GanError, match="batch_size"):
            train(windows, cfg)


class TestSample:
    def _trained_stub(self, rng):
        gen = init_mlp([4, 8, 6], ["relu", "sigmoid"], rng)
        disc = init_mlp([6, 8, 1], ["relu", "sigmoid"], rng)
        return GanModel(generator=gen, discriminator=disc, scale=100.0)

    def test_zero_count_rejected(self, rng):
        with pytest.raises(GanError):
            sample(self._trained_stub(rng), 0, seed=0)

    def test_same_seed_identical(self, rng):
        model = self._trained_stub(rng)
        np.testing.assert_array_equal(sample(model, 10, 42), sample(model, 10, 42))

    def test_identity_generator_reproduces_noise(self):
        gen = MlpParams(
            weights=[np.eye(5)], biases=[np.zeros(5)], activations=["identity"]
        )
        disc = MlpParams(weights=[np.ones((1, 5))], biases=[np.zeros(1)], activations=["sigmoid"])
        model = GanModel(generator=gen, discriminator=disc, scale=1.0)
        tracks = sample(model, 7, seed=9)
        expected = np.random.default_rng(9).standard_normal((7, 5))
        np.testing.assert_allclose(tracks, np.maximum(expected, 1e-6))

    def test_tracks_floored_positive(self, rng):
        model = self._trained_stub(rng)
        tracks = sample(model, 50, seed=1)
        assert tracks.shape == (50, 6)
        assert np.all(tracks >= 1e-6 * model.scale)

    def test_no_transform_blocks_bit_equal_to_one_pass(self, rng):
        # a hand-built model without a transform; its relu head emits zeros,
        # which the floor lifts
        gen = init_mlp([4, 8, 6], ["relu", "relu"], rng)
        model = GanModel(generator=gen, discriminator=init_mlp([6, 1], ["sigmoid"], rng), scale=100.0)
        n2 = SAMPLE_BLOCK_ROWS + 1
        z = np.random.default_rng(5).standard_normal((n2, 4))
        one_pass = forward(gen.astype(np.float32), z).astype(float) * 100.0
        expected = np.maximum(one_pass, TRACK_FLOOR_FRACTION * 100.0)
        assert np.any(expected == TRACK_FLOOR_FRACTION * 100.0)
        np.testing.assert_array_equal(sample(model, n2, seed=5), expected)

    def _served_model(self, rng):
        # the served shapes: noise 32, hidden (128, 256), T=64; a trained
        # generator holds float32 values
        windows = gbm_prices(300, seed=8)[np.arange(200)[:, None] + np.arange(64)]
        gen = init_mlp([32, 128, 256, 64], ["relu", "relu", "identity"], rng)
        return GanModel(generator=gen.astype(np.float32).astype(float),
                        discriminator=init_mlp([64, 1], ["sigmoid"], rng),
                        scale=2.0, transform=WindowTransform.fit(windows))

    @staticmethod
    def _tracks(model, coords):
        return np.maximum(model.transform.inverse(coords) * 2.0, TRACK_FLOOR_FRACTION * 2.0)

    @pytest.mark.parametrize("n2", [1, SAMPLE_BLOCK_ROWS - 1, SAMPLE_BLOCK_ROWS,
                                    SAMPLE_BLOCK_ROWS + 1, 2 * SAMPLE_BLOCK_ROWS + 3])
    def test_blocks_bit_equal_to_one_pass(self, n2, rng):
        model = self._served_model(rng)
        z = np.random.default_rng(5).standard_normal((n2, 32))
        one_pass = forward(model.generator.astype(np.float32), z).astype(float)
        np.testing.assert_array_equal(sample(model, n2, seed=5), self._tracks(model, one_pass))

    def test_float32_tracks_match_float64_reference(self, rng):
        model = self._served_model(rng)
        z = np.random.default_rng(5).standard_normal((2048, 32))
        expected = self._tracks(model, forward(model.generator, z))
        np.testing.assert_allclose(sample(model, 2048, seed=5), expected, rtol=1e-6, atol=0)


class TestWindowTransform:
    def test_round_trip(self):
        windows = gbm_prices(300, seed=2)[np.arange(40)[:, None] + np.arange(16)]
        transform = WindowTransform.fit(windows)
        coords = transform.transform(windows)
        np.testing.assert_allclose(coords.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(coords.std(axis=0)[1:], 1.0, rtol=1e-12)
        np.testing.assert_allclose(transform.inverse(coords), windows, rtol=1e-12, atol=0)

    def test_constant_coordinates_map_to_zero(self):
        # identical windows: every coordinate has zero std
        windows = np.tile(np.linspace(90.0, 110.0, 8), (5, 1))
        transform = WindowTransform.fit(windows)
        coords = transform.transform(windows)
        assert np.all(np.isfinite(coords)) and np.all(coords == 0.0)
        np.testing.assert_allclose(transform.inverse(coords), windows, rtol=1e-12, atol=0)

    def test_level_coordinate_follows_normal_quantiles(self):
        # bimodal start levels: one regime near 80, one near 130
        levels = np.concatenate([np.linspace(75.0, 85.0, 50), np.linspace(125.0, 135.0, 50)])
        windows = levels[:, None] * np.linspace(1.0, 1.05, 6)
        transform = WindowTransform.fit(windows)
        coord = transform.transform(windows)[:, 0]
        probs = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
        normal = np.array([-1.2816, -0.6745, 0.0, 0.6745, 1.2816])
        np.testing.assert_allclose(np.quantile(coord, probs), normal, atol=0.1)
        # a normal coordinate maps back onto the two regimes, not between them
        tracks = transform.inverse(np.random.default_rng(0).standard_normal((2000, 6)))
        assert np.mean((tracks[:, 0] > 90.0) & (tracks[:, 0] < 120.0)) < 0.02

    def test_nonpositive_windows_rejected(self):
        with pytest.raises(GanError, match="positive"):
            WindowTransform.fit(np.array([[1.0, 0.0], [1.0, 2.0]]))


class TestCheckpoint:
    def _model(self, rng):
        gen = init_mlp([4, 8, 6], ["relu", "sigmoid"], rng)
        disc = init_mlp([6, 8, 1], ["tanh", "sigmoid"], rng)
        return GanModel(generator=gen, discriminator=disc, scale=123.5)

    def test_round_trip_identical_samples(self, rng, tmp_path):
        model = self._model(rng)
        path = tmp_path / "model.gmc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.scale == model.scale
        np.testing.assert_array_equal(sample(model, 5, 3), sample(loaded, 5, 3))
        for a, b in zip(model.generator.weights, loaded.generator.weights):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.usefixtures("tiny_networks")
    def test_round_trip_trained_model(self, tmp_path):
        model = small_trained_model()
        path = tmp_path / "model.gmc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for name in ("mean", "std", "level_knots", "normal_knots"):
            np.testing.assert_array_equal(getattr(loaded.transform, name),
                                          getattr(model.transform, name))
        np.testing.assert_array_equal(loaded.generator.params, model.generator.params)
        np.testing.assert_array_equal(sample(loaded, 300, 4), sample(model, 300, 4))

    @pytest.mark.parametrize("version", [1, 99])
    def test_only_format_2_is_read(self, version, rng, tmp_path):
        # format 1, which no writer produces any more, is rejected like any other version
        save_checkpoint(self._model(rng), tmp_path / "model.gmc")
        body = bytearray((tmp_path / "model.gmc").read_bytes()[:-4])
        body[4:8] = struct.pack("<I", version)
        path = tmp_path / f"model_v{version}.gmc"
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        with pytest.raises(CheckpointError, match=rf"{version} unsupported \(expected 2\)$"):
            load_checkpoint(path)

    @pytest.mark.usefixtures("tiny_networks")
    def test_truncated_transform_section(self, tmp_path):
        model = small_trained_model(epochs=1)
        path = tmp_path / "model.gmc"
        save_checkpoint(model, path)
        body = path.read_bytes()[:-4]
        # drop the last normal knot, then seal the shorter body with a valid CRC
        short = body[:-8]
        path.write_bytes(short + struct.pack("<I", zlib.crc32(short)))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("empty", ["generator", "discriminator"])
    def test_network_without_layers_rejected(self, empty, rng, tmp_path):
        model = self._model(rng)
        nets = {name: gan._pack_net(getattr(model, name)) for name in ("generator", "discriminator")}
        nets[empty] = struct.pack("<I", 0)  # layer count 0
        body = (gan.CHECKPOINT_MAGIC + struct.pack("<I", gan.CHECKPOINT_VERSION)
                + nets["generator"] + nets["discriminator"] + struct.pack("<dI", 1.0, 0))
        path = tmp_path / "empty.gmc"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(CheckpointError, match="no layers"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gmc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch_names_both(self, rng, tmp_path):
        import struct
        import zlib

        model = self._model(rng)
        path = tmp_path / "model.gmc"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        body = bytearray(data[:-4])
        body[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        with pytest.raises(CheckpointError, match="99.*expected 2"):
            load_checkpoint(path)

    def test_corrupted_body_fails_checksum(self, rng, tmp_path):
        model = self._model(rng)
        path = tmp_path / "model.gmc"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file(self, rng, tmp_path):
        model = self._model(rng)
        path = tmp_path / "model.gmc"
        save_checkpoint(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
