import dataclasses
import itertools
import struct
import sys
import threading
import tracemalloc
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
    TrainReport,
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
    def test_float32_net_backpropagates_in_float32(self, rng):
        net = init_mlp([32, 128, 256, 64], ["relu", "relu", "identity"], rng)
        x = rng.standard_normal((100, 32))
        u = rng.standard_normal((100, 64)) / 100
        g32, g64 = backward(net.astype(np.float32), x, u), backward(net, x, u)
        for a, b in zip(g32.weights + g32.biases, g64.weights + g64.biases):
            assert a.dtype == np.float32
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5)

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

    @pytest.mark.parametrize(
        "weights, biases, activations, message",
        [([np.ones((2, 3))], [np.ones(2)], ["relu", "identity"], "per-layer lists"),
         ([np.ones((2, 3))], [np.ones(3)], ["relu"], "weight/bias shapes"),
         ([np.ones((2, 3))], [np.ones(2)], ["softplus"], "unknown activation 'softplus'")],
        ids=["list_lengths", "bias_length", "activation"],
    )
    def test_inconsistent_layers_rejected(self, weights, biases, activations, message):
        with pytest.raises(GanError, match=message):
            MlpParams(weights, biases, activations)

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

    def test_nan_generator_loss_collapses(self, rng):
        probe = rng.uniform(0.0, 1.0, (16, 8))
        assert detect_collapse([1.0, 1.0], [1.0, float("nan")], probe) == "non-finite generator loss"

    def test_low_discriminator_loss_run_collapses(self, rng):
        probe = rng.uniform(0.0, 1.0, (16, 8))
        losses = [1.0] * 10 + [0.01] * 20
        reason = detect_collapse(losses, [1.0] * 30, probe)
        assert reason is not None and "discriminator loss" in reason


class TestTrainReport:
    def test_outcome_is_derived_from_losses_and_reason(self):
        report = TrainReport([0.7, 0.6], [1.2, 1.1], collapse_reason="x")
        assert report.collapsed and report.epochs_run == 2
        healthy = TrainReport([0.7], [1.2])
        assert not healthy.collapsed and healthy.epochs_run == 1

    @pytest.mark.parametrize("name", ["collapsed", "epochs_run"])
    def test_outcome_cannot_be_assigned(self, name):
        with pytest.raises(AttributeError):
            setattr(TrainReport(), name, 1)


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
        model1, rep1 = train(ws.windows, cfg)
        model2, rep2 = train(ws.windows, cfg)
        assert rep1.discriminator_losses == rep2.discriminator_losses
        assert rep1.generator_losses == rep2.generator_losses
        # bit for bit: the generator step backpropagates through row views of one cache
        assert model1.generator.params.tobytes() == model2.generator.params.tobytes()
        assert model1.discriminator.params.tobytes() == model2.discriminator.params.tobytes()

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
    def test_returns_float32_nets(self):
        # trained and returned in float32; checkpoint format 4
        # stores the generator exactly (TestCheckpoint::test_round_trip_trained_model)
        model = small_trained_model()
        for net in (model.generator, model.discriminator):
            assert net.params.dtype == np.float32

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

    def test_tanh_and_sigmoid_hidden_layers_match_forward(self, rng):
        # the hidden activations that return a new array: each must leave its
        # layer's bias input at 1 for the next GEMM
        dims = [4, 8, 8, 6]
        gen = MlpParams(
            weights=[rng.standard_normal((o, i)) for i, o in zip(dims[:-1], dims[1:])],
            biases=[rng.standard_normal(8), rng.standard_normal(8), np.full(6, 5.0)],
            activations=["tanh", "sigmoid", "identity"],
        )
        model = GanModel(generator=gen, discriminator=init_mlp([6, 1], ["sigmoid"], rng), scale=100.0)
        z = np.random.default_rng(3).standard_normal((300, 4))
        expected = np.maximum(forward(gen, z) * model.scale, TRACK_FLOOR_FRACTION * model.scale)
        np.testing.assert_allclose(sample(model, 300, seed=3), expected, rtol=1e-6, atol=0)

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
        # generator is float32
        windows = gbm_prices(300, seed=8)[np.arange(200)[:, None] + np.arange(64)]
        gen = init_mlp([32, 128, 256, 64], ["relu", "relu", "identity"], rng)
        return GanModel(generator=gen.astype(np.float32),
                        discriminator=init_mlp([64, 1], ["sigmoid"], rng),
                        scale=2.0, transform=WindowTransform.fit(windows))

    @pytest.mark.parametrize("n2", [1, SAMPLE_BLOCK_ROWS - 1, SAMPLE_BLOCK_ROWS,
                                    SAMPLE_BLOCK_ROWS + 1, 2 * SAMPLE_BLOCK_ROWS + 3])
    def test_blocks_bit_equal_to_one_pass(self, n2, rng, monkeypatch):
        model = self._served_model(rng)
        monkeypatch.setattr(gan, "SAMPLE_BLOCK_ROWS", n2)
        one_pass = sample(model, n2, seed=5)
        # each block draws its own noise, in block order, whatever the block size
        for block_rows in (SAMPLE_BLOCK_ROWS, 256, 4096):
            monkeypatch.setattr(gan, "SAMPLE_BLOCK_ROWS", block_rows)
            np.testing.assert_array_equal(sample(model, n2, seed=5), one_pass)

    @staticmethod
    def _with_workers(monkeypatch, workers):
        # sample runs min(block count, usable CPUs) workers
        monkeypatch.setattr(gan, "_usable_cpus", lambda: workers)

    @pytest.mark.parametrize("n2", [1, 7, SAMPLE_BLOCK_ROWS - 1, SAMPLE_BLOCK_ROWS + 1,
                                    2 * SAMPLE_BLOCK_ROWS + 3, 5120])
    @pytest.mark.parametrize("with_transform", [True, False])
    def test_bit_equal_for_any_worker_count(self, n2, with_transform, rng, monkeypatch):
        model = self._served_model(rng)
        if not with_transform:
            model = dataclasses.replace(model, transform=None)
        self._with_workers(monkeypatch, 1)
        one_worker = sample(model, n2, seed=5)
        for workers in (2, 3):
            self._with_workers(monkeypatch, workers)
            np.testing.assert_array_equal(sample(model, n2, seed=5), one_worker)

    def test_draw_order_holds_with_more_workers_than_cpus(self, rng, monkeypatch):
        # 8 workers over 401 blocks of 1 or 2 rows, switching threads as often
        # as the interpreter allows: a block drawn out of order changes its tracks
        model = self._served_model(rng)
        monkeypatch.setattr(gan, "SAMPLE_BLOCK_ROWS", 2)
        n2 = 2 * 400 + 1
        self._with_workers(monkeypatch, 1)
        one_worker = sample(model, n2, seed=5)
        self._with_workers(monkeypatch, 8)
        result = []
        runner = threading.Thread(target=lambda: result.append(sample(model, n2, seed=5)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        np.testing.assert_array_equal(result[0], one_worker)

    @pytest.mark.parametrize("fault", ["third call", "helper thread"])
    def test_worker_fault_is_raised_after_every_thread_ends(self, fault, rng, monkeypatch):
        model = self._served_model(rng)  # fits its transform before the patch
        calls = itertools.count(1)
        caller = threading.get_ident()
        interp = gan._interp_linear

        def failing(*args):
            # one call per block; "helper thread" fails every call off the caller
            call = next(calls)
            fails = call == 3 if fault == "third call" else threading.get_ident() != caller
            if fails:
                raise FloatingPointError(fault)
            return interp(*args)

        monkeypatch.setattr(gan, "_interp_linear", failing)
        self._with_workers(monkeypatch, 3)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match=fault):
            sample(model, 8 * SAMPLE_BLOCK_ROWS, seed=5)
        assert threading.active_count() == threads
        # the fault stopped the other workers before they took every block
        assert next(calls) - 1 < 8

    def test_memory_beyond_the_tracks_does_not_grow_with_n2(self, rng, monkeypatch):
        # a call holds the track matrix plus one block per worker: no n2-row
        # noise matrix. Both calls run the same number of workers.
        self._with_workers(monkeypatch, 2)
        model = self._served_model(rng)
        sample(model, SAMPLE_BLOCK_ROWS, seed=5)  # one-off first-call allocations
        extra = []
        for blocks in (2, 32):
            tracemalloc.start()
            try:
                tracks = sample(model, blocks * SAMPLE_BLOCK_ROWS, seed=5)
                extra.append(tracemalloc.get_traced_memory()[1] - tracks.nbytes)
            finally:
                tracemalloc.stop()
        assert abs(extra[1] - extra[0]) < 0.5 * 2**20

    @staticmethod
    def _float64_tracks(model, n2, seed):
        # sample's tracks from a float64 forward pass and inverse transform:
        # forward computes in the network's dtype, so the generator is widened
        z = np.random.default_rng(seed).standard_normal((n2, model.noise_dim))
        coords = forward(model.generator.astype(float), z)
        return np.maximum(model.transform.inverse(coords) * model.scale,
                          TRACK_FLOOR_FRACTION * model.scale)

    @pytest.mark.usefixtures("tiny_networks")
    def test_float32_tracks_match_float64_reference(self, rng):
        """2048 tracks lie within 1e-6 relative of a float64 evaluation.

        1e-6 is a figure for samples of this size: on served-shape models
        trained on a 700-day history, the largest error reached 1.06e-6 at
        8192 tracks and 1.25e-6 at 20,480 (perfbench's served model 1.23e-6),
        about one element in 17,000. Larger samples are held to the float32
        rounding bound of test_float32_tracks_within_rounding_bound_at_served_size.
        """
        # the hand-built model at the served shapes, and one that train returns
        for model in (self._served_model(rng), small_trained_model()):
            np.testing.assert_allclose(sample(model, 2048, seed=5), self._float64_tracks(model, 2048, 5),
                                       rtol=1e-6, atol=0)

    def test_float32_tracks_within_rounding_bound_at_served_size(self):
        """20,480 tracks of a served-shape model that train returns."""
        prices = gbm_prices(700, mu=0.05, sigma=0.2, seed=308)
        model = train(partition(prices, 1, 64).windows, GanConfig(T=64, epochs=3, batch_size=64, seed=1))[0]
        assert model.generator.layer_dims == [32, 128, 256, 64]
        # A float32 dot product of n terms errs by at most about n * u times
        # the sum of its terms' magnitudes, u = 2**-24 being float32's unit
        # roundoff. The widest GEMM is the head's, n = 256, whose terms and
        # output are of order 1 in the standardised coordinates; a track's
        # relative error is, to first order, the absolute error of its log,
        # std (at most about 1) times its coordinate's error. So 256 * u,
        # about 1.5e-5, bounds it; the largest error seen here is 1.25e-6.
        rtol = max(model.generator.layer_dims[:-1]) * 2.0**-24
        np.testing.assert_allclose(sample(model, 20_480, seed=5), self._float64_tracks(model, 20_480, 5),
                                   rtol=rtol, atol=0)


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


def _seal(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _first_param(net: MlpParams, value: float) -> MlpParams:
    net = net.copy()
    net.params[0] = value
    return net


def _model_with(model: GanModel, **changes) -> GanModel:
    """The model with changed fields; a window transform field goes to its transform."""
    names = [f.name for f in dataclasses.fields(WindowTransform)]
    tf = {name: changes.pop(name) for name in names if name in changes}
    transform = dataclasses.replace(model.transform, **tf)
    return dataclasses.replace(model, transform=transform, **changes)


def _resaved(**changes):
    """A case whose file the writer packs from the model with changed fields."""
    return lambda model, saved: saved(_model_with(model, **changes))


# generator layers 4 -> 8 -> 6 whose second layer reads 7 inputs
_CHAIN_BREAK = (struct.pack("<IIIB", 2, 8, 4, 0) + bytes(4 * (32 + 8))
                + struct.pack("<IIB", 6, 7, 1) + bytes(4 * (42 + 6)))

# case id -> (file bytes from the model and the writer, reason after "<path>: ")
CHECKPOINT_FAULTS = {
    "bad_magic": (lambda m, saved: b"NOPE" + saved(m)[4:], "not a checkpoint (bad magic)"),
    "checksum": (lambda m, saved: saved(m)[:20] + b"\xff" + saved(m)[21:], "checksum failure"),
    "version_99": (
        lambda m, saved: _seal(saved(m)[:4] + struct.pack("<I", 99) + saved(m)[8:-4]),
        "format version 99 unsupported (expected 4)",
    ),
    "truncated_transform": (lambda m, saved: _seal(saved(m)[:-12]), "truncated checkpoint"),
    "huge_layer": (  # (2**32 - 1)**2 weights: a byte count, not a struct format
        lambda m, saved: _seal(saved(m)[:12] + struct.pack("<IIB", 2**32 - 1, 2**32 - 1, 0)),
        "truncated checkpoint",
    ),
    "no_layers": (lambda m, saved: _seal(saved(m)[:8] + bytes(4)), "network has no layers"),
    "unknown_tag": (
        lambda m, saved: _seal(saved(m)[:20] + b"\x09" + saved(m)[21:-4]),
        "unknown activation tag 9",
    ),
    "trailing_bytes": (
        lambda m, saved: _seal(saved(m)[:-4] + b"\x00"), "trailing bytes in checkpoint"
    ),
    "chain_break": (
        lambda m, saved: _seal(saved(m)[:8] + _CHAIN_BREAK), "layer 1: input dim 7 breaks the chain"
    ),
    "nan_weight": (
        lambda m, saved: saved(_model_with(m, generator=_first_param(m.generator, np.nan))),
        "generator holds a non-finite value",
    ),
    "inf_weight": (
        lambda m, saved: saved(_model_with(m, generator=_first_param(m.generator, np.inf))),
        "generator holds a non-finite value",
    ),
    "scale_nan": (_resaved(scale=np.nan), "scale holds a non-finite value"),
    "scale_negative": (_resaved(scale=-1.0), "scale -1.0 is not positive"),
    "scale_zero": (_resaved(scale=0.0), "scale 0.0 is not positive"),
    "mean_nan": (_resaved(mean=np.full(6, np.nan)), "mean holds a non-finite value"),
    "std_negative": (
        _resaved(std=np.array([1.0, 1.0, -0.5, 1.0, 1.0, 1.0])), "transform std is not positive"
    ),
    "level_knots_decrease": (
        _resaved(level_knots=np.array([5.0, 4.5, 4.0])), "level_knots do not strictly increase"
    ),
    "normal_knots_repeat": (
        _resaved(normal_knots=np.array([-1.0, 0.0, 0.0])), "normal_knots do not strictly increase"
    ),
}


class TestCheckpoint:
    def _model(self, rng):
        gen = init_mlp([4, 8, 6], ["relu", "sigmoid"], rng)
        return GanModel(generator=gen, discriminator=None, scale=123.5)

    @pytest.mark.parametrize("edit, reason", CHECKPOINT_FAULTS.values(),
                             ids=CHECKPOINT_FAULTS.keys())
    def test_every_fault_names_the_file(self, edit, reason, rng, tmp_path):
        def saved(model):
            save_checkpoint(model, tmp_path / "saved.gmc")
            return (tmp_path / "saved.gmc").read_bytes()

        transform = WindowTransform(np.zeros(6), np.ones(6), np.array([4.0, 4.5, 5.0]),
                                    np.array([-1.0, 0.0, 1.0]))
        model = dataclasses.replace(self._model(rng), transform=transform)
        path = tmp_path / "fault.gmc"
        path.write_bytes(edit(model, saved))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: {reason}"

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_generator_beyond_float32_range_rejected_before_writing(self, value, rng, tmp_path):
        model = self._model(rng)
        model = dataclasses.replace(model, generator=_first_param(model.generator, value))
        path = tmp_path / "model.gmc"
        with pytest.raises(CheckpointError) as exc:
            save_checkpoint(model, path)
        assert str(exc.value) == f"{path}: generator holds a value beyond float32's range"
        assert not path.exists()

    def test_missing_file_is_an_os_error(self, tmp_path):
        # outside the file's faults: the CLI maps it to exit 2
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.gmc")

    def test_round_trip_identical_samples(self, rng, tmp_path):
        model = self._model(rng)
        path = tmp_path / "model.gmc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.scale == model.scale
        np.testing.assert_array_equal(sample(model, 5, 3), sample(loaded, 5, 3))
        # the hand-built float64 weights are stored rounded to float32
        for a, b in zip(model.generator.weights, loaded.generator.weights):
            np.testing.assert_array_equal(a.astype(np.float32), b)

    @pytest.mark.usefixtures("tiny_networks")
    def test_round_trip_trained_model(self, tmp_path):
        model = small_trained_model()
        path = tmp_path / "model.gmc"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for name in ("mean", "std", "level_knots", "normal_knots"):
            np.testing.assert_array_equal(getattr(loaded.transform, name),
                                          getattr(model.transform, name))
        assert loaded.generator.params.dtype == np.float32
        np.testing.assert_array_equal(loaded.generator.params, model.generator.params)
        np.testing.assert_array_equal(sample(loaded, 300, 4), sample(model, 300, 4))

    @pytest.mark.parametrize("version", [1, 2, 3, 99])
    def test_only_format_4_is_read(self, version, rng, tmp_path):
        # formats 1 to 3, which no writer produces any more, are rejected like any other version
        save_checkpoint(self._model(rng), tmp_path / "model.gmc")
        body = bytearray((tmp_path / "model.gmc").read_bytes()[:-4])
        body[4:8] = struct.pack("<I", version)
        path = tmp_path / f"model_v{version}.gmc"
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        with pytest.raises(CheckpointError, match=rf"{version} unsupported \(expected 4\)$"):
            load_checkpoint(path)

    @pytest.mark.usefixtures("tiny_networks")
    def test_loaded_model_holds_no_discriminator_and_resaves_same_bytes(self, tmp_path):
        model = small_trained_model()
        assert model.discriminator is not None  # train returns the one it trained
        save_checkpoint(model, tmp_path / "model.gmc")
        loaded = load_checkpoint(tmp_path / "model.gmc")
        assert loaded.discriminator is None
        save_checkpoint(loaded, tmp_path / "resaved.gmc")
        assert (tmp_path / "resaved.gmc").read_bytes() == (tmp_path / "model.gmc").read_bytes()

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

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.gmc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
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
