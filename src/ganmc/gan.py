"""Fully connected generator/discriminator pair trained adversarially.

All network math is explicit numpy: forward passes, backpropagation,
and Adam updates, so gradients can be verified against finite
differences. ``train`` runs its minibatch loop in float32 and returns
float64 networks of float32 values; ``sample`` runs the generator in
float32 too and returns float64 tracks. Pricing and checkpoints are
float64. Training and sampling are deterministic given the seed,
numpy/BLAS build and thread count.

The networks work in log coordinates: a window x_0..x_{T-1} becomes
(G(log x_0), log(x_1/x_0), ..., log(x_{T-1}/x_0)), each coordinate
standardised with the training windows' mean and std, where G maps the
history's start levels onto a normal coordinate (see
``WindowTransform``). A day's move is then a unit-sized change the
discriminator can see, and the generator's identity head emits the
window jointly rather than one bounded level per day. A trained model
keeps its fitted transform next to the identity-headed generator, and
``sample`` applies the inverse to the generator's output.

Checkpoint layout (little-endian): magic ``GMC1``, u32 format version 2,
then generator and discriminator in that order, each as u32 layer
count followed per layer by u32 rows, u32 cols, u8 activation tag,
rows*cols f64 weights (row-major) and rows f64 biases; then the f64
output scale; the u32 knot count K of the window transform, then f64
mean[T], std[T], level_knots[K] and normal_knots[K] (nothing when K=0:
no transform); and a trailing u32 CRC32 of all preceding bytes.
Activation tags: 0 relu, 1 sigmoid, 2 tanh, 3 identity. The stored
discriminator consumes standardised log coordinates, not prices.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field, fields
from statistics import NormalDist
from typing import ClassVar, get_type_hints

import numpy as np

CHECKPOINT_MAGIC = b"GMC1"
CHECKPOINT_VERSION = 2

_ACT_TO_TAG = {"relu": 0, "sigmoid": 1, "tanh": 2, "identity": 3}
_TAG_TO_ACT = {v: k for k, v in _ACT_TO_TAG.items()}

# positive floor for sampled prices, as a fraction of the scale
TRACK_FLOOR_FRACTION = 1e-6

# rows of noise sampled per forward pass: a 256-wide float32 hidden block of
# this many rows is 1 MiB and stays in L2, and the block's tracks are
# finished (inverse transform, scale, floor) while they are still there
SAMPLE_BLOCK_ROWS = 1024

# knots of the piecewise-linear map between log start levels and a normal
# coordinate (see WindowTransform)
LEVEL_KNOTS = 32

# smoothed discriminator target for real windows
REAL_LABEL = 0.9

_EPS = 1e-12


class GanError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


def _relu(z: np.ndarray) -> np.ndarray:
    # in place on the caller's fresh pre-activation
    return np.maximum(z, 0.0, out=z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _identity(z: np.ndarray) -> np.ndarray:
    return z


# activation -> (function, delta times its derivative, given the output a)
_ACTIVATIONS = {
    "relu": (_relu, lambda delta, a: delta * (a > 0.0)),
    "sigmoid": (_sigmoid, lambda delta, a: delta * (a * (1.0 - a))),
    "tanh": (np.tanh, lambda delta, a: delta * (1.0 - a * a)),
    "identity": (_identity, lambda delta, a: delta),
}


@dataclass
class MlpParams:
    """Dense network parameters; weights[l] has shape (dims[l+1], dims[l]).

    The given arrays are copied into one contiguous vector, ``params``
    (float32 when all of them are, else float64); ``weights`` and ``biases``
    are views into it, so an update of ``params`` updates every layer.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise GanError("per-layer lists must have equal length")
        for l, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise GanError(f"layer {l}: weight/bias shapes {w.shape}/{b.shape} inconsistent")
            if act not in _ACT_TO_TAG:
                raise GanError(f"layer {l}: unknown activation {act!r}")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise GanError(f"layer {l}: input dim {w.shape[1]} breaks the chain")
        arrays = list(self.weights) + list(self.biases)
        self.params = np.empty(sum(a.size for a in arrays), np.result_type(np.float32, *arrays))
        weights, biases = self.views(self.params)
        for dst, src in zip(weights + biases, arrays):
            dst[...] = src
        self.weights, self.biases = weights, biases

    def views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer views into a vector laid out like ``params``: w0, b0, w1, b1, ..."""
        weights, biases, pos = [], [], 0
        for rows, cols in (w.shape for w in self.weights):
            weights.append(flat[pos : pos + rows * cols].reshape(rows, cols))
            pos += rows * cols
            biases.append(flat[pos : pos + rows])
            pos += rows
        return weights, biases

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def copy(self) -> "MlpParams":
        return MlpParams(list(self.weights), list(self.biases), list(self.activations))

    def astype(self, dtype) -> "MlpParams":
        """A copy with every parameter cast to dtype."""
        return MlpParams([w.astype(dtype) for w in self.weights],
                         [b.astype(dtype) for b in self.biases], list(self.activations))


def init_mlp(dims: list[int], activations: list[str], rng: np.random.Generator) -> MlpParams:
    """He-style initialization scaled for the fan-in of each layer."""
    if len(activations) != len(dims) - 1:
        raise GanError("need one activation per layer")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.standard_normal((fan_out, fan_in)) * std)
        biases.append(np.zeros(fan_out))
    return MlpParams(weights=weights, biases=biases, activations=list(activations))


def _forward_cached(net: MlpParams, x: np.ndarray):
    """Batch forward pass keeping each layer's output."""
    a = x
    post = []
    for w, b, act in zip(net.weights, net.biases, net.activations):
        z = a @ w.T
        z += b
        a = _ACTIVATIONS[act][0](z)
        post.append(a)
    return a, (x, post)


def forward(net: MlpParams, x) -> np.ndarray:
    """Evaluate the network on one input vector or a batch of rows, in the network's dtype."""
    xv = np.asarray(x, dtype=net.params.dtype)
    single = xv.ndim == 1
    if single:
        xv = xv[None, :]
    if xv.shape[1] != net.layer_dims[0]:
        raise GanError(f"input dim {xv.shape[1]} != first layer dim {net.layer_dims[0]}")
    out = _forward_cached(net, xv)[0]
    return out[0] if single else out


def _backward_cached(net: MlpParams, cache, upstream: np.ndarray, grad_w=None, grad_b=None):
    """Backpropagate sum(upstream * output) through a cached forward pass.

    With the per-layer arrays grad_w and grad_b, writes the parameter
    gradients into them and returns None; without them, returns the
    gradient with respect to the input.
    """
    x, post = cache
    delta = upstream
    for l in range(len(net.weights) - 1, -1, -1):
        delta = _ACTIVATIONS[net.activations[l]][1](delta, post[l])
        if grad_w is not None:
            np.matmul(delta.T, post[l - 1] if l > 0 else x, out=grad_w[l])
            np.sum(delta, axis=0, out=grad_b[l])
        if l > 0 or grad_w is None:
            delta = delta @ net.weights[l]
    return None if grad_w is not None else delta


@dataclass
class MlpGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def backward(net: MlpParams, x, upstream) -> MlpGrads:
    """Backpropagate an upstream output gradient to every weight and bias."""
    xv = np.asarray(x, dtype=float)
    uv = np.asarray(upstream, dtype=float)
    if xv.ndim == 1:
        xv = xv[None, :]
        uv = uv[None, :]
    if xv.shape[1] != net.layer_dims[0]:
        raise GanError(f"input dim {xv.shape[1]} != first layer dim {net.layer_dims[0]}")
    if uv.shape != (xv.shape[0], net.layer_dims[-1]):
        raise GanError(f"upstream shape {uv.shape} inconsistent with output dim")
    _, cache = _forward_cached(net, xv)
    gw, gb = net.views(np.empty_like(net.params))
    _backward_cached(net, cache, uv, gw, gb)
    return MlpGrads(weights=gw, biases=gb)


class Adam:
    """Per-parameter adaptive steps with bias-corrected moment estimates.

    The moments, the gradient and the temporaries are flat vectors laid
    out like the network's ``params``; ``grad_w``/``grad_b`` are per-layer
    views of the gradient, which training fills before calling ``update``.
    """

    def __init__(self, net: MlpParams, lr: float, beta1: float, beta2: float, eps: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self.grad = np.zeros_like(net.params)
        self.grad_w, self.grad_b = net.views(self.grad)
        self._step = np.empty_like(net.params)
        self._denom = np.empty_like(net.params)

    def step(self, net: MlpParams, grad_w, grad_b) -> None:
        """Update from per-layer gradients; see ``update``."""
        for dst, src in zip(self.grad_w + self.grad_b, list(grad_w) + list(grad_b)):
            dst[...] = src
        self.update(net)

    def update(self, net: MlpParams) -> None:
        """One Adam step on net.params from the gradient in ``grad``."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        g, m, v, step, denom = self.grad, self.m, self.v, self._step, self._denom
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=step)
        m += step
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=step)
        step *= g
        v += step
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=step)
        np.multiply(self.lr, step, out=step)
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        step /= denom
        net.params -= step


@dataclass(frozen=True)
class GanConfig:
    """One training run: the fields are what a caller sets.

    The class constants are the architecture, the Adam settings, the
    collapse thresholds and the probe size, the same for every run.
    """

    T: int
    epochs: int = 2000
    batch_size: int = 64
    seed: int = 0
    scale: float = 1.0  # a sampled track is transform.inverse(forward(generator, z)) * scale

    noise_dim: ClassVar[int] = 32
    gen_hidden: ClassVar[tuple[int, ...]] = (128, 256)
    disc_hidden: ClassVar[tuple[int, ...]] = (256, 64)
    lr_generator: ClassVar[float] = 2e-4
    lr_discriminator: ClassVar[float] = 2e-4
    beta1: ClassVar[float] = 0.5
    beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8
    delta_loss: ClassVar[float] = 0.05
    eps_std: ClassVar[float] = 1e-4
    k_epochs: ClassVar[int] = 20
    # generated windows drawn after each epoch for the collapse probe
    probe_size: ClassVar[int] = 64

    def __post_init__(self):
        """Every scalar hyperparameter but the seed must be positive."""
        hints = get_type_hints(GanConfig)
        for f in fields(self):
            value = getattr(self, f.name)
            if hints[f.name] in (int, float) and f.name != "seed" and not (value > 0):
                raise GanError(f"{f.name} must be positive, got {value}")


@dataclass(frozen=True)
class GanModel:
    generator: MlpParams
    discriminator: MlpParams
    scale: float
    # None: the generator emits prices itself (a hand-built model)
    transform: WindowTransform | None = None

    @property
    def noise_dim(self) -> int:
        return self.generator.layer_dims[0]

    @property
    def T(self) -> int:
        return self.generator.layer_dims[-1]


@dataclass(frozen=True)
class WindowTransform:
    """Standardised log coordinates of price windows, and their inverse.

    A window x_0..x_{T-1} maps to c = (G(log x_0), log(x_t/x_0) for t >= 1),
    then to (c - mean) / std per coordinate. G is the piecewise-linear map
    through the knots (level_knots[k], normal_knots[k]): the training
    windows' log start levels at LEVEL_KNOTS evenly spaced probabilities,
    paired with the standard normal quantiles at the same probabilities,
    extended linearly past the end knots. It turns the history's start
    levels, which need not be unimodal, into a roughly standard normal
    coordinate, and its inverse turns a normal coordinate back into the
    history's level distribution. A coordinate that does not vary over
    the training windows keeps std 1, so it maps to 0 exactly and nothing
    divides by zero.
    """

    mean: np.ndarray
    std: np.ndarray
    level_knots: np.ndarray   # strictly increasing log start levels
    normal_knots: np.ndarray  # strictly increasing, same length

    @classmethod
    def fit(cls, windows) -> "WindowTransform":
        lx = _log_windows(windows)
        probs = (np.arange(LEVEL_KNOTS) + 0.5) / LEVEL_KNOTS
        levels = np.quantile(lx[:, 0], probs)
        distinct = np.concatenate([[True], np.diff(levels) > 0.0])
        normal = np.array([NormalDist().inv_cdf(p) for p in probs[distinct]])
        if len(normal) == 1:
            normal = np.zeros(1)  # one start level: G maps it to 0
        coords = _window_coords(lx, levels[distinct], normal)
        std = coords.std(axis=0)
        return cls(coords.mean(axis=0), np.where(std > 0.0, std, 1.0), levels[distinct], normal)

    def transform(self, windows) -> np.ndarray:
        coords = _window_coords(_log_windows(windows), self.level_knots, self.normal_knots)
        return (coords - self.mean) / self.std

    def inverse(self, coords) -> np.ndarray:
        c = np.asarray(coords, dtype=float) * self.std
        c += self.mean
        log_x0 = _interp_linear(c[:, :1], self.normal_knots, self.level_knots)
        c[:, 1:] += log_x0
        c[:, :1] = log_x0
        return np.exp(c, out=c)


def _log_windows(windows) -> np.ndarray:
    x = np.asarray(windows, dtype=float)
    if not np.all(x > 0.0):
        raise GanError("windows must be strictly positive to take logs")
    return np.log(x)


def _window_coords(lx: np.ndarray, level_knots: np.ndarray, normal_knots: np.ndarray) -> np.ndarray:
    # (G(log x_0), log(x_t/x_0) for t >= 1) from log prices
    level = _interp_linear(lx[:, :1], level_knots, normal_knots)
    return np.concatenate([level, lx[:, 1:] - lx[:, :1]], axis=1)


def _interp_linear(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation through (xp, fp), extended linearly past both ends."""
    if len(xp) == 1:
        return np.full_like(x, fp[0])
    y = np.interp(x, xp, fp)
    below, above = x < xp[0], x > xp[-1]
    y[below] = fp[0] + (x[below] - xp[0]) * (fp[1] - fp[0]) / (xp[1] - xp[0])
    y[above] = fp[-1] + (x[above] - xp[-1]) * (fp[-1] - fp[-2]) / (xp[-1] - xp[-2])
    return y


@dataclass
class TrainReport:
    generator_losses: list[float] = field(default_factory=list)
    discriminator_losses: list[float] = field(default_factory=list)
    collapsed: bool = False
    collapse_reason: str | None = None
    epochs_run: int = 0


def detect_collapse(discriminator_losses, generator_losses, probe_samples) -> str | None:
    """Return a reason string when training has collapsed, else None.

    Collapse: the discriminator loss stayed below GanConfig.delta_loss for
    GanConfig.k_epochs consecutive epochs, the per-day spread of the probe
    batch fell below GanConfig.eps_std, or any recorded loss is non-finite.
    """
    delta_loss, eps_std, k_epochs = GanConfig.delta_loss, GanConfig.eps_std, GanConfig.k_epochs
    d_losses = np.asarray(discriminator_losses, dtype=float)
    g_losses = np.asarray(generator_losses, dtype=float)
    if d_losses.size and not np.isfinite(d_losses).all():
        return "non-finite discriminator loss"
    if g_losses.size and not np.isfinite(g_losses).all():
        return "non-finite generator loss"
    if d_losses.size >= k_epochs and np.all(d_losses[-k_epochs:] < delta_loss):
        return f"discriminator loss below {delta_loss} for {k_epochs} epochs"
    probe = np.asarray(probe_samples, dtype=float)
    if probe.ndim == 2 and probe.shape[0] >= 2:
        spread = float(probe.std(axis=0).mean())
        if spread < eps_std:
            return f"generated sample spread {spread:.3g} below {eps_std}"
    return None


def _bce_upstream(d_out: np.ndarray, target: np.ndarray | float, batch: int) -> np.ndarray:
    # d(BCE)/d(sigmoid output); the 1/(d(1-d)) factor cancels against the
    # sigmoid derivative in the last layer, _EPS keeps the ratio finite
    return (d_out - target) / (d_out * (1.0 - d_out) + _EPS) / batch


def _moment_features(transform: WindowTransform, x_std: np.ndarray):
    """Linear map onto the moment-matched features, and their target stds.

    The features are the standardised coordinates and the daily
    log-returns (c_1, and c_t - c_{t-1} for t >= 2), each rescaled to unit
    std over the training windows (a constant feature keeps scale 1 and
    target std 0). Every feature has mean 0 over the training windows.
    """
    s = transform.std
    T = s.shape[0]
    returns = np.zeros((T, T - 1))
    returns[np.arange(1, T), np.arange(T - 1)] = s[1:]
    returns[np.arange(1, T - 1), np.arange(1, T - 1)] = -s[1:-1]
    matrix = np.hstack([np.eye(T), returns])
    std = (x_std @ matrix).std(axis=0)
    matrix /= np.where(std > 0.0, std, 1.0)
    return matrix, (x_std @ matrix).std(axis=0)


def _moment_grad(features: np.ndarray, target_std: np.ndarray) -> np.ndarray:
    # gradient of sum_k mean_k^2 + (std_k - target_k)^2 over the batch rows;
    # _EPS under the root keeps the std differentiable at a point mass
    b = features.shape[0]
    mean = features.mean(axis=0)
    centered = features - mean
    std = np.sqrt((centered * centered).mean(axis=0) + _EPS)
    return (2.0 * mean + 2.0 * (std - target_std) * centered / std) / b


def train(windows: np.ndarray, cfg: GanConfig) -> tuple[GanModel, TrainReport]:
    """Alternating Adam steps on the adversarial objective.

    Both networks work in the standardised coordinates of
    ``WindowTransform``. Each real batch pairs the log-return paths of
    some windows with the start levels of other, independently drawn
    windows, so the model learns level and path as independent: returns
    that do not depend on the price level. Without this, a single history
    ties each level to the one path it took from there.

    The discriminator trains on label-smoothed binary cross-entropy, the
    generator on the non-saturating loss plus a moment term: the squared
    gaps between the fake batch's per-feature mean and std and the
    training windows', summed over features. The features are the
    coordinates and the daily log-returns, each scaled to unit std over
    the training windows. The collapse probe is measured in the
    coordinates too. The returned model holds the identity-headed
    generator and the fitted transform, so ``sample`` yields prices:
    transform.inverse(forward(generator, z)) * cfg.scale. Training runs in
    float32 (initialised and noise drawn in float64, then cast, so a seed
    draws the same stream) and returns float64 networks of float32 values;
    a seed repeats the run bit for bit on one numpy/BLAS build and thread count.
    """
    x = np.asarray(windows, dtype=float)
    if x.ndim != 2 or x.shape[1] != cfg.T:
        raise GanError(f"training windows must be (count, {cfg.T}), got {x.shape}")
    m = x.shape[0]
    if cfg.batch_size > m:
        raise GanError(f"batch_size {cfg.batch_size} exceeds training-set size {m}")

    rng = np.random.default_rng(cfg.seed)
    gen = init_mlp(
        [cfg.noise_dim, *cfg.gen_hidden, cfg.T],
        ["relu"] * len(cfg.gen_hidden) + ["identity"],
        rng,
    ).astype(np.float32)
    disc = init_mlp(
        [cfg.T, *cfg.disc_hidden, 1],
        ["relu"] * len(cfg.disc_hidden) + ["sigmoid"],
        rng,
    ).astype(np.float32)
    opt_g = Adam(gen, cfg.lr_generator, cfg.beta1, cfg.beta2, cfg.adam_eps)
    opt_d = Adam(disc, cfg.lr_discriminator, cfg.beta1, cfg.beta2, cfg.adam_eps)

    transform = WindowTransform.fit(x)
    x_std = transform.transform(x)
    moments, target_std = (a.astype(np.float32) for a in _moment_features(transform, x_std))
    x_std = x_std.astype(np.float32)
    b = cfg.batch_size
    pair = np.empty((2 * b, cfg.T), dtype=np.float32)
    labels = np.repeat([[REAL_LABEL], [0.0]], b, axis=0)
    report = TrainReport()

    for epoch in range(cfg.epochs):
        real_epoch = x_std[rng.permutation(m)]
        # start levels drawn apart from the paths (see the docstring)
        real_epoch[:, 0] = x_std[rng.permutation(m), 0]
        d_epoch, g_epoch = [], []
        for start in range(0, m - b + 1, b):
            # discriminator step: one forward and one backward pass over the
            # real rows, then the fake ones; gradients straight into the
            # optimiser's buffer, no input gradients
            z = rng.standard_normal((b, cfg.noise_dim)).astype(np.float32)
            pair[:b] = real_epoch[start : start + b]
            pair[b:] = forward(gen, z)
            d_out, cache = _forward_cached(disc, pair)
            # losses and upstreams from a float64 copy: in float32, 1 - _EPS
            # rounds to 1.0, so a saturated output's clipped log is -inf
            d = d_out.astype(float)
            upstream = _bce_upstream(d, labels, b).astype(np.float32)
            _backward_cached(disc, cache, upstream, opt_d.grad_w, opt_d.grad_b)
            opt_d.update(disc)
            d = np.clip(d, _EPS, 1.0 - _EPS)
            d_epoch.append(float(-(np.log(d[:b]).mean() + np.log1p(-d[b:]).mean())))

            # generator step (non-saturating loss): only the input gradient
            # of the discriminator, only the parameter gradients of the generator
            z = rng.standard_normal((b, cfg.noise_dim)).astype(np.float32)
            fake, cache_g = _forward_cached(gen, z)
            d_out, cache_d = _forward_cached(disc, fake)
            d = d_out.astype(float)
            upstream = (-1.0 / (np.maximum(d, _EPS) * b)).astype(np.float32)
            grad_fake = _backward_cached(disc, cache_d, upstream)
            grad_fake += _moment_grad(fake @ moments, target_std) @ moments.T
            _backward_cached(gen, cache_g, grad_fake, opt_g.grad_w, opt_g.grad_b)
            opt_g.update(gen)
            g_epoch.append(float(-np.log(np.clip(d, _EPS, 1.0)).mean()))

        report.discriminator_losses.append(float(np.mean(d_epoch)))
        report.generator_losses.append(float(np.mean(g_epoch)))
        report.epochs_run = epoch + 1

        z = rng.standard_normal((cfg.probe_size, cfg.noise_dim)).astype(np.float32)
        probe = forward(gen, z)
        # earlier epochs' losses were checked already: the trailing k_epochs
        # decide the verdict, which keeps the check O(k_epochs) per epoch
        reason = detect_collapse(
            report.discriminator_losses[-cfg.k_epochs :],
            report.generator_losses[-cfg.k_epochs :],
            probe,
        )
        if reason is not None:
            report.collapsed = True
            report.collapse_reason = reason
            break

    return GanModel(gen.astype(float), disc.astype(float), cfg.scale, transform), report


def sample(model: GanModel, n2: int, seed: int) -> np.ndarray:
    """Generate n2 price tracks of length T, floored at TRACK_FLOOR_FRACTION * scale.

    A track is transform.inverse(forward(generator, z)) * scale, or
    forward(generator, z) * scale for a model without a transform. The
    generator runs in float32, as in training: the noise is drawn in
    float64, so a seed draws the same stream, and cast. It is run through
    the generator in even blocks of at most SAMPLE_BLOCK_ROWS rows, which
    give the rows of one pass; each block's output is cast back to float64
    and put through the inverse transform, the scale and the floor before
    the next block is generated.
    """
    if n2 < 1:
        raise GanError(f"sample count must be >= 1, got {n2}")
    z = np.random.default_rng(seed).standard_normal((n2, model.noise_dim)).astype(np.float32)
    gen = model.generator.astype(np.float32)
    tracks = np.empty((n2, model.T))
    # even blocks, no short tail: BLAS runs matmuls of a few rows on a
    # small-matrix path whose rows differ from a large matmul's in the last bit
    blocks = -(-n2 // SAMPLE_BLOCK_ROWS)
    for z_rows, rows in zip(np.array_split(z, blocks), np.array_split(tracks, blocks)):
        out = forward(gen, z_rows).astype(float)
        if model.transform is not None:
            out = model.transform.inverse(out)
        np.multiply(out, model.scale, out=rows)
        np.maximum(rows, TRACK_FLOOR_FRACTION * model.scale, out=rows)
    return tracks


def _pack_net(net: MlpParams) -> bytes:
    parts = [struct.pack("<I", len(net.weights))]
    for w, b, act in zip(net.weights, net.biases, net.activations):
        rows, cols = w.shape
        parts.append(struct.pack("<IIB", rows, cols, _ACT_TO_TAG[act]))
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(parts)


def _pack_transform(transform: WindowTransform | None) -> bytes:
    if transform is None:
        return struct.pack("<I", 0)
    arrays = (transform.mean, transform.std, transform.level_knots, transform.normal_knots)
    return struct.pack("<I", len(transform.level_knots)) + b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays
    )


def save_checkpoint(model: GanModel, path) -> None:
    body = (
        CHECKPOINT_MAGIC
        + struct.pack("<I", CHECKPOINT_VERSION)
        + _pack_net(model.generator)
        + _pack_net(model.discriminator)
        + struct.pack("<d", model.scale)
        + _pack_transform(model.transform)
    )
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise CheckpointError("truncated checkpoint")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def f64_array(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * count), dtype="<f8").astype(float)


def _unpack_net(reader: _Reader) -> MlpParams:
    layer_count = reader.u32()
    if layer_count == 0:
        raise CheckpointError("network has no layers")
    weights, biases, activations = [], [], []
    for _ in range(layer_count):
        rows, cols = reader.u32(), reader.u32()
        tag = reader.u8()
        if tag not in _TAG_TO_ACT:
            raise CheckpointError(f"unknown activation tag {tag}")
        weights.append(reader.f64_array(rows * cols).reshape(rows, cols))
        biases.append(reader.f64_array(rows))
        activations.append(_TAG_TO_ACT[tag])
    return MlpParams(weights=weights, biases=biases, activations=activations)


def load_checkpoint(path) -> GanModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    body, (crc,) = data[:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(body) != crc:
        raise CheckpointError(f"{path}: checksum failure")
    reader = _Reader(body)
    reader.take(4)  # magic
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format version {version} unsupported (expected {CHECKPOINT_VERSION})"
        )
    gen = _unpack_net(reader)
    disc = _unpack_net(reader)
    scale = reader.f64()
    T, knots = gen.layer_dims[-1], reader.u32()
    transform = None
    if knots:  # mean[T], std[T], level_knots[K], normal_knots[K]
        transform = WindowTransform(*(reader.f64_array(n) for n in (T, T, knots, knots)))
    if reader.pos != len(body):
        raise CheckpointError(f"{path}: trailing bytes in checkpoint")
    return GanModel(generator=gen, discriminator=disc, scale=scale, transform=transform)
