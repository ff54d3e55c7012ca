"""Teacher and student networks and the feature adaptor.

A network is a stack of affine layers with ReLU, an optional
batch-normalization step before the final ReLU (so features are
nonnegative), and a bias-free linear classifier; ``forward``, the training
forward, returns (features, logits) as graph tensors, and ``predict``
computes the same pair on plain arrays, in evaluation mode.
The adaptor bridges student feature width to teacher feature width so
the teacher's classifier can score adapted student features directly.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, batch_norm, linear, matmul
from .distill import MODES
from .fileio import load_arrays, save_arrays

CHECKPOINT_MAGIC = "kdlab-ckpt 1"

# Rows per forward inside ``Network.predict``.
PREDICT_CHUNK = 256


def _uniform_init(rng, fan_in, shape):
    # Fan-in scaled uniform, the same rule for weights and biases.
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Affine:
    """Dense layer y = x @ W + b with fan-in uniform initialization.

    ``relu=True`` applies ReLU to the output inside the same graph node.
    """

    def __init__(self, in_dim, out_dim, rng):
        self.weight = Tensor(_uniform_init(rng, in_dim, (in_dim, out_dim)),
                             requires_grad=True)
        self.bias = Tensor(_uniform_init(rng, in_dim, (out_dim,)), requires_grad=True)

    def __call__(self, x, relu=False):
        return linear(x, self.weight, self.bias, relu=relu)

    def parameters(self):
        return [self.weight, self.bias]

    def state_arrays(self, prefix):
        return {prefix + ".weight": self.weight.values,
                prefix + ".bias": self.bias.values}


class BatchNorm:
    """Per-feature batch normalization with running statistics.

    A call trains: it normalizes by batch statistics (gradients flow through
    them) and folds them into the running buffers with momentum 0.9.
    ``normalize`` evaluates an array by the running buffers as constants.
    """

    momentum = 0.9
    eps = 1e-5

    def __init__(self, dim):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def __call__(self, x):
        out, mu, var = batch_norm(x, self.gamma, self.beta, self.eps)
        self.running_mean = self.momentum * self.running_mean + (1.0 - self.momentum) * mu
        self.running_var = self.momentum * self.running_var + (1.0 - self.momentum) * var
        return out

    def normalize(self, h):
        """Evaluation-mode output for the rows of the array ``h``; moves no buffer."""
        return (h - self.running_mean) / np.sqrt(self.running_var + self.eps) \
            * self.gamma.values + self.beta.values

    def parameters(self):
        return [self.gamma, self.beta]

    def state_arrays(self, prefix):
        return {prefix + ".gamma": self.gamma.values,
                prefix + ".beta": self.beta.values,
                prefix + ".running_mean": self.running_mean,
                prefix + ".running_var": self.running_var}


class Classifier:
    """Bias-free linear classifier: logits = x @ W, W of shape (d, K)."""

    def __init__(self, feature_dim, classes, rng):
        if classes < 2:
            raise ValueError(f"Classifier: needs at least 2 classes, got {classes}")
        if feature_dim < 1:
            raise ValueError(f"Classifier: feature dim must be positive, got {feature_dim}")
        self.weight = Tensor(_uniform_init(rng, feature_dim, (feature_dim, classes)),
                             requires_grad=True)

    def __call__(self, x):
        return matmul(x, self.weight)

    def parameters(self):
        return [self.weight]

    def state_arrays(self, prefix="classifier"):
        return {prefix + ".weight": self.weight.values}


class Network:
    """Affine layers with ReLU, an optional feature norm, a bias-free classifier.

    The last affine layer maps to the features; a batch-normalization step
    (``arch.feature_norm``) sits before its final ReLU, so features are
    nonnegative. ``forward`` trains; ``predict`` evaluates, on arrays.
    ``freeze()`` takes every parameter out of the gradient graph for good
    and makes ``forward`` raise, so the normalization statistics never
    move again. ``make_network`` builds every network."""

    def __init__(self, input_dim, arch, classes, rng):
        dims = [int(input_dim), *[int(h) for h in arch.hidden], int(arch.feature_dim)]
        self.layers = [Affine(a, b, rng) for a, b in zip(dims, dims[1:])]
        self.norm = BatchNorm(arch.feature_dim) if arch.feature_norm else None
        self.classifier = Classifier(arch.feature_dim, classes, rng)
        self.frozen = False

    def forward(self, x):
        """(features, logits) tensors in training mode; moves the norm's buffers."""
        if self.frozen:
            raise ValueError("Network.forward: the network is frozen; use predict")
        for layer in self.layers[:-1]:
            x = layer(x, relu=True)
        x = self.layers[-1](x)
        if self.norm is not None:
            x = self.norm(x)
        features = x.relu()
        return features, self.classifier(features)

    def predict(self, x):
        """(features, logits) arrays over the rows of ``x``, in evaluation mode,
        computed on the parameters' arrays ``PREDICT_CHUNK`` rows at a time. A
        row's outputs do not depend on the rows beside it, except that a one-row
        product takes BLAS's matrix-vector path, which rounds differently; a lone
        row is doubled instead."""
        feature_dim, classes = self.classifier.weight.shape
        feats, logits = np.empty((len(x), feature_dim)), np.empty((len(x), classes))
        for start in range(0, len(x), PREDICT_CHUNK):
            rows = x[start:start + PREDICT_CHUNK]
            h = rows if len(rows) > 1 else np.repeat(rows, 2, axis=0)
            for layer in self.layers[:-1]:
                h = h @ layer.weight.values + layer.bias.values
                h = h * (h > 0.0)
            h = h @ self.layers[-1].weight.values + self.layers[-1].bias.values
            if self.norm is not None:
                h = self.norm.normalize(h)
            h = h * (h > 0.0)
            feats[start:start + len(rows)] = h[:len(rows)]
            logits[start:start + len(rows)] = (h @ self.classifier.weight.values)[:len(rows)]
        return feats, logits

    def parameters(self):
        params = [p for layer in self.layers for p in layer.parameters()]
        if self.norm is not None:
            params += self.norm.parameters()
        return params + self.classifier.parameters()

    def freeze(self):
        self.frozen = True
        for p in self.parameters():
            p.requires_grad = False
            p.grad = None

    def state_arrays(self):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.state_arrays(f"extractor.layer{i}"))
        if self.norm is not None:
            out.update(self.norm.state_arrays("extractor.norm"))
        out.update(self.classifier.state_arrays())
        return out

    def load_state(self, arrays):
        current = self.state_arrays()
        if set(current) != set(arrays):
            raise ValueError(f"Network.load_state: parameter names differ: "
                             f"{sorted(set(current) ^ set(arrays))}")
        for name, arr in current.items():
            new = np.asarray(arrays[name], dtype=np.float64)
            if new.shape != arr.shape:
                raise ValueError(
                    f"Network.load_state: shape mismatch for {name}: "
                    f"{new.shape} vs {arr.shape}")
            arr[...] = new


class Adaptor:
    """Bridge from student feature space to teacher feature space.

    A single affine map to the teacher width, per-feature batch
    normalization, then ReLU so outputs live in the teacher's nonnegative
    feature range. Only stage 2 calls it, so a call is the training forward.
    """

    def __init__(self, student_dim, teacher_dim, rng):
        self.affine = Affine(student_dim, teacher_dim, rng)
        self.norm = BatchNorm(teacher_dim)

    def __call__(self, x):
        return self.norm(self.affine(x)).relu()

    def parameters(self):
        return self.affine.parameters() + self.norm.parameters()

    def state_arrays(self, prefix="adaptor"):
        out = self.affine.state_arrays(f"{prefix}.affine")
        out.update(self.norm.state_arrays(f"{prefix}.norm"))
        return out


def parameter_count(input_dim, arch, classes):
    """Trainable parameters of the network ``make_network`` builds from ``arch``.

    The capacity rule: a teacher must count at least as many as its student.
    """
    dims = [input_dim, *arch.hidden, arch.feature_dim]
    n = sum(a * b + b for a, b in zip(dims, dims[1:]))
    if arch.feature_norm:
        n += 2 * arch.feature_dim
    return n + arch.feature_dim * classes


def make_network(input_dim, arch, classes, seed):
    """Build one network from an ``Arch`` description, deterministically."""
    return Network(input_dim, arch, classes,
                   np.random.default_rng(np.random.SeedSequence(seed)))


def _part_seeds(seed):
    """Teacher, student and adaptor seeds of one trial seed, from independent
    streams, so changing the student architecture never perturbs the teacher."""
    return [s.generate_state(1)[0] for s in np.random.SeedSequence(seed).spawn(3)]


def build_teacher(cfg, seed):
    """The trial seed's teacher at its initialization, trainable: stage 1
    trains it and ``harness.get_teacher`` freezes it."""
    t_seed = _part_seeds(seed)[0]
    return make_network(cfg.dataset.input_dim, cfg.teacher, cfg.dataset.classes, t_seed)


def build_student(cfg, seed):
    """The trial seed's (student, adaptor), which stage 2 trains; the adaptor
    is None unless the mode's terms include srd, the one term that reads it.
    The config has already checked the capacity rule."""
    _, s_seed, a_seed = _part_seeds(seed)
    student = make_network(cfg.dataset.input_dim, cfg.student, cfg.dataset.classes, s_seed)
    if "srd" not in MODES[cfg.run.mode]:
        return student, None
    rng = np.random.default_rng(np.random.SeedSequence(a_seed))
    return student, Adaptor(cfg.student.feature_dim, cfg.teacher.feature_dim, rng)


def save_checkpoint(path, named_arrays):
    """Write named float64 arrays: text header, then raw little-endian data.

    Header lines are the magic string, one ``name dim0 dim1 ...`` line per
    array in sorted-name order, and a lone ``data`` line; the payload is
    each array's bytes in header order (``fileio.save_arrays``).
    Round-trips bit-exactly, and ``path`` never holds a partial checkpoint.
    """
    save_arrays(path, CHECKPOINT_MAGIC,
                [(name, named_arrays[name]) for name in sorted(named_arrays)])


def load_checkpoint(path):
    """Read a checkpoint back into a dict of float64 arrays.

    Every byte is checked (``fileio.load_arrays``): a repeated name, a bad
    dimension, a missing ``data`` line or a payload of the wrong length
    raises ``ValueError`` naming the path and the array.
    """
    return load_arrays(path, CHECKPOINT_MAGIC, "load_checkpoint")
