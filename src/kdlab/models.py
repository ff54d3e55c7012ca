"""Teacher and student networks: extractor, classifier, feature adaptor.

A network is a multilayer perceptron feature extractor plus a bias-free
linear classifier; ``forward`` returns the pair (features, logits).
The adaptor bridges student feature width to teacher feature width so
the teacher's classifier can score adapted student features directly.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor, batch_norm, linear, matmul, no_grad
from .fileio import load_arrays, save_arrays

CHECKPOINT_MAGIC = "kdlab-ckpt 1"


def _uniform_init(rng, fan_in, shape):
    # Fan-in scaled uniform, the same rule for weights and biases.
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Affine:
    """Dense layer y = x @ W + b with fan-in uniform initialization.

    ``relu=True`` applies ReLU to the output inside the same graph node.
    """

    def __init__(self, in_dim, out_dim, rng, trainable=True):
        self.weight = Tensor(_uniform_init(rng, in_dim, (in_dim, out_dim)),
                             requires_grad=trainable)
        self.bias = Tensor(_uniform_init(rng, in_dim, (out_dim,)),
                           requires_grad=trainable)

    def __call__(self, x, relu=False):
        return linear(x, self.weight, self.bias, relu=relu)

    def parameters(self):
        return [self.weight, self.bias]

    def state_arrays(self, prefix):
        return {prefix + ".weight": self.weight.values,
                prefix + ".bias": self.bias.values}


class BatchNorm:
    """Per-feature batch normalization with running statistics.

    Training mode normalizes by batch statistics (gradients flow through
    them) and folds the batch estimates into the running buffers with
    momentum 0.9. Evaluation mode normalizes by the running buffers as
    constants, so frozen networks are pure per-sample functions.
    """

    momentum = 0.9
    eps = 1e-5

    def __init__(self, dim, trainable=True):
        self.gamma = Tensor(np.ones(dim), requires_grad=trainable)
        self.beta = Tensor(np.zeros(dim), requires_grad=trainable)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def __call__(self, x, train):
        if train:
            out, mu, var = batch_norm(x, self.gamma, self.beta, self.eps)
            self.running_mean = self.momentum * self.running_mean \
                + (1.0 - self.momentum) * mu
            self.running_var = self.momentum * self.running_var \
                + (1.0 - self.momentum) * var
            return out
        centered = x - self.running_mean
        normed = centered / np.sqrt(self.running_var + self.eps)
        return normed * self.gamma + self.beta

    def parameters(self):
        return [self.gamma, self.beta]

    def state_arrays(self, prefix):
        return {prefix + ".gamma": self.gamma.values,
                prefix + ".beta": self.beta.values,
                prefix + ".running_mean": self.running_mean,
                prefix + ".running_var": self.running_var}


class FeatureExtractor:
    """Stack of affine layers with ReLU, ending in the feature map.

    The final activation is also ReLU, so features are nonnegative; when
    ``feature_norm`` is set a batch-normalization step runs between the
    last affine layer and that activation.
    """

    def __init__(self, input_dim, hidden, feature_dim, rng,
                 feature_norm=False, trainable=True):
        dims = [int(input_dim), *[int(h) for h in hidden], int(feature_dim)]
        self.layers = [Affine(a, b, rng, trainable) for a, b in zip(dims, dims[1:])]
        self.norm = BatchNorm(feature_dim, trainable) if feature_norm else None

    def __call__(self, x, train=False):
        for layer in self.layers[:-1]:
            x = layer(x, relu=True)
        x = self.layers[-1](x)
        if self.norm is not None:
            x = self.norm(x, train)
        return x.relu()

    def parameters(self):
        params = [p for layer in self.layers for p in layer.parameters()]
        if self.norm is not None:
            params += self.norm.parameters()
        return params

    def state_arrays(self, prefix="extractor"):
        out = {}
        for i, layer in enumerate(self.layers):
            out.update(layer.state_arrays(f"{prefix}.layer{i}"))
        if self.norm is not None:
            out.update(self.norm.state_arrays(f"{prefix}.norm"))
        return out


class Classifier:
    """Bias-free linear classifier: logits = x @ W, W of shape (d, K)."""

    def __init__(self, feature_dim, classes, rng, trainable=True):
        if classes < 2:
            raise ValueError(f"Classifier: needs at least 2 classes, got {classes}")
        if feature_dim < 1:
            raise ValueError(f"Classifier: feature dim must be positive, got {feature_dim}")
        self.weight = Tensor(_uniform_init(rng, feature_dim, (feature_dim, classes)),
                             requires_grad=trainable)

    def __call__(self, x):
        return matmul(x, self.weight)

    def parameters(self):
        return [self.weight]

    def state_arrays(self, prefix="classifier"):
        return {prefix + ".weight": self.weight.values}


class Network:
    """Feature extractor plus classifier with a shared frozen flag.

    Frozen networks build no gradient-requiring graph nodes and keep
    their normalization statistics fixed, so their forward pass is a
    deterministic per-sample function.
    """

    def __init__(self, extractor, classifier, frozen=False):
        self.extractor = extractor
        self.classifier = classifier
        self.frozen = False
        if frozen:
            self.set_frozen(True)

    def forward(self, x, train=False):
        x = x if isinstance(x, Tensor) else Tensor(x)
        if self.frozen:
            with no_grad():
                features = self.extractor(x, train=False)
                logits = self.classifier(features)
        else:
            features = self.extractor(x, train=train)
            logits = self.classifier(features)
        return features, logits

    def parameters(self):
        return self.extractor.parameters() + self.classifier.parameters()

    def set_frozen(self, flag):
        self.frozen = bool(flag)
        for p in self.parameters():
            p.requires_grad = not self.frozen
            p.grad = None if self.frozen else np.zeros_like(p.values)

    def state_arrays(self):
        out = self.extractor.state_arrays("extractor")
        out.update(self.classifier.state_arrays("classifier"))
        return out

    def load_state(self, arrays):
        _load_into(self.state_arrays(), arrays, "Network")


class Adaptor:
    """Bridge from student feature space to teacher feature space.

    A single affine map to the teacher width, optional per-feature batch
    normalization, then ReLU so outputs live in the teacher's nonnegative
    feature range.
    """

    def __init__(self, student_dim, teacher_dim, rng, normalize=True):
        self.affine = Affine(student_dim, teacher_dim, rng)
        self.norm = BatchNorm(teacher_dim) if normalize else None

    def __call__(self, x, train=False):
        x = self.affine(x)
        if self.norm is not None:
            x = self.norm(x, train)
        return x.relu()

    def parameters(self):
        params = self.affine.parameters()
        if self.norm is not None:
            params += self.norm.parameters()
        return params

    def state_arrays(self, prefix="adaptor"):
        out = self.affine.state_arrays(f"{prefix}.affine")
        if self.norm is not None:
            out.update(self.norm.state_arrays(f"{prefix}.norm"))
        return out

    def load_state(self, arrays):
        _load_into(self.state_arrays(), arrays, "Adaptor")


def parameter_count(input_dim, arch, classes):
    """Trainable parameters of the network ``make_network`` builds from ``arch``.

    The capacity rule: a teacher must count at least as many as its student.
    """
    dims = [input_dim, *arch.hidden, arch.feature_dim]
    n = sum(a * b + b for a, b in zip(dims, dims[1:]))
    if arch.feature_norm:
        n += 2 * arch.feature_dim
    return n + arch.feature_dim * classes


def make_network(input_dim, arch, classes, seed, frozen=False):
    """Build one network from an ``Arch`` description, deterministically."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    extractor = FeatureExtractor(input_dim, arch.hidden, arch.feature_dim, rng,
                                 feature_norm=arch.feature_norm)
    classifier = Classifier(arch.feature_dim, classes, rng)
    return Network(extractor, classifier, frozen=frozen)


def build_pair(cfg, seed):
    """Teacher, student and adaptor for one trial seed.

    The three parts draw from independent seed streams, so changing the
    student architecture never perturbs the teacher's initialization.
    The teacher comes back trainable (stage 1 trains it); freezing is
    the pretraining stage's job. The config has already checked the
    capacity rule.
    """
    input_dim = cfg.dataset.input_dim
    classes = cfg.dataset.classes
    t_seed, s_seed, a_seed = [s.generate_state(1)[0]
                              for s in np.random.SeedSequence(seed).spawn(3)]
    teacher = make_network(input_dim, cfg.teacher, classes, t_seed)
    student = make_network(input_dim, cfg.student, classes, s_seed)
    rng = np.random.default_rng(np.random.SeedSequence(a_seed))
    adaptor = Adaptor(cfg.student.feature_dim, cfg.teacher.feature_dim, rng)
    return teacher, student, adaptor


def _load_into(current, incoming, label):
    if set(current) != set(incoming):
        missing = sorted(set(current) ^ set(incoming))
        raise ValueError(f"{label}.load_state: parameter names differ: {missing}")
    for name, arr in current.items():
        new = np.asarray(incoming[name], dtype=np.float64)
        if new.shape != arr.shape:
            raise ValueError(
                f"{label}.load_state: shape mismatch for {name}: "
                f"{new.shape} vs {arr.shape}")
        arr[...] = new


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
    return load_arrays(path, CHECKPOINT_MAGIC, "load_checkpoint")[1]
