"""Synthetic open-set pools: Gaussian-mixture classes in a shared space.

Each class is a mixture of Gaussian components. A dataset carries three
pools: a labeled pool and a test set drawn from the K seen classes, and
an unlabeled pool mixing a subset of the seen classes with additional
unseen classes. Class tags and in-distribution flags for the unlabeled
pool are hidden from training code; evaluation paths read them through
``UnlabeledPool.eval_view``.

Everything is a pure function of the parameter set, including the seed,
so every command regenerates the same dataset bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .autograd import softmax_values
from .fileio import atomic_open

PLACEMENTS = ("mixed", "near", "far")


class SettingError(ValueError):
    """A parameter out of range; ``key`` names the field at fault."""

    def __init__(self, key, message):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}")


@dataclasses.dataclass(frozen=True)
class DatasetParams:
    """Generator knobs; defaults are the standard benchmark preset.

    Construction checks every field and raises ``SettingError`` naming
    the first one out of range.
    """

    seed: int = 0
    input_dim: int = 32
    classes: int = 8
    unseen_classes: int = 16
    overlap: float = 0.1
    labeled_per_class: int = 100
    unlabeled_per_class: int = 120
    test_per_class: int = 150
    components_per_class: int = 4
    class_separation: float = 1.0
    noise: float = 1.0
    unseen_placement: str = "mixed"

    def __post_init__(self):
        if self.seed < 0:
            raise SettingError("seed", "must be nonnegative")
        if self.classes < 2:
            raise SettingError("classes", "needs at least 2 seen classes")
        if self.unseen_classes < 0:
            raise SettingError("unseen_classes", "must be nonnegative")
        if not 0.0 <= self.overlap <= 1.0:
            raise SettingError("overlap", f"must lie in [0, 1], got {self.overlap}")
        if self.unseen_placement not in PLACEMENTS:
            raise SettingError("unseen_placement",
                               f"must be one of {', '.join(PLACEMENTS)}")
        for key in ("input_dim", "labeled_per_class", "test_per_class",
                    "components_per_class"):
            if getattr(self, key) < 1:
                raise SettingError(key, "must be positive")
        if self.unlabeled_per_class < 0:
            raise SettingError("unlabeled_per_class", "must be nonnegative")
        seen_in_pool = round(self.overlap * self.classes)
        if seen_in_pool > 0 and self.unlabeled_per_class == 0:
            raise SettingError(
                "unlabeled_per_class",
                f"overlap {self.overlap} asks for {seen_in_pool} seen classes "
                "in an unlabeled pool of size 0")


class UnlabeledPool:
    """Inputs plus hidden provenance for the unlabeled pool.

    Training code sees ``inputs`` only. ``eval_view`` exposes the true
    class tags and in-distribution flags and is reserved for evaluation
    and reporting paths.
    """

    def __init__(self, inputs, class_tags, ind_flags):
        self.inputs = inputs
        self._class_tags = class_tags
        self._ind_flags = ind_flags

    def __len__(self):
        return len(self.inputs)

    def eval_view(self):
        """(class tags, in-distribution flags); evaluation-only access."""
        return self._class_tags, self._ind_flags


@dataclasses.dataclass
class OpenSetDataset:
    params: DatasetParams
    labeled_x: np.ndarray
    labeled_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    unlabeled: UnlabeledPool


def _sample_class(rng, centers, count, noise, dim):
    comp = rng.integers(0, len(centers), size=count)
    return centers[comp] + noise * rng.standard_normal((count, dim))


def _unit_vectors(rng, count, dim):
    v = rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def generate(params: DatasetParams) -> OpenSetDataset:
    """Draw a full open-set dataset from the parameter set.

    Seen-class components sit at independent Gaussian positions. Unseen
    components anchor to randomly chosen seen components: "near" ones at
    1 to 4 noise units (overlapping seen support), "far" ones at 8 to 14
    (well separated), and the default "mixed" placement alternates the
    two so the pool contains both hard and easy out-of-distribution
    samples. The unlabeled pool draws from round(overlap * K) seen
    classes plus every unseen class, with the same per-class count.
    """
    p = params
    seen_rng, unseen_rng, lab_rng, test_rng, pool_rng = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(p.seed).spawn(5)]

    m = p.components_per_class
    seen_centers = p.class_separation * seen_rng.standard_normal(
        (p.classes, m, p.input_dim))

    labeled_parts, labeled_tags = [], []
    test_parts, test_tags = [], []
    for k in range(p.classes):
        labeled_parts.append(_sample_class(lab_rng, seen_centers[k],
                                           p.labeled_per_class, p.noise, p.input_dim))
        labeled_tags.append(np.full(p.labeled_per_class, k))
        test_parts.append(_sample_class(test_rng, seen_centers[k],
                                        p.test_per_class, p.noise, p.input_dim))
        test_tags.append(np.full(p.test_per_class, k))

    # Unseen components anchor to seen ones at controlled distances.
    unseen_centers = np.zeros((p.unseen_classes, m, p.input_dim))
    flat_seen = seen_centers.reshape(-1, p.input_dim)
    for j in range(p.unseen_classes):
        if p.unseen_placement == "near":
            close = np.ones(m, dtype=bool)
        elif p.unseen_placement == "far":
            close = np.zeros(m, dtype=bool)
        else:
            close = (np.arange(m) + j) % 2 == 0
        anchors = flat_seen[unseen_rng.integers(0, len(flat_seen), size=m)]
        lo = np.where(close, 1.0, 8.0)
        hi = np.where(close, 4.0, 14.0)
        dist = p.noise * unseen_rng.uniform(lo, hi)
        unseen_centers[j] = anchors + dist[:, None] * _unit_vectors(
            unseen_rng, m, p.input_dim)

    seen_in_pool = round(p.overlap * p.classes)
    pool_classes = list(pool_rng.permutation(p.classes)[:seen_in_pool])
    pool_classes += [p.classes + j for j in range(p.unseen_classes)]

    pool_parts, pool_tags = [], []
    for tag in pool_classes:
        centers = seen_centers[tag] if tag < p.classes else unseen_centers[tag - p.classes]
        pool_parts.append(_sample_class(pool_rng, centers,
                                        p.unlabeled_per_class, p.noise, p.input_dim))
        pool_tags.append(np.full(p.unlabeled_per_class, tag))

    if pool_parts:
        pool_x = np.concatenate(pool_parts)
        pool_tag = np.concatenate(pool_tags)
    else:
        pool_x = np.zeros((0, p.input_dim))
        pool_tag = np.zeros(0, dtype=np.int64)
    pool = UnlabeledPool(pool_x, pool_tag, pool_tag < p.classes)

    return OpenSetDataset(
        params=p,
        labeled_x=np.concatenate(labeled_parts),
        labeled_y=np.concatenate(labeled_tags),
        test_x=np.concatenate(test_parts),
        test_y=np.concatenate(test_tags),
        unlabeled=pool)


def one_hot(labels, classes):
    out = np.zeros((len(labels), classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def augment(x, strength, rng):
    """One stochastic view of ``x``: sign-masked additive Gaussian jitter.

    Each coordinate receives Gaussian noise of scale ``strength`` through
    a random sign mask, so the view distribution is centered on ``x``;
    strength 0 is the identity.
    """
    x = np.asarray(x, dtype=np.float64)
    mask = rng.integers(0, 2, size=x.shape) * 2.0 - 1.0
    jitter = rng.normal(0.0, 1.0, size=x.shape) * float(strength)
    return x + mask * jitter


def select_unlabeled(pool: UnlabeledPool, fraction, policy, logits=None, seed=0):
    """Sorted pool indices of a deterministic sub-pool of the given fraction.

    ``random`` draws uniformly without replacement; ``teacher_score``
    keeps the rows the teacher is most confident about (largest max
    softmax probability over ``logits``, the teacher's logits on the
    pool's rows), ties broken by pool index. Fraction 1.0 keeps the whole
    pool under either policy.
    """
    if len(pool) == 0:
        raise ValueError("select_unlabeled: pool is empty")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"select_unlabeled: fraction must lie in (0, 1], got {fraction}")
    n = len(pool)
    keep = max(1, round(fraction * n))
    if keep >= n:
        return np.arange(n)
    if policy == "random":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11]))
        return np.sort(rng.choice(n, size=keep, replace=False))
    if policy == "teacher_score":
        if logits is None:
            raise ValueError("select_unlabeled: teacher_score policy needs the teacher's logits")
        conf = softmax_values(logits).max(axis=1)
        # Stable sort on negated confidence: ties keep pool order.
        order = np.argsort(-conf, kind="stable")
        return np.sort(order[:keep])
    raise ValueError(f"select_unlabeled: unknown policy {policy!r}")


class BatchSampler:
    """Epoch-wise batch stream over a labeled pool and an unlabeled pool.

    Every epoch visits each labeled sample exactly once, in a fresh
    shuffled order. Unlabeled samples cycle without replacement inside
    the epoch, reshuffling whenever the pool is exhausted. The batch
    sequence is a pure function of (sampler seed, epoch index), so runs
    replay exactly.
    """

    def __init__(self, batch_size, unlabeled_batch_size, seed):
        if batch_size < 1:
            raise ValueError("BatchSampler: batch_size must be positive")
        self.batch_size = int(batch_size)
        self.unlabeled_batch_size = int(unlabeled_batch_size)
        self.seed = int(seed)

    def epoch_length(self, labeled_count):
        return int(np.ceil(labeled_count / self.batch_size))

    def epoch_batches(self, n_labeled, n_unlabeled, epoch):
        """Per step, ``(rows, u_idx)``: labeled and unlabeled row indices."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, epoch]))
        order = rng.permutation(n_labeled)
        cycle = rng.permutation(n_unlabeled) if n_unlabeled else None
        cursor = 0
        for start in range(0, n_labeled, self.batch_size):
            take = [np.zeros(0, dtype=np.int64)]
            need = self.unlabeled_batch_size if n_unlabeled else 0
            while need > 0:
                if cursor == n_unlabeled:
                    cycle = rng.permutation(n_unlabeled)
                    cursor = 0
                grab = min(need, n_unlabeled - cursor)
                take.append(cycle[cursor:cursor + grab])
                cursor += grab
                need -= grab
            yield order[start:start + self.batch_size], np.concatenate(take)


def export_csv(ds: OpenSetDataset, out_dir):
    """Plain CSV copies of the pools for external plotting.

    ``unlabeled.csv`` carries inputs only; the hidden provenance goes to
    ``unlabeled_eval.csv`` for evaluation-side tooling.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    feat_cols = [f"x{i}" for i in range(ds.params.input_dim)]
    tags, flags = ds.unlabeled.eval_view()
    tables = (("labeled", ds.labeled_x, {"label": ds.labeled_y}),
              ("test", ds.test_x, {"label": ds.test_y}),
              ("unlabeled", ds.unlabeled.inputs, {}),
              ("unlabeled_eval", ds.unlabeled.inputs,
               {"hidden_class": tags, "is_ind": flags.astype(int)}))
    for name, xs, extras in tables:
        with atomic_open(os.path.join(out_dir, f"{name}.csv"), "w") as fh:
            fh.write(",".join(feat_cols + list(extras)) + "\n")
            for i in range(len(xs)):
                cells = [f"{v:.17g}" for v in xs[i]] + [str(e[i]) for e in extras.values()]
                fh.write(",".join(cells) + "\n")
