"""Network construction, forward composition, freezing, checkpoints."""

import dataclasses

import numpy as np
import pytest

from helpers import (composed_cosine_loss, composed_cross_entropy,
                     composed_logistic_loss, composed_mean, composed_row_distance)
from kdlab.autograd import (LAST_BACKWARD_STATS, ShapeError, Tensor, backward,
                            batch_norm, div, linear, matmul, mul, slice_rows, softmax,
                            softmax_cross_entropy, softmax_values, sqrt, sub, tensor_sum)
from kdlab.baselines import OodDetector, stage2_loss
from kdlab.config import ArchParams, parse_config
from kdlab.data import one_hot
from kdlab.distill import MODES
from kdlab.models import (Adaptor, Affine, BatchNorm, CHECKPOINT_MAGIC,
                          Classifier, Network, build_student, build_teacher,
                          load_checkpoint, make_network, parameter_count,
                          save_checkpoint)
from kdlab.optim import Sgd


def _manual_forward(net, x):
    """Replay the layers, norm and classifier in plain numpy, eval mode."""
    h = x
    for layer in net.layers[:-1]:
        h = np.maximum(h @ layer.weight.values + layer.bias.values, 0.0)
    last = net.layers[-1]
    h = h @ last.weight.values + last.bias.values
    bn = net.norm
    if bn is not None:
        h = (h - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        h = h * bn.gamma.values + bn.beta.values
    feats = np.maximum(h, 0.0)
    return feats, feats @ net.classifier.weight.values


def test_predict_matches_manual_composition():
    rng = np.random.default_rng(3)
    tol = 1e-12
    for feature_norm in (False, True):
        arch = ArchParams(hidden=(7, 5), feature_dim=4,
                          feature_norm=feature_norm)
        net = make_network(6, arch, classes=3, seed=11)
        x = rng.standard_normal((9, 6))
        feats, logits = net.predict(x)
        ref_f, ref_z = _manual_forward(net, x)
        assert np.max(np.abs(feats - ref_f)) < tol
        assert np.max(np.abs(logits - ref_z)) < tol
        assert np.min(feats) >= 0.0


def test_classifier_is_bias_free():
    clf = Classifier(4, 3, np.random.default_rng(0))
    assert len(clf.parameters()) == 1
    z = clf(Tensor(np.zeros((2, 4)))).values
    assert np.max(np.abs(z)) == 0.0


def test_batchnorm_train_mode_normalizes_batch():
    rng = np.random.default_rng(5)
    bn = BatchNorm(6)
    x = rng.standard_normal((64, 6)) * 3.0 + 2.0
    out = bn(Tensor(x)).values
    assert np.max(np.abs(out.mean(axis=0))) < 1e-10
    assert np.max(np.abs(out.std(axis=0) - 1.0)) < 1e-3


def test_batchnorm_running_stats_follow_momentum_recurrence():
    """Two training batches; replay the momentum-0.9 buffer updates."""
    rng = np.random.default_rng(7)
    bn = BatchNorm(3)
    mean_ref = np.zeros(3)
    var_ref = np.ones(3)
    for _ in range(2):
        x = rng.standard_normal((32, 3)) * 1.7 - 0.4
        bn(Tensor(x))
        mean_ref = 0.9 * mean_ref + 0.1 * x.mean(axis=0)
        var_ref = 0.9 * var_ref + 0.1 * x.var(axis=0)
    assert np.max(np.abs(bn.running_mean - mean_ref)) < 1e-12
    assert np.max(np.abs(bn.running_var - var_ref)) < 1e-12
    # eval mode consumes the buffers as constants
    x = rng.standard_normal((5, 3))
    out = bn.normalize(x)
    ref = (x - mean_ref) / np.sqrt(var_ref + bn.eps)
    assert np.max(np.abs(out - ref)) < 1e-12


def test_affine_init_depends_only_on_rng_stream():
    a = Affine(4, 3, np.random.default_rng(9))
    b = Affine(4, 3, np.random.default_rng(9))
    assert np.array_equal(a.weight.values, b.weight.values)
    assert np.array_equal(a.bias.values, b.bias.values)


# checkpoints
# -----------

def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    arch = ArchParams(hidden=(10, 6), feature_dim=5, feature_norm=True)
    net = make_network(8, arch, classes=4, seed=21)
    net.forward(np.random.default_rng(0).standard_normal((16, 8)))
    state = net.state_arrays()
    path = tmp_path / "net.ckpt"
    save_checkpoint(str(path), state)
    loaded = load_checkpoint(str(path))
    assert sorted(loaded) == sorted(state)
    for name in state:
        assert np.array_equal(loaded[name], state[name]), name
    with open(path, "rb") as fh:
        assert fh.readline().decode().strip() == CHECKPOINT_MAGIC


# Checkpoints and the teacher cache store arrays under these names; a model
# refactor that renames one breaks every cached teacher and saved student.
PRESET_STATE = {
    "teacher": [("extractor.layer0.weight", (32, 256)), ("extractor.layer0.bias", (256,)),
                ("extractor.layer1.weight", (256, 256)), ("extractor.layer1.bias", (256,)),
                ("extractor.layer2.weight", (256, 64)), ("extractor.layer2.bias", (64,)),
                ("extractor.norm.gamma", (64,)), ("extractor.norm.beta", (64,)),
                ("extractor.norm.running_mean", (64,)), ("extractor.norm.running_var", (64,)),
                ("classifier.weight", (64, 8))],
    "student": [("extractor.layer0.weight", (32, 32)), ("extractor.layer0.bias", (32,)),
                ("extractor.layer1.weight", (32, 32)), ("extractor.layer1.bias", (32,)),
                ("extractor.layer2.weight", (32, 16)), ("extractor.layer2.bias", (16,)),
                ("extractor.norm.gamma", (16,)), ("extractor.norm.beta", (16,)),
                ("extractor.norm.running_mean", (16,)), ("extractor.norm.running_var", (16,)),
                ("classifier.weight", (16, 8))],
    "adaptor": [("adaptor.affine.weight", (16, 64)), ("adaptor.affine.bias", (64,)),
                ("adaptor.norm.gamma", (64,)), ("adaptor.norm.beta", (64,)),
                ("adaptor.norm.running_mean", (64,)), ("adaptor.norm.running_var", (64,))],
}


def test_preset_state_arrays_keep_their_names_and_shapes():
    """Pinned without an environment check, unlike the digest tables."""
    _, nets = _preset_nets()
    for role, net in zip(("teacher", "student", "adaptor"), nets):
        got = [(name, arr.shape) for name, arr in net.state_arrays().items()]
        assert got == PRESET_STATE[role], role


def test_checkpoint_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"some-other-format 9\ndata\n")
    with pytest.raises(ValueError):
        load_checkpoint(str(path))


def _small_checkpoint(tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(str(path), {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)})
    return path


def test_checkpoint_rejects_a_short_payload(tmp_path):
    path = _small_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match=r"net\.ckpt.*payload ends inside array 'b'"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = _small_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match=r"net\.ckpt.*8 trailing bytes after array 'b'"):
        load_checkpoint(str(path))


def _edit_checkpoint(path, old, new):
    head, sep, payload = path.read_bytes().partition(b"\ndata\n")
    assert old.encode() in head
    path.write_bytes(head.replace(old.encode(), new.encode()) + sep + payload)


def test_checkpoint_rejects_a_repeated_name(tmp_path):
    path = _small_checkpoint(tmp_path)
    _edit_checkpoint(path, "\nb 4", "\na 4")
    with pytest.raises(ValueError, match=r"net\.ckpt.*array 'a' appears twice"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_a_bad_dimension(tmp_path):
    for dims in ("x", "-4", "4.0"):
        path = _small_checkpoint(tmp_path)
        _edit_checkpoint(path, "\nb 4", f"\nb {dims}")
        with pytest.raises(ValueError, match=rf"net\.ckpt.*bad value for array 'b': '{dims}'"):
            load_checkpoint(str(path))


def test_checkpoint_rejects_a_shape_whose_element_count_overflows_int64(tmp_path):
    path = _small_checkpoint(tmp_path)
    # 2**62 * 4 wraps to 0 in int64; the true count far exceeds the payload.
    _edit_checkpoint(path, "\nb 4", "\nb 4611686018427387904 4")
    with pytest.raises(ValueError, match=r"net\.ckpt.*payload ends inside array 'b'"):
        load_checkpoint(str(path))


def test_checkpoint_rejects_a_missing_data_line(tmp_path):
    path = _small_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"\ndata\n", b"\n", 1))
    with pytest.raises(ValueError, match=r"net\.ckpt.*no 'data' line"):
        load_checkpoint(str(path))


def test_checkpoint_write_that_fails_midway_leaves_no_file(tmp_path):
    path = tmp_path / "teacher.ckpt"
    # "z" sorts last, so the header and "a" are written before it fails.
    broken = {"a": np.ones(3), "z": np.array(["not a number"], dtype=object)}
    with pytest.raises(ValueError):
        save_checkpoint(str(path), broken)
    assert list(tmp_path.iterdir()) == []
    # an existing checkpoint survives a failed overwrite untouched
    save_checkpoint(str(path), {"a": np.ones(3)})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_checkpoint(str(path), broken)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_load_state_restores_forward_exactly(tmp_path):
    arch = ArchParams(hidden=(6,), feature_dim=4, feature_norm=True)
    src = make_network(5, arch, classes=3, seed=1)
    rng = np.random.default_rng(2)
    src.forward(rng.standard_normal((12, 5)))
    path = tmp_path / "src.ckpt"
    save_checkpoint(str(path), src.state_arrays())

    dst = make_network(5, arch, classes=3, seed=999)
    dst.load_state(load_checkpoint(str(path)))
    x = rng.standard_normal((7, 5))
    assert all(map(np.array_equal, src.predict(x), dst.predict(x)))


def test_load_state_after_sgd_construction_reaches_the_next_step():
    arch = ArchParams(hidden=(6,), feature_dim=4, feature_norm=True)
    net = make_network(5, arch, classes=3, seed=1)
    opt = Sgd(net.parameters(), lr=0.5)
    loaded = make_network(5, arch, classes=3, seed=7)
    net.load_state(loaded.state_arrays())
    rng = np.random.default_rng(3)
    grads = [rng.standard_normal(p.shape) for p in net.parameters()]
    for p, g in zip(net.parameters(), grads):
        p.grad[...] = g
    opt.step()
    for p, q, g in zip(net.parameters(), loaded.parameters(), grads):
        assert np.array_equal(p.values, q.values - 0.5 * g)


# freezing
# --------

def test_frozen_network_is_constant_and_gradient_free():
    arch = ArchParams(hidden=(8,), feature_dim=4, feature_norm=True)
    net = make_network(6, arch, classes=3, seed=13)
    rng = np.random.default_rng(4)
    net.forward(rng.standard_normal((10, 6)))
    net.freeze()

    for p in net.parameters():
        assert not p.requires_grad
        assert p.grad is None

    x = rng.standard_normal((5, 6))
    first = net.predict(x)
    assert all(map(np.array_equal, first, net.predict(x)))
    # the training forward would move the buffers of a frozen net
    with pytest.raises(ValueError, match="use predict"):
        net.forward(x)


def test_predict_builds_no_tensor_and_moves_no_buffer(monkeypatch):
    """Standard-preset teacher, frozen, and student: batches and a lone row."""
    cfg, (teacher, student, _) = _preset_nets()
    x = np.random.default_rng(61).standard_normal((300, cfg.dataset.input_dim))
    student.forward(x[:96])  # move the student's buffers off their initial values
    teacher.freeze()
    norms = (teacher.norm, student.norm)
    buffers = [(bn.running_mean.copy(), bn.running_var.copy()) for bn in norms]
    made, init = [], Tensor.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counted)
    for net in (teacher, student):
        for rows in (x, x[:1]):
            net.predict(rows)
    assert made == []
    for bn, (mean, var) in zip(norms, buffers):
        assert np.array_equal(bn.running_mean, mean) and np.array_equal(bn.running_var, var)
    student.forward(x[:4])  # the spy does see the training forward's tensors
    assert made
    monkeypatch.undo()
    with pytest.raises(ValueError, match=r"Network\.forward.*predict"):
        teacher.forward(x[:4])


def test_sgd_refuses_a_network_refrozen_after_construction():
    """Freezing unsets every grad; a rebound grad is as foreign to ``Sgd``."""
    arch = ArchParams(hidden=(8,), feature_dim=4, feature_norm=False)
    for change in ("freeze", "rebind"):
        net = make_network(6, arch, classes=3, seed=17)
        opt = Sgd(net.parameters(), lr=0.1)
        if change == "freeze":
            net.freeze()
        else:
            p = net.parameters()[0]
            p.grad = np.zeros_like(p.values)
        with pytest.raises(ValueError, match="no gradient buffer"):
            opt.step()


def test_unfrozen_network_backpropagates():
    arch = ArchParams(hidden=(8,), feature_dim=4, feature_norm=False)
    net = make_network(6, arch, classes=3, seed=17)
    _, logits = net.forward(np.random.default_rng(5).standard_normal((4, 6)))
    backward(tensor_sum(logits))
    grads = [np.max(np.abs(p.grad)) for p in net.parameters()]
    assert max(grads) > 0.0


# building a trial's networks
# ----------------------------

def _pair_cfg(student_hidden):
    return parse_config(f"""
[dataset]
input_dim = 8
classes = 4
[teacher]
hidden = 32,32
feature_dim = 16
[student]
hidden = {student_hidden}
feature_dim = 4
""")


def test_build_teacher_ignores_student_architecture():
    """Same seed, different student width: the teacher must not move."""
    narrow, wide = _pair_cfg("8,8"), _pair_cfg("12,12")
    t1, t2 = build_teacher(narrow, seed=3), build_teacher(wide, seed=3)
    (s1, _), (s2, _) = build_student(narrow, seed=3), build_student(wide, seed=3)
    a = t1.state_arrays()
    b = t2.state_arrays()
    for name in a:
        assert np.array_equal(a[name], b[name]), name
    assert s1.layers[0].weight.values.shape != s2.layers[0].weight.values.shape


def test_build_teacher_and_build_student_seed_changes_everything():
    cfg = _pair_cfg("8,8")
    t1, (s1, a1) = build_teacher(cfg, seed=0), build_student(cfg, seed=0)
    t2, (s2, a2) = build_teacher(cfg, seed=1), build_student(cfg, seed=1)
    assert not np.array_equal(t1.classifier.weight.values,
                              t2.classifier.weight.values)
    assert not np.array_equal(s1.classifier.weight.values,
                              s2.classifier.weight.values)
    assert not np.array_equal(a1.affine.weight.values,
                              a2.affine.weight.values)


def test_builders_draw_the_trial_seeds_three_streams_in_order():
    """Teacher, student and adaptor start from ``SeedSequence(seed).spawn(3)``
    in that order, which the pinned teacher caches and checkpoints depend on."""
    cfg = _pair_cfg("8,8")
    t_seed, s_seed, a_seed = [s.generate_state(1)[0]
                              for s in np.random.SeedSequence(5).spawn(3)]
    built = (build_teacher(cfg, seed=5), *build_student(cfg, seed=5))
    expected = (make_network(8, cfg.teacher, 4, t_seed),
                make_network(8, cfg.student, 4, s_seed),
                Adaptor(4, 16, np.random.default_rng(np.random.SeedSequence(a_seed))))
    for got, want in zip(built, expected, strict=True):
        state_got, state_want = got.state_arrays(), want.state_arrays()
        assert state_got.keys() == state_want.keys()
        for name in state_got:
            assert np.array_equal(state_got[name], state_want[name]), name


def test_build_student_is_never_handed_a_student_above_its_teacher():
    import dataclasses

    from kdlab.config import ArchParams as Arch, ConfigError
    with pytest.raises(ConfigError):
        parse_config("""
[dataset]
input_dim = 8
classes = 4
[teacher]
hidden = 8
feature_dim = 4
[student]
hidden = 64,64
feature_dim = 32
""")
    # a config assembled without the parser is checked as it is assembled,
    # so no config build_student is handed breaks the rule
    with pytest.raises(ValueError, match="student capacity exceeds teacher capacity"):
        dataclasses.replace(
            _pair_cfg("8,8"),
            student=Arch(hidden=(64, 64), feature_dim=32, feature_norm=True))


def test_parameter_count_matches_hand_count():
    arch = ArchParams(hidden=(5, 3), feature_dim=2, feature_norm=True)
    net = make_network(4, arch, classes=6, seed=0)
    # affines: (4*5+5) + (5*3+3) + (3*2+2), feature bn: 2+2, classifier: 2*6
    assert parameter_count(4, arch, 6) == 25 + 18 + 8 + 4 + 12
    assert parameter_count(4, arch, 6) == sum(p.values.size for p in net.parameters())


def test_adaptor_output_lives_in_nonnegative_range():
    rng = np.random.default_rng(23)
    adaptor = Adaptor(4, 16, rng)
    out = adaptor(Tensor(rng.standard_normal((10, 4))))
    assert np.min(out.values) >= 0.0
    assert len(adaptor.parameters()) == 4


# fused layer ops against the composed graph
# ------------------------------------------
#
# ``linear`` and ``batch_norm`` must reproduce, bit for bit, the graph of
# elementary ops the layers were built from before they were fused.

def _composed_affine(layer, x, relu=False):
    out = matmul(x, layer.weight) + layer.bias
    return out.relu() if relu else out


def _composed_batchnorm(bn, x):
    mu = composed_mean(x, axis=0)
    centered = sub(x, mu)
    var = composed_mean(centered * centered, axis=0)
    bn.running_mean = bn.momentum * bn.running_mean + (1.0 - bn.momentum) * mu.values
    bn.running_var = bn.momentum * bn.running_var + (1.0 - bn.momentum) * var.values
    normed = div(centered, sqrt(var + bn.eps))
    return normed * bn.gamma + bn.beta


def _composed_features(net, x):
    for layer in net.layers[:-1]:
        x = _composed_affine(layer, x, relu=True)
    x = _composed_affine(net.layers[-1], x)
    if net.norm is not None:
        x = _composed_batchnorm(net.norm, x)
    return x.relu()


def _composed_adaptor(adaptor, x):
    return _composed_batchnorm(adaptor.norm, _composed_affine(adaptor.affine, x)).relu()


def _preset_nets(seed=0):
    # The package defaults are the standard preset.
    cfg = parse_config("")
    return cfg, (build_teacher(cfg, seed), *build_student(cfg, seed))


def _assert_same_state(a, b):
    """Same parameters, running statistics and parameter gradients."""
    prefix = () if isinstance(a, Network) else ("m",)
    state_a, state_b = a.state_arrays(*prefix), b.state_arrays(*prefix)
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name
    for p, q in zip(a.parameters(), b.parameters()):
        assert np.array_equal(p.grad, q.grad)


def test_fused_teacher_step_matches_composed_graph():
    """Preset teacher (32 -> 256 -> 256 -> 64 + BN(64)) at a 32-row batch."""
    cfg, (fused, _, _) = _preset_nets()
    _, (composed, _, _) = _preset_nets()
    rng = np.random.default_rng(41)
    x = rng.standard_normal((32, cfg.dataset.input_dim))
    y = one_hot(rng.integers(0, cfg.dataset.classes, 32), cfg.dataset.classes)

    feats, logits = fused.forward(x)
    backward(softmax_cross_entropy(logits, y))
    ref_feats = _composed_features(composed, Tensor(x))
    ref_logits = composed.classifier(ref_feats)
    backward(composed_cross_entropy(ref_logits, y))

    assert np.array_equal(feats.values, ref_feats.values)
    assert np.array_equal(logits.values, ref_logits.values)
    _assert_same_state(fused, composed)


def test_a_frozen_teacher_classifier_gets_no_gradient_and_leaves_the_adaptor_bits():
    """srd sends the adaptor's output through the frozen teacher classifier.

    The classifier weight needs no gradient, so none is computed for it;
    a twin whose weight does need one gives the student and adaptor the
    same gradient bits.
    """
    cfg, (teacher, student, adaptor) = _preset_nets()
    _, (twin_teacher, twin_student, twin_adaptor) = _preset_nets()
    teacher.freeze()
    twin_teacher.freeze()
    weight = twin_teacher.classifier.weight
    weight.requires_grad, weight.grad = True, np.zeros(weight.shape)
    rng = np.random.default_rng(47)
    x = rng.standard_normal((96, cfg.dataset.input_dim))
    y = one_hot(rng.integers(0, cfg.dataset.classes, 32), cfg.dataset.classes)
    out = teacher.predict(x)

    for nets in ((teacher, student, adaptor), (twin_teacher, twin_student, twin_adaptor)):
        backward(stage2_loss(MODES["srd"], nets, cfg, x, y, out)[0])

    assert teacher.classifier.weight.grad is None
    assert np.any(weight.grad != 0.0)
    _assert_same_state(student, twin_student)
    _assert_same_state(adaptor, twin_adaptor)


def _assert_step_matches_composed_graph(mode, variant):
    """Preset student and adaptor at a 96-row batch, every layer and loss
    head composed from elementary ops in the reference."""
    cfg, (teacher, fused, fused_ad) = _preset_nets()
    _, (_, composed, composed_ad) = _preset_nets()
    cfg = dataclasses.replace(cfg, distill=dataclasses.replace(cfg.distill, variant=variant))
    teacher.freeze()
    rng = np.random.default_rng(43)
    x = rng.standard_normal((96, cfg.dataset.input_dim))
    y = one_hot(rng.integers(0, cfg.dataset.classes, 32), cfg.dataset.classes)
    view2 = rng.standard_normal((64, cfg.dataset.input_dim))
    pseudo_y, pseudo_weight = rng.integers(0, cfg.dataset.classes, 64), 1.5
    feats_t, z_t = teacher.predict(x)
    terms = MODES[mode]

    total, _ = stage2_loss(terms, (teacher, fused, fused_ad), cfg, x, y, (feats_t, z_t),
                           pseudo_y=pseudo_y, pseudo_weight=pseudo_weight, view2=view2)
    backward(total)

    def composed_student(rows):
        return composed.classifier(_composed_features(composed, Tensor(rows)))

    feats_s = _composed_features(composed, Tensor(x))
    logits_s = composed.classifier(feats_s)
    ce = composed_cross_entropy(slice_rows(logits_s, 0, 32), y)
    ref_total = ce
    if "srd" in terms:
        x_a = _composed_adaptor(composed_ad, feats_s)
        z_hat = teacher.classifier(x_a)
        srd = {"mse": lambda: composed_row_distance(Tensor(z_t), z_hat),
               "kl": lambda: composed_cross_entropy(z_hat, softmax_values(z_t)),
               "pmse": lambda: composed_row_distance(Tensor(softmax_values(z_t)),
                                                     softmax(z_hat))}[variant]()
        reg = composed_row_distance(Tensor(feats_t), x_a, root=True)
        ref_total = ref_total + cfg.distill.alpha * srd + cfg.distill.beta * reg
    if "kd" in terms:
        inv = 1.0 / cfg.distill.kd_temperature
        kd = cfg.distill.kd_temperature ** 2 * composed_cross_entropy(
            logits_s * inv, softmax_values(z_t * inv))
        ref_total = ref_total + cfg.distill.kd_weight * kd
    if "pseudo" in terms:
        ce_u = composed_cross_entropy(slice_rows(logits_s, 32, 96),
                                      one_hot(pseudo_y, cfg.dataset.classes))
        ref_total = (ce + pseudo_weight * ce_u) * (1.0 / (1.0 + pseudo_weight))
    if "dac" in terms:
        dac = composed_cosine_loss(composed_student(view2), z_t[32:])
        ref_total = ref_total + cfg.distill.dac_weight * dac
    backward(ref_total)

    assert total.item() == ref_total.item()
    _assert_same_state(fused, composed)
    _assert_same_state(fused_ad, composed_ad)


def test_fused_student_and_adaptor_step_matches_composed_graph():
    _assert_step_matches_composed_graph("srd", "mse")


STEP_CASES = [("srd", "kl"), ("srd", "pmse"), ("srd+kd", "mse"), ("srd+dac", "mse"),
              ("pseudo_label", "mse")]


@pytest.mark.parametrize("mode, variant", STEP_CASES,
                         ids=[f"{m}-{v}" for m, v in STEP_CASES])
def test_every_stage2_term_matches_composed_graph(mode, variant):
    _assert_step_matches_composed_graph(mode, variant)


def test_fused_detector_step_matches_composed_graph():
    """Preset detector step: 32 labeled positives, 32 of 64 pool rows negatives."""
    cfg, (teacher, _, _) = _preset_nets()
    teacher.freeze()
    rng = np.random.default_rng(45)
    feats_t, _ = teacher.predict(rng.standard_normal((96, cfg.dataset.input_dim)))
    neg_rows = rng.choice(64, size=32, replace=False)
    pos, neg = feats_t[:32], feats_t[32:][neg_rows]
    fused = OodDetector(cfg.teacher.feature_dim, np.random.default_rng(3))
    composed = OodDetector(cfg.teacher.feature_dim, np.random.default_rng(3))
    loss = fused.loss(pos, neg)
    backward(loss)
    ref = composed_logistic_loss(pos, neg, composed.weight, composed.bias)
    backward(ref)
    assert loss.item() == ref.item()
    for p, q in zip(fused.parameters(), composed.parameters()):
        assert np.array_equal(p.grad, q.grad)


@pytest.mark.parametrize("x_grad", [False, True])
def test_fused_ops_match_composed_ops_on_leaf_inputs(x_grad):
    """Direct calls, with an input that does and one that does not need grad."""
    rng = np.random.default_rng(47)
    x = rng.standard_normal((96, 16))
    gamma = rng.uniform(0.5, 2.0, 64)
    weights = rng.standard_normal((96, 64))
    runs = []
    for fused in (True, False):
        tx = Tensor(x.copy(), requires_grad=x_grad)
        layer, bn = Affine(16, 64, np.random.default_rng(5)), BatchNorm(64)
        bn.gamma.values[...] = gamma
        if fused:
            out = bn(layer(tx, relu=True))
        else:
            out = _composed_batchnorm(bn, _composed_affine(layer, tx, relu=True))
        backward(tensor_sum(mul(out, Tensor(weights))))
        runs.append((out.values, tx.grad, layer, bn))
    (out, gx, layer, bn), (ref_out, ref_gx, ref_layer, ref_bn) = runs
    assert np.array_equal(out, ref_out)
    if x_grad:
        assert np.array_equal(gx, ref_gx)
    else:
        assert gx is None and ref_gx is None
    _assert_same_state(layer, ref_layer)
    _assert_same_state(bn, ref_bn)


def test_fused_ops_record_one_node_each():
    rng = np.random.default_rng(53)
    x = Tensor(rng.standard_normal((8, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    h = linear(x, w, b, relu=True)
    out, mean, var = batch_norm(h, Tensor(np.ones(3), requires_grad=True),
                                Tensor(np.zeros(3), requires_grad=True), 1e-5)
    assert h.node.op == "linear" and out.node.op == "batch_norm"
    assert mean.shape == var.shape == (3,)
    backward(tensor_sum(out))
    assert LAST_BACKWARD_STATS["nodes"] == 3
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones((2, 3))), w, b)
    with pytest.raises(ShapeError):
        linear(Tensor(np.ones(4)), w, b)
    with pytest.raises(ShapeError):
        linear(x, w, Tensor(np.ones(2)))
    with pytest.raises(ShapeError):
        linear(x, w, Tensor(np.ones((1, 3))))
    with pytest.raises(ShapeError):
        batch_norm(h, Tensor(np.ones((1, 3))), Tensor(np.zeros(3)), 1e-5)


# Graph nodes per backward at the preset shapes. Composed from elementary
# ops, the layers made a teacher step 28 nodes and an srd step 59; fused
# layers made them 13 and 33, with srd+dac at 52 and a detector step at 15.
# Each loss head is one node now. A layer or loss head built from
# elementary ops again instead of its fused node changes these.
TEACHER_STEP_NODES = 7
SRD_STEP_NODES = 18
SRD_DAC_STEP_NODES = 27
DETECTOR_STEP_NODES = 1


def test_preset_steps_build_the_pinned_number_of_graph_nodes():
    cfg, (teacher, student, adaptor) = _preset_nets()
    rng = np.random.default_rng(59)
    x = rng.standard_normal((96, cfg.dataset.input_dim))
    y = one_hot(rng.integers(0, cfg.dataset.classes, 32), cfg.dataset.classes)

    _, logits = teacher.forward(x[:32])
    backward(softmax_cross_entropy(logits, y))
    assert LAST_BACKWARD_STATS["nodes"] == TEACHER_STEP_NODES

    teacher.freeze()
    out = teacher.predict(x)
    total, _ = stage2_loss(MODES["srd"], (teacher, student, adaptor), cfg, x, y, out)
    backward(total)
    assert LAST_BACKWARD_STATS["nodes"] == SRD_STEP_NODES

    view2 = rng.standard_normal((64, cfg.dataset.input_dim))
    total, _ = stage2_loss(MODES["srd+dac"], (teacher, student, adaptor), cfg, x, y, out,
                           view2=view2)
    backward(total)
    assert LAST_BACKWARD_STATS["nodes"] == SRD_DAC_STEP_NODES

    detector = OodDetector(cfg.teacher.feature_dim, rng)
    backward(detector.loss(out[0][:32], out[0][32:64]))
    assert LAST_BACKWARD_STATS["nodes"] == DETECTOR_STEP_NODES
