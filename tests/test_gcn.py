from __future__ import annotations

import numpy as np
import pytest

from spal import gcn
from spal.experiment import run_strategy
from spal.gcn import (
    GcnModel,
    TrainConfig,
    TrainingDivergedError,
    gcn_forward,
    init_model,
    objective,
    predict,
    train,
)
from spal.graph import from_edges
from spal.synthetic import sbm_graph

from conftest import make_graph, random_graph
from oracles import finite_difference_grads, train_full_reference


def labeled_random_graph(rng, n, num_classes, p=0.4, isolated=0):
    """Random graph with 3 Gaussian features; its last ``isolated`` nodes have
    no edges."""
    g = random_graph(rng, n - isolated, p)
    features = rng.standard_normal((n, 3))
    labels = rng.integers(0, num_classes, size=n)
    labels[:num_classes] = np.arange(num_classes)  # every class present
    return make_graph(
        [(u, int(v)) for u in range(n - isolated) for v in g.neighbors(u) if v > u],
        num_nodes=n, features=features, labels=labels,
    )


def overflowing_graph():
    """4 nodes whose features, near the float64 limit, overflow the forward pass."""
    features = np.full((4, 3), 1.7e308) * [1, -1, 1]
    return from_edges([[0, 1], [1, 2], [2, 3], [0, 2]], features, [0, 1, 2, 1])


def closed_neighbourhood(g, labeled):
    return set(labeled).union(*(g.neighbors(u).tolist() for u in labeled))


def assert_matches_finite_differences(model, g, labeled, wd):
    _, gW0, gW1 = objective(model, g, labeled, weight_decay=wd)
    fd0, fd1 = finite_difference_grads(
        lambda m: objective(m, g, labeled, weight_decay=wd)[0], model
    )
    for analytic, numeric in ((gW0, fd0), (gW1, fd1)):
        rel = np.abs(analytic - numeric) / np.maximum(
            1e-6, np.maximum(np.abs(analytic), np.abs(numeric))
        )
        assert rel.max() < 1e-4


class TestForward:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(40)
        g = labeled_random_graph(rng, 9, 3)
        model = init_model(3, 3, seed=1)
        probs = gcn_forward(model, g)
        assert probs.shape == (9, 3)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
        assert probs.min() > 0

    def test_zero_weights_uniform(self, triangle):
        model = init_model(triangle.features.shape[1], 3, seed=0)
        model.W0[:] = 0.0
        model.W1[:] = 0.0
        probs = gcn_forward(model, triangle)
        assert np.abs(probs - 1 / 3).max() < 1e-12

    def test_single_node_hand_computed(self, monkeypatch):
        # isolated pair so A_norm rows are identity for node 1; check node 1's
        # chain: softmax(relu(x W0) W1) with x = [2, -1]
        g = make_graph([(0, 2)], num_nodes=3,
                       features=np.array([[1.0, 1.0], [2.0, -1.0], [0.5, 0.0]]),
                       labels=[0, 1, 0])
        monkeypatch.setattr(gcn, "HIDDEN_UNITS", 2)
        model = init_model(2, 2, seed=0)
        model.W0[:] = np.array([[1.0, -1.0], [0.5, 2.0]])
        model.W1[:] = np.array([[1.0, 0.0], [0.0, 1.0]])
        probs = gcn_forward(model, g)
        h = np.maximum(np.array([2.0, -1.0]) @ model.W0, 0.0)
        logits = h @ model.W1
        expected = np.exp(logits) / np.exp(logits).sum()
        assert np.abs(probs[1] - expected).max() < 1e-12

    def test_dimension_mismatch(self, triangle):
        model = init_model(99, 2, seed=0)
        with pytest.raises(ValueError):
            gcn_forward(model, triangle)

    def test_non_finite_row_rejected(self):
        # features near the float64 limit overflow the forward pass, so the
        # logits are not finite; numpy's own overflow warnings are not issued
        g = overflowing_graph()
        for seed in range(4):
            with pytest.raises(ValueError, match="row 0 is not finite"):
                run_strategy("uncertainty", g, 2, seed)
        with pytest.raises(ValueError, match="row 0 is not finite"):
            predict(init_model(3, 3), g)

    def test_overflow_raises_no_numpy_warning(self):
        # the suite turns warnings into errors, so a RuntimeWarning from the
        # matmul would be raised in place of the row error
        with pytest.raises(ValueError, match="row 0"):
            gcn_forward(init_model(3, 3), overflowing_graph())


class TestCrossEntropy:
    """The loss ``objective`` returns is the summed cross-entropy over the
    labeled nodes. Both weight matrices act on node-constant inputs here: a
    regular graph with unit features gives every node the logits of W1's
    first row, and an isolated node's Â row is its unit self-loop."""

    def test_perfect_predictions(self):
        g = make_graph([(0, 1), (1, 2), (0, 2)], features=np.ones((3, 1)))
        model = GcnModel(np.ones((1, 1)), np.array([[1000.0, 0.0]]))
        assert objective(model, g, {0, 1, 2})[0] <= 3 * 1.1e-12

    def test_uniform_predictions(self):
        g = make_graph([(0, 1), (1, 2)], num_nodes=4, features=np.eye(4))
        model = GcnModel(np.ones((4, 3)), np.zeros((3, 5)))
        loss = objective(model, g, {0, 1, 2})[0]
        assert loss == pytest.approx(3 * np.log(5))

    def test_hand_computed(self):
        # node 0's logits (log 4, 0) give (0.8, 0.2); node 1's (0, 0) give (0.5, 0.5)
        g = make_graph([(2, 3)], features=[[1.0], [0.0], [0.0], [0.0]])
        model = GcnModel(np.ones((1, 1)), np.array([[np.log(4.0), 0.0]]))
        loss = objective(model, g, {0, 1})[0]
        assert loss == pytest.approx(-np.log(0.8) - np.log(0.5))
        assert loss == pytest.approx(0.9163, abs=1e-4)

    def test_empty_labeled_error(self):
        g = make_graph([(0, 1), (1, 2), (0, 2)], features=np.ones((3, 1)))
        with pytest.raises(ValueError):
            objective(GcnModel(np.ones((1, 1)), np.ones((1, 2))), g, set())

    def test_clamp_guards_zero_probability(self):
        # the true class 1 gets probability exp(-1000) == 0.0 at every node
        g = make_graph([(0, 1), (1, 2), (0, 2)], features=np.ones((3, 1)),
                       labels=np.array([1, 1, 0]))
        model = GcnModel(np.ones((1, 1)), np.array([[1000.0, 0.0]]))
        assert gcn_forward(model, g)[0, 1] == 0.0
        loss, gW0, gW1 = objective(model, g, {0, 1})
        assert loss == pytest.approx(-2 * np.log(1e-12))
        assert np.isfinite(gW0).all() and np.isfinite(gW1).all()


class TestGradients:
    @pytest.fixture(autouse=True)
    def width_4(self, monkeypatch):
        monkeypatch.setattr(gcn, "HIDDEN_UNITS", 4)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for trial in range(3):
            n = int(rng.integers(6, 11))
            num_classes = int(rng.choice([2, 3]))
            g = labeled_random_graph(rng, n, num_classes)
            model = init_model(3, num_classes, seed=trial)
            labeled = set(range(0, n, 2))
            for wd in (0.0, 5e-4):
                assert_matches_finite_differences(model, g, labeled, wd)

    def test_matches_finite_differences_on_a_strict_receptive_field(self):
        # sparse graphs and few labeled nodes, so the 2-hop field the trainer
        # computes on leaves nodes out; the last node of each graph has no
        # edges and is labeled in the second half of the trials
        rng = np.random.default_rng(42)
        for trial in range(6):
            n = int(rng.integers(12, 17))
            num_classes = int(rng.choice([2, 3]))
            g = labeled_random_graph(rng, n, num_classes, p=0.12, isolated=1)
            assert g.degrees[n - 1] == 0
            labeled = rng.choice(n - 1, size=2, replace=False).tolist()
            if trial >= 3:
                labeled.append(n - 1)
            assert len(closed_neighbourhood(g, labeled)) < n
            model = init_model(3, num_classes, seed=trial)
            for wd in (0.0, 5e-4):
                assert_matches_finite_differences(model, g, labeled, wd)


class TestLabeledIds:
    """``train`` and ``objective`` read the labeled ids the same way."""

    @pytest.fixture
    def setting(self, monkeypatch):
        monkeypatch.setattr(gcn, "HIDDEN_UNITS", 4)
        rng = np.random.default_rng(43)
        g = labeled_random_graph(rng, 30, 3, p=0.15)
        return g, init_model(3, 3, seed=0)

    def entry_points(self, g, model):
        return [
            lambda ids: train(g, ids, TrainConfig(epochs=1)),
            lambda ids: objective(model, g, ids),
        ]

    def test_duplicate_ids_count_once(self, setting):
        g, model = setting
        assert_matches_finite_differences(model, g, [1, 5, 5, 9], 0.0)
        assert objective(model, g, [1, 5, 5, 9])[0] == objective(model, g, [1, 5, 9])[0]

    @pytest.mark.parametrize("ids", [[-1], [3, -1], [100], [0, 30]])
    def test_out_of_range_ids_rejected(self, setting, ids):
        for entry in self.entry_points(*setting):
            with pytest.raises(ValueError, match="out of range"):
                entry(ids)

    @pytest.mark.parametrize("ids", [[], set(), np.array([], dtype=np.int64)])
    def test_empty_rejected(self, setting, ids):
        for entry in self.entry_points(*setting):
            with pytest.raises(ValueError, match="non-empty"):
                entry(ids)

    def test_non_integer_ids_rejected(self, setting):
        for entry in self.entry_points(*setting):
            with pytest.raises(ValueError, match="integers"):
                entry(np.array([1.5, 2.0]))


class TestTrain:
    def test_loss_decreases_after_first_epoch(self):
        g = sbm_graph(2, 60, 0.3, 0.02, feature_snr=2.0, seed=5)
        labeled = np.arange(0, 60, 6)
        cfg = TrainConfig(epochs=1)
        before = objective(init_model(2, 2, seed=0), g, labeled, cfg.weight_decay)[0]
        after = objective(train(g, labeled, cfg, seed=0), g, labeled, cfg.weight_decay)[0]
        assert after < before

    def test_deterministic_weights(self):
        g = sbm_graph(2, 40, 0.3, 0.05, seed=6)
        labeled = np.arange(0, 40, 4)
        cfg = TrainConfig(epochs=20)
        m1 = train(g, labeled, cfg, seed=3)
        m2 = train(g, labeled, cfg, seed=3)
        assert np.array_equal(m1.W0, m2.W0)
        assert np.array_equal(m1.W1, m2.W1)

    def test_empty_labeled_error(self, triangle):
        with pytest.raises(ValueError):
            train(triangle, np.array([], dtype=int))

    def test_out_of_range_labeled(self, triangle):
        with pytest.raises(ValueError):
            train(triangle, np.array([5]))

    def test_divergence_detection(self):
        g = sbm_graph(2, 20, 0.4, 0.05, seed=7)
        # an absurd step size overflows the weights into non-finite loss
        with pytest.raises(TrainingDivergedError):
            with np.errstate(over="ignore", invalid="ignore"):
                train(g, np.arange(10), TrainConfig(learning_rate=1e300, epochs=5), seed=0)

    def test_learns_separable_blocks(self):
        g = sbm_graph(2, 80, 0.25, 0.02, feature_snr=3.0, seed=8)
        labeled = np.arange(0, 80, 8)
        model = train(g, labeled, seed=0)
        preds = predict(model, g)
        eval_set = np.setdiff1d(np.arange(80), labeled)
        acc = float(np.mean(preds[eval_set] == g.labels[eval_set]))
        assert acc > 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("learning_rate", -1e-2),
        ("weight_decay", -1.0),
        ("weight_decay", float("nan")),
        ("weight_decay", float("inf")),
        ("epochs", 0),
    ])
    def test_config_rejects_bad_value_naming_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5),
        ("epochs", True),
        ("seed", 1.5),
        ("seed", False),
    ])
    def test_config_integer_fields_reject_non_integers(self, field, value):
        # 2.5 used to reach gcn.train or numpy's SeedSequence and fail there,
        # and epochs=True trained one epoch; the seed is init_model's argument
        build = {"epochs": lambda v: TrainConfig(epochs=v), "seed": lambda v: init_model(3, 3, v)}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            build[field](value)

    def test_config_seed_non_negative_and_numpy_integers_accepted(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            init_model(3, 3, seed=-1)
        assert TrainConfig(epochs=np.int64(3)).epochs == 3
        model = init_model(3, 3, seed=np.int64(0))
        assert np.array_equal(model.W0, init_model(3, 3, seed=0).W0)

    def test_config_accepts_zero_weight_decay(self):
        assert TrainConfig(weight_decay=0.0).weight_decay == 0.0


class TestReceptiveFieldTraining:
    """``train`` computes each epoch on the labeled nodes' 2-hop field only,
    and must give the full-batch trainer's weights bit for bit."""

    def assert_same_as_full_batch(self, g, labeled, cfg, seed):
        model = train(g, labeled, cfg, seed)
        reference = train_full_reference(g, labeled, cfg, seed)
        assert np.array_equal(model.W0, reference.W0)
        assert np.array_equal(model.W1, reference.W1)
        assert np.array_equal(predict(model, g), predict(reference, g))

    def test_matches_full_batch_on_random_graphs(self):
        rng = np.random.default_rng(44)
        for trial in range(12):
            n = int(rng.integers(20, 41))
            # sparse draws leave several components; the last nodes have no edges
            g = labeled_random_graph(
                rng, n, int(rng.choice([4, 5])), p=float(rng.choice([0.04, 0.1, 0.3])),
                isolated=int(rng.integers(1, 4)),
            )
            b = [1, n, int(rng.integers(2, n))][trial % 3]
            picks = rng.choice(n, size=b, replace=False)
            if trial % 2 and b < n:
                picks[0] = n - 1  # an isolated labeled node
            labeled = [set(picks.tolist()), picks.tolist(), picks][trial % 4 % 3]
            cfg = TrainConfig(epochs=60, weight_decay=[5e-4, 0.0][trial % 2])
            self.assert_same_as_full_batch(g, labeled, cfg, trial)

    def test_matches_full_batch_across_components(self, monkeypatch):
        # triangles {0,1,2} and {3,4,5}, the path 6-7, isolated nodes 8 and 9
        rng = np.random.default_rng(45)
        g = make_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)],
                       num_nodes=10, features=rng.standard_normal((10, 3)),
                       labels=[0, 1, 2, 3, 0, 1, 2, 3, 0, 1])
        for labeled in ({9}, {1, 4}, [7, 0, 8], np.array([9, 5, 3, 6]), list(range(10))):
            self.assert_same_as_full_batch(g, labeled, TrainConfig(), 1)
        # the flat Adam vector's smallest views: W0 1x1 and W1 1x4, with the
        # one labeled row sent through _rows_matmul
        g1 = make_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6, 7)],
                        num_nodes=10, features=g.features[:, :1], labels=g.labels)
        monkeypatch.setattr(gcn, "HIDDEN_UNITS", 1)
        self.assert_same_as_full_batch(g1, {1}, TrainConfig(), 1)

    def test_matches_full_batch_on_an_sbm(self):
        g = sbm_graph(4, 400, 0.1, 0.01, feature_snr=1.0, seed=7)
        picks = np.random.default_rng(46).choice(400, size=20, replace=False)
        self.assert_same_as_full_batch(g, picks, TrainConfig(), 3)

    def test_two_and_three_classes_agree_to_rounding(self):
        # with fewer than 4 output columns the bundled BLAS may round a row of
        # P2 @ W1 differently in a |idx|-row product than in the n-row one;
        # with every node labeled both products are the same
        rng = np.random.default_rng(47)
        for trial in range(6):
            n = int(rng.integers(20, 41))
            g = labeled_random_graph(rng, n, 2 + trial % 2, p=0.1, isolated=1)
            picks = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            cfg = TrainConfig()
            model = train(g, picks, cfg, trial)
            reference = train_full_reference(g, picks, cfg, trial)
            for W, ref in ((model.W0, reference.W0), (model.W1, reference.W1)):
                assert np.allclose(W, ref, rtol=1e-10, atol=1e-12)
            assert np.array_equal(predict(model, g), predict(reference, g))
            self.assert_same_as_full_batch(g, np.arange(n), cfg, trial)
