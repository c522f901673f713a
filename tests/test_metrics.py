from __future__ import annotations

import numpy as np
import pytest

from spal.metrics import accuracy, macro_f1

from oracles import confusion_metrics


class TestAccuracy:
    def test_perfect(self):
        labels = np.array([0, 1, 2, 1])
        assert accuracy(labels, labels, range(4)) == 1.0

    def test_all_wrong(self):
        preds = np.array([1, 0])
        labels = np.array([0, 1])
        assert accuracy(preds, labels, {0, 1}) == 0.0

    def test_three_of_four(self):
        preds = np.array([0, 1, 2, 0])
        labels = np.array([0, 1, 2, 1])
        assert accuracy(preds, labels, range(4)) == 0.75

    def test_eval_subset_only(self):
        preds = np.array([0, 9, 9, 0])
        labels = np.array([0, 1, 2, 0])
        assert accuracy(preds, labels, {0, 3}) == 1.0

    def test_empty_eval_set(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0]), np.array([0]), set())


class TestEvalSetIds:
    """Both metrics read the eval set through one node-id check."""

    PREDS = np.array([0, 1, 0])
    LABELS = np.array([0, 1, 1])
    METRICS = [
        lambda p, l, ids: accuracy(p, l, ids),
        lambda p, l, ids: macro_f1(p, l, ids, 3),
    ]

    @pytest.mark.parametrize("metric", METRICS, ids=["accuracy", "macro_f1"])
    def test_duplicates_count_once(self, metric):
        assert metric(self.PREDS, self.LABELS, [0, 0, 0, 2]) == metric(
            self.PREDS, self.LABELS, [0, 2]
        )

    @pytest.mark.parametrize("metric", METRICS, ids=["accuracy", "macro_f1"])
    @pytest.mark.parametrize("ids", [[-1], [5], [0, 3]])
    def test_out_of_range_rejected(self, metric, ids):
        with pytest.raises(ValueError, match="eval node id .* out of range"):
            metric(self.PREDS, self.LABELS, ids)

    @pytest.mark.parametrize("metric", METRICS, ids=["accuracy", "macro_f1"])
    def test_float_ids_rejected(self, metric):
        with pytest.raises(ValueError, match="integers"):
            metric(self.PREDS, self.LABELS, [1.5])


    @pytest.mark.parametrize("metric", METRICS, ids=["accuracy", "macro_f1"])
    @pytest.mark.parametrize("preds", [[0, 1], [0, 1, 0, 1]], ids=["short", "long"])
    def test_prediction_count_must_match_labels(self, metric, preds):
        # shorter predictions used to raise an IndexError, longer ones passed
        with pytest.raises(ValueError, match=f"predictions hold {len(preds)} nodes, labels 3"):
            metric(np.array(preds), self.LABELS, [0, 1])


class TestMacroF1:
    @pytest.mark.parametrize("num_classes, message", [
        (0, "num_classes must be >= 1, got 0"),  # used to divide by zero
        (2.0, "num_classes must be an integer"),
    ])
    def test_num_classes_checked(self, num_classes, message):
        labels = np.array([0, 1, 1, 0])
        with pytest.raises(ValueError, match=message):
            macro_f1(labels, labels, range(4), num_classes)


    def test_returns_a_python_float(self):
        labels = np.array([0, 1, 1, 0])
        for preds in (labels, 1 - labels, np.zeros(4, dtype=int)):
            assert type(macro_f1(preds, labels, range(4), 2)) is float
            assert type(accuracy(preds, labels, range(4))) is float

    def test_perfect_all_classes_present(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert macro_f1(labels, labels, range(6), 3) == pytest.approx(1.0)

    def test_degenerate_single_class_predictor(self):
        # all predictions class 0 with half the truth class 1:
        # class-0 F1 = 2/3, class-1 F1 = 0 -> macro 1/3
        preds = np.zeros(8, dtype=int)
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        assert macro_f1(preds, labels, range(8), 2) == pytest.approx(1 / 3)

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(50)
        preds = rng.integers(0, 4, size=30)
        labels = rng.integers(0, 4, size=30)
        before = macro_f1(preds, labels, range(30), 4)
        perm = rng.permutation(4)
        after = macro_f1(perm[preds], perm[labels], range(30), 4)
        assert after == pytest.approx(before, abs=1e-12)

    def test_absent_class_contributes_zero(self):
        preds = np.array([0, 0])
        labels = np.array([0, 0])
        # class 1 never appears: its F1 term is 0, so macro is 0.5
        assert macro_f1(preds, labels, {0, 1}, 2) == pytest.approx(0.5)

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            num_classes = int(rng.integers(2, 6))
            size = int(rng.integers(3, 40))
            preds = rng.integers(0, num_classes, size=size)
            labels = rng.integers(0, num_classes, size=size)
            expected_acc, expected_f1 = confusion_metrics(preds, labels, num_classes)
            assert abs(accuracy(preds, labels, range(size)) - expected_acc) < 1e-12
            assert abs(macro_f1(preds, labels, range(size), num_classes) - expected_f1) < 1e-12

    def test_accuracy_equals_macro_recall_for_balanced_classes(self):
        rng = np.random.default_rng(52)
        labels = np.repeat([0, 1, 2], 10)
        preds = rng.integers(0, 3, size=30)
        acc = accuracy(preds, labels, range(30))
        recalls = []
        for c in range(3):
            mask = labels == c
            recalls.append(np.mean(preds[mask] == c))
        assert acc == pytest.approx(np.mean(recalls))
