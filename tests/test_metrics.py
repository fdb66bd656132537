"""Confusion counts and ROC AUC against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mgnet3d import ArgumentError, compute_metrics, confusion, roc_auc

from helpers import auc_pairs_reference


class TestConfusion:
    def test_all_correct(self):
        labels = [1, 1, 1, 0, 0]
        assert confusion(labels, labels) == (3, 2, 0, 0)

    def test_all_wrong(self):
        assert confusion([1, 0], [0, 1]) == (0, 0, 1, 1)

    def test_random_matches_counting_oracle(self, rng):
        labels = rng.integers(0, 2, size=50).tolist()
        preds = rng.integers(0, 2, size=50).tolist()
        tp, tn, fp, fn = confusion(labels, preds)
        want = [0, 0, 0, 0]
        for l, p in zip(labels, preds):
            if l == 1 and p == 1:
                want[0] += 1
            elif l == 0 and p == 0:
                want[1] += 1
            elif l == 0 and p == 1:
                want[2] += 1
            else:
                want[3] += 1
        assert [tp, tn, fp, fn] == want
        assert tp + tn + fp + fn == 50

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            confusion([1, 0], [1])

    def test_empty(self):
        with pytest.raises(ArgumentError):
            confusion([], [])

    def test_non_binary(self):
        with pytest.raises(ArgumentError):
            confusion([1, 2], [1, 0])


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_worked_example(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8]) == 0.75

    def test_all_ties(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ArgumentError):
            roc_auc([1, 1], [0.1, 0.2])

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            roc_auc([0, 1], [0.5])

    @pytest.mark.parametrize("scores", [[float("nan"), 0.5], [0.5, float("nan")]])
    def test_nan_score_rejected(self, scores):
        # NaN never equals itself, so the tie sweep would never advance.
        with pytest.raises(ArgumentError, match="NaN"):
            roc_auc([0, 1], scores)

    def test_matches_pair_oracle_with_ties(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.normal(size=n), 1)  # coarse grid forces ties
            got = roc_auc(labels.tolist(), scores.tolist())
            want = auc_pairs_reference(labels.tolist(), scores.tolist())
            assert abs(got - want) < 1e-12

    @given(st.data())
    def test_invariant_under_increasing_transform(self, data):
        n = data.draw(st.integers(min_value=4, max_value=30))
        labels = data.draw(
            st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n).filter(
                lambda ls: 0 < sum(ls) < len(ls)
            )
        )
        # Coarse grid: spacing 1e-3 keeps distinct scores distinct under
        # exp at float64 resolution (and preserves exact ties).
        scores = [
            round(s, 3)
            for s in data.draw(
                st.lists(
                    st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
        ]
        base = roc_auc(labels, scores)
        assert roc_auc(labels, [3.0 * s + 1.0 for s in scores]) == pytest.approx(base, abs=1e-12)
        assert roc_auc(labels, list(np.exp(scores))) == pytest.approx(base, abs=1e-9)

    def test_complement_for_tie_free_scores(self, rng):
        labels = rng.integers(0, 2, size=20)
        labels[0], labels[1] = 0, 1
        scores = rng.permutation(20) / 20.0  # distinct
        a = roc_auc(labels.tolist(), scores.tolist())
        b = roc_auc(labels.tolist(), (-scores).tolist())
        assert a + b == pytest.approx(1.0, abs=1e-12)


class TestComputeMetrics:
    def test_worked_example(self):
        metrics = compute_metrics(
            [1, 1, 0, 0], [1, 1, 1, 0], [0.9, 0.8, 0.6, 0.2]
        )
        assert (metrics.tp, metrics.fn, metrics.fp, metrics.tn) == (2, 0, 1, 1)
        assert metrics.sensitivity == 1.0
        assert metrics.specificity == 0.5
        assert metrics.accuracy == 0.75

    def test_all_correct(self):
        metrics = compute_metrics([1, 0, 1], [1, 0, 1], [0.9, 0.1, 0.8])
        assert metrics.accuracy == 1.0
        assert metrics.auc == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ArgumentError):
            compute_metrics([1, 1], [1, 1], [0.9, 0.8])
