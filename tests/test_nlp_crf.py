"""Tests for the from-scratch linear-chain CRF (paper §4)."""

import sys

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.nlp.corpus import build_corpus
from repro.nlp.crf import LinearChainCRF
from repro.nlp.features import extract_features


def _toy_data():
    """Tiny separable task: label A after 'a'-features, B after 'b'."""
    sequences, labels = [], []
    patterns = [
        (["fa", "fb", "fa"], ["A", "B", "A"]),
        (["fb", "fb"], ["B", "B"]),
        (["fa", "fa", "fb"], ["A", "A", "B"]),
        (["fb", "fa"], ["B", "A"]),
    ]
    for features, gold in patterns:
        sequences.append([[name] for name in features])
        labels.append(gold)
    return sequences, labels


class TestToyLearning:
    def test_learns_separable_emissions(self):
        sequences, labels = _toy_data()
        model = LinearChainCRF(["A", "B"], l2=0.01, max_iterations=50)
        model.fit(sequences, labels)
        assert model.predict([["fa"], ["fb"], ["fa"]]) == ["A", "B", "A"]

    def test_unknown_features_do_not_crash(self):
        sequences, labels = _toy_data()
        model = LinearChainCRF(["A", "B"]).fit(sequences, labels)
        prediction = model.predict([["unseen-feature"], ["fb"]])
        assert len(prediction) == 2

    def test_empty_sequence(self):
        sequences, labels = _toy_data()
        model = LinearChainCRF(["A", "B"]).fit(sequences, labels)
        assert model.predict([]) == []

    def test_predict_before_fit_raises(self):
        model = LinearChainCRF(["A", "B"])
        with pytest.raises(RuntimeError):
            model.predict([["fa"]])

    def test_mismatched_training_input(self):
        model = LinearChainCRF(["A"])
        with pytest.raises(ValueError):
            model.fit([[["f"]]], [])


class TestGradient:
    def test_numeric_gradient_check(self):
        """Finite-difference validation of the forward–backward gradient."""
        sequences, labels = _toy_data()
        model = LinearChainCRF(["A", "B"], l2=0.0)
        encoded = [model._encode(sequence, grow=True) for sequence in sequences]
        targets = [np.array([model.label_index[l] for l in gold]) for gold in labels]
        n_features = len(model.feature_index)
        n_labels = 2

        rng = np.random.default_rng(0)
        emission = rng.normal(0, 0.3, (n_features, n_labels))
        transition = rng.normal(0, 0.3, (n_labels + 1, n_labels))

        def nll(em, tr):
            grad_em = np.zeros_like(em)
            grad_tr = np.zeros_like(tr)
            total = 0.0
            for tokens, gold in zip(encoded, targets):
                total += model._sequence_gradient(tokens, gold, em, tr, grad_em, grad_tr)
            return total, grad_em, grad_tr

        base, grad_em, grad_tr = nll(emission, transition)
        epsilon = 1e-5
        for index in [(0, 0), (1, 1), (0, 1)]:
            perturbed = emission.copy()
            perturbed[index] += epsilon
            numeric = (nll(perturbed, transition)[0] - base) / epsilon
            assert numeric == pytest.approx(grad_em[index], abs=1e-3)
        for index in [(0, 1), (2, 0)]:
            perturbed = transition.copy()
            perturbed[index] += epsilon
            numeric = (nll(emission, perturbed)[0] - base) / epsilon
            assert numeric == pytest.approx(grad_tr[index], abs=1e-3)


class TestPersistence:
    def test_save_and_load_round_trip(self, tmp_path):
        sequences, labels = _toy_data()
        model = LinearChainCRF(["A", "B"]).fit(sequences, labels)
        path = str(tmp_path / "model.npz")
        model.save(path)
        restored = LinearChainCRF.load(path)
        probe = [["fa"], ["fb"]]
        assert restored.predict(probe) == model.predict(probe)

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            LinearChainCRF(["A"]).save(str(tmp_path / "x.npz"))


def _block_scipy(monkeypatch):
    """Make ``import scipy`` (and every submodule already loaded) fail."""
    loaded = [name for name in sys.modules if name.partition(".")[0] == "scipy"]
    for name in loaded + ["scipy"]:
        monkeypatch.setitem(sys.modules, name, None)


@pytest.fixture
def no_scipy(monkeypatch):
    _block_scipy(monkeypatch)


class TestWithoutScipy:
    """Only training needs scipy; everything else runs on numpy alone."""

    def test_load_and_predict(self, tmp_path, monkeypatch):
        sequences, labels = _toy_data()
        path = str(tmp_path / "crf.npz")
        LinearChainCRF(["A", "B"]).fit(sequences, labels).save(path)
        _block_scipy(monkeypatch)
        model = LinearChainCRF.load(path)
        assert model.predict([["fa"], ["fb"], ["fa"]]) == ["A", "B", "A"]

    def test_fit_raises_typed_error_naming_the_rule_tagger(self, no_scipy):
        sequences, labels = _toy_data()
        with pytest.raises(ExecutionError, match=r'EntityTagger\(mode="rule"\)'):
            LinearChainCRF(["A", "B"]).fit(sequences, labels)

    def test_rule_tagger_nl_query_runs(self, no_scipy, rule_tagger):
        import repro  # noqa: F401  (importing the package must not need scipy)
        from repro import ShapeSearch, Table

        table = Table.from_arrays(
            z=np.repeat(["rise", "fall"], 8),
            x=np.tile(np.arange(8.0), 2),
            y=np.concatenate([np.arange(8.0), -np.arange(8.0)]),
        )
        session = ShapeSearch(table, tagger=rule_tagger)
        (best,) = session.prepare("rising", z="z", x="x", y="y").run(k=1)
        assert best.key == "rise"


class TestOnCorpus:
    def test_heldout_f1_matches_paper_ballpark(self):
        """Paper: F1 81% on cross-validation.  Held-out split here."""
        corpus = build_corpus(min_size=200)
        split = int(len(corpus) * 0.8)
        train, test = corpus[:split], corpus[split:]
        model = LinearChainCRF(
            sorted({label for _, labels in corpus for label in labels}),
            l2=0.05,
            max_iterations=40,
        )
        model.fit(
            [extract_features(tokens) for tokens, _ in train],
            [labels for _, labels in train],
        )
        metrics = model.evaluate(
            [extract_features(tokens) for tokens, _ in test],
            [labels for _, labels in test],
        )
        assert metrics["f1"] >= 0.8
        assert metrics["recall"] >= 0.8


class TestShippedWeights:
    def test_packaged_model_loads(self):
        from repro.nlp.tagger import default_crf

        model = default_crf()
        assert model.fitted
        corpus = build_corpus(min_size=60)
        metrics = model.evaluate(
            [extract_features(tokens) for tokens, _ in corpus[:40]],
            [labels for _, labels in corpus[:40]],
        )
        assert metrics["f1"] >= 0.85
