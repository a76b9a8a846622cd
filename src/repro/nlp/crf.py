"""A linear-chain conditional random field, from scratch (paper §4).

The paper tags shape entities with a linear-chain CRF trained with
CRFsuite's L-BFGS algorithm.  CRFsuite is unavailable offline, so this
is the same model family implemented directly:

* binary indicator features per token (string feature names), with
  emission weights ``W[feature, label]`` and transition weights
  ``T[label_prev, label]`` (plus a begin-of-sequence row);
* exact inference by forward–backward in log space;
* maximum-likelihood training (negative log-likelihood + L2 penalty)
  optimized with ``scipy.optimize.minimize(method="L-BFGS-B")``;
* Viterbi decoding.

Only training needs scipy, and imports it when it runs: decoding and
loading saved weights are numpy alone, so importing this module (and
with it :mod:`repro`) stays cheap.

The paper's hyper-parameters (L1 1.0, L2 0.001, 50 iterations) are
mapped to a pure-L2 configuration since L-BFGS-B requires a smooth
objective; the regularization strength is matched in magnitude.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError

FeatureSet = Sequence[str]


class LinearChainCRF:
    """Sequence labeller over string feature sets."""

    def __init__(self, labels: Sequence[str], l2: float = 0.01, max_iterations: int = 60):
        self.labels: List[str] = list(labels)
        self.label_index: Dict[str, int] = {label: i for i, label in enumerate(self.labels)}
        self.l2 = l2
        self.max_iterations = max_iterations
        self.feature_index: Dict[str, int] = {}
        self.emission: Optional[np.ndarray] = None  # [n_features, n_labels]
        self.transition: Optional[np.ndarray] = None  # [n_labels + 1, n_labels]; last row = BOS
        self.fitted = False

    # -- encoding -----------------------------------------------------------
    def _encode(self, sequence: Sequence[FeatureSet], grow: bool) -> List[List[int]]:
        encoded: List[List[int]] = []
        for features in sequence:
            ids: List[int] = []
            for feature in features:
                index = self.feature_index.get(feature)
                if index is None and grow:
                    index = len(self.feature_index)
                    self.feature_index[feature] = index
                if index is not None:
                    ids.append(index)
            encoded.append(ids)
        return encoded

    def _emission_scores(self, encoded: List[List[int]], emission: np.ndarray) -> np.ndarray:
        n_labels = len(self.labels)
        scores = np.zeros((len(encoded), n_labels))
        for t, ids in enumerate(encoded):
            if ids:
                scores[t] = emission[ids].sum(axis=0)
        return scores

    # -- training ---------------------------------------------------------
    def fit(
        self,
        sequences: Sequence[Sequence[FeatureSet]],
        label_sequences: Sequence[Sequence[str]],
    ) -> "LinearChainCRF":
        """Train by penalized maximum likelihood (needs scipy)."""
        try:
            from scipy.optimize import minimize
        except ImportError as exc:
            raise ExecutionError(
                "training the CRF tagger needs scipy, which is not installed; "
                "install scipy or use the lexicon tagger: "
                'tagger=EntityTagger(mode="rule")'
            ) from exc
        if len(sequences) != len(label_sequences):
            raise ValueError("sequences and labels differ in length")
        encoded = [self._encode(sequence, grow=True) for sequence in sequences]
        targets = [
            np.array([self.label_index[label] for label in labels])
            for labels in label_sequences
        ]
        n_features = len(self.feature_index)
        n_labels = len(self.labels)
        emission_size = n_features * n_labels
        transition_size = (n_labels + 1) * n_labels

        def unpack(theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            emission = theta[:emission_size].reshape(n_features, n_labels)
            transition = theta[emission_size:].reshape(n_labels + 1, n_labels)
            return emission, transition

        def objective(theta: np.ndarray) -> Tuple[float, np.ndarray]:
            emission, transition = unpack(theta)
            grad_emission = np.zeros_like(emission)
            grad_transition = np.zeros_like(transition)
            nll = 0.0
            for tokens, gold in zip(encoded, targets):
                nll += self._sequence_gradient(
                    tokens, gold, emission, transition, grad_emission, grad_transition
                )
            nll += 0.5 * self.l2 * float(np.sum(theta * theta))
            gradient = np.concatenate(
                [grad_emission.ravel(), grad_transition.ravel()]
            ) + self.l2 * theta
            return nll, gradient

        theta0 = np.zeros(emission_size + transition_size)
        result = minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iterations},
        )
        self.emission, self.transition = unpack(result.x)
        self.fitted = True
        return self

    def _sequence_gradient(
        self,
        tokens: List[List[int]],
        gold: np.ndarray,
        emission: np.ndarray,
        transition: np.ndarray,
        grad_emission: np.ndarray,
        grad_transition: np.ndarray,
    ) -> float:
        """Add one sequence's NLL gradient in place; return its NLL."""
        from scipy.special import logsumexp

        n = len(tokens)
        n_labels = len(self.labels)
        scores = self._emission_scores(tokens, emission)
        bos = n_labels  # index of the begin-of-sequence transition row

        # Forward pass.
        log_alpha = np.zeros((n, n_labels))
        log_alpha[0] = scores[0] + transition[bos]
        for t in range(1, n):
            log_alpha[t] = scores[t] + logsumexp(
                log_alpha[t - 1][:, None] + transition[:n_labels], axis=0
            )
        log_z = float(logsumexp(log_alpha[-1]))

        # Backward pass.
        log_beta = np.zeros((n, n_labels))
        for t in range(n - 2, -1, -1):
            log_beta[t] = logsumexp(
                transition[:n_labels] + (scores[t + 1] + log_beta[t + 1])[None, :], axis=1
            )

        # Expected (model) counts minus observed counts.
        for t in range(n):
            marginal = np.exp(log_alpha[t] + log_beta[t] - log_z)
            for feature in tokens[t]:
                grad_emission[feature] += marginal
                grad_emission[feature, gold[t]] -= 1.0
        pair_base = transition[:n_labels]
        for t in range(1, n):
            pair = np.exp(
                log_alpha[t - 1][:, None]
                + pair_base
                + (scores[t] + log_beta[t])[None, :]
                - log_z
            )
            grad_transition[:n_labels] += pair
            grad_transition[gold[t - 1], gold[t]] -= 1.0
        first_marginal = np.exp(log_alpha[0] + log_beta[0] - log_z)
        grad_transition[bos] += first_marginal
        grad_transition[bos, gold[0]] -= 1.0

        # Observed sequence score.
        observed = transition[bos, gold[0]] + scores[0, gold[0]]
        for t in range(1, n):
            observed += transition[gold[t - 1], gold[t]] + scores[t, gold[t]]
        return log_z - float(observed)

    # -- inference -------------------------------------------------------------
    def predict(self, sequence: Sequence[FeatureSet]) -> List[str]:
        """Viterbi decoding of the most likely label sequence."""
        if not self.fitted:
            raise RuntimeError("CRF is not fitted")
        if not sequence:
            return []
        encoded = self._encode(sequence, grow=False)
        scores = self._emission_scores(encoded, self.emission)
        n = len(encoded)
        n_labels = len(self.labels)
        bos = n_labels
        delta = np.zeros((n, n_labels))
        backpointer = np.zeros((n, n_labels), dtype=int)
        delta[0] = scores[0] + self.transition[bos]
        for t in range(1, n):
            candidate = delta[t - 1][:, None] + self.transition[:n_labels]
            backpointer[t] = np.argmax(candidate, axis=0)
            delta[t] = scores[t] + np.max(candidate, axis=0)
        path = [int(np.argmax(delta[-1]))]
        for t in range(n - 1, 0, -1):
            path.append(int(backpointer[t, path[-1]]))
        path.reverse()
        return [self.labels[i] for i in path]

    # -- persistence ---------------------------------------------------------
    def save(self, path: str) -> None:
        """Persist the trained model (labels, feature vocab, weights)."""
        if not self.fitted:
            raise RuntimeError("cannot save an unfitted CRF")
        features = sorted(self.feature_index, key=self.feature_index.get)
        np.savez_compressed(
            path,
            labels=np.array(self.labels, dtype=object),
            features=np.array(features, dtype=object),
            emission=self.emission,
            transition=self.transition,
            l2=np.array([self.l2]),
        )

    @classmethod
    def load(cls, path: str) -> "LinearChainCRF":
        """Restore a model saved with :meth:`save`."""
        data = np.load(path, allow_pickle=True)
        model = cls(list(data["labels"]), l2=float(data["l2"][0]))
        model.feature_index = {name: i for i, name in enumerate(data["features"])}
        model.emission = data["emission"]
        model.transition = data["transition"]
        model.fitted = True
        return model

    def evaluate(
        self,
        sequences: Sequence[Sequence[FeatureSet]],
        label_sequences: Sequence[Sequence[str]],
        ignore: str = "O",
    ) -> Dict[str, float]:
        """Token-level precision / recall / F1 on entity labels."""
        true_positive = false_positive = false_negative = 0
        for sequence, gold in zip(sequences, label_sequences):
            predicted = self.predict(sequence)
            for predicted_label, gold_label in zip(predicted, gold):
                if gold_label != ignore and predicted_label == gold_label:
                    true_positive += 1
                elif predicted_label != ignore and predicted_label != gold_label:
                    false_positive += 1
                if gold_label != ignore and predicted_label != gold_label:
                    false_negative += 1
        precision = true_positive / max(1, true_positive + false_positive)
        recall = true_positive / max(1, true_positive + false_negative)
        f1 = 2 * precision * recall / max(1e-12, precision + recall)
        return {"precision": precision, "recall": recall, "f1": f1}
