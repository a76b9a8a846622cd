"""Tests for the simulated study harness (Tables 8/10, Figure 9a)."""

import pytest

from benchmarks.paper.study.harness import run_method, run_study
from benchmarks.paper.study.metrics import kth_score_deviation, study_accuracy
from benchmarks.paper.study.tasks import TASK_CODES, build_tasks


@pytest.fixture(scope="module")
def tasks():
    return build_tasks(seed=42, length=90, distractors=12)


class TestMetrics:
    def test_study_accuracy(self):
        relevance = {"a": 5.0, "b": 3.0, "c": 0.0}
        assert study_accuracy(["a", "b"], relevance, k=2) == pytest.approx(100.0)
        assert study_accuracy(["a", "c"], relevance, k=2) == pytest.approx(100 * 5 / 8)
        assert study_accuracy([], relevance, k=2) == 0.0

    def test_kth_score_deviation(self):
        assert kth_score_deviation([0.9, 0.8], [0.9, 0.8]) == pytest.approx(0.0)
        assert kth_score_deviation([0.9, 0.6], [0.9, 0.8]) > 0


class TestTasks:
    def test_all_seven_categories(self, tasks):
        assert [task.code for task in tasks] == list(TASK_CODES)

    def test_ground_truth_sane(self, tasks):
        for task in tasks:
            relevant = [key for key, score in task.relevance.items() if score >= 5.0]
            assert len(relevant) >= 3, task.code
            assert task.best_achievable() > 0

    def test_queries_parse(self, tasks):
        from repro.parser import parse

        for task in tasks:
            parse(task.query)

    def test_trendline_keys_match_relevance(self, tasks):
        for task in tasks:
            keys = {tl.key for tl in task.trendlines}
            assert set(task.relevance) == keys


class TestHarness:
    def test_run_method_unknown(self, tasks):
        with pytest.raises(ValueError):
            run_method(tasks[0], "oracle")

    def test_shapesearch_beats_value_measures_on_blurry_tasks(self, tasks):
        """The §7.3 headline: algebra scoring > DTW/Euclidean on average."""
        subset = [task for task in tasks if task.code in ("SQ", "SP", "WS", "MXY", "CS")]
        result = run_study(
            methods=("shapesearch-dp", "dtw", "euclidean"), tasks=subset
        )
        shapesearch = result.method_average("shapesearch-dp")
        assert shapesearch >= result.method_average("dtw")
        assert shapesearch >= result.method_average("euclidean")
        assert shapesearch >= 75.0

    def test_segment_tree_close_to_dp_on_tasks(self, tasks):
        subset = [task for task in tasks if task.code in ("SQ", "CS")]
        result = run_study(methods=("shapesearch-dp", "shapesearch-st"), tasks=subset)
        for code in ("SQ", "CS"):
            dp = result.accuracy[code]["shapesearch-dp"]
            st = result.accuracy[code]["shapesearch-st"]
            assert st >= 0.8 * dp

    def test_exact_trend_task_favours_value_measures_or_ties(self, tasks):
        """ET is the task where sketch/VQS measures are competitive (§7.2)."""
        subset = [task for task in tasks if task.code == "ET"]
        result = run_study(methods=("dtw", "euclidean"), tasks=subset)
        assert max(result.accuracy["ET"].values()) >= 60.0
