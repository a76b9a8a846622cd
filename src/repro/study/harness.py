"""Simulated study harness: scoring functions vs VQS measures (§7.3).

Reproduces the machine-side comparison behind Figure 9a's red bars and
Table 8's accuracy column: for every Table 10 task, rank the candidate
visualizations with

* the ShapeSearch scoring functions (DP-optimal segmentation, and
  optionally the SegmentTree engine used live during the study),
* DTW against the task's reference sketch, and
* Euclidean distance against the same sketch,

then measure each method's study accuracy against the programmatic
ground truth.  Human timing and preference results are *not* simulated
(ROADMAP item 3's ledger, not yet written, will record that); what is
reproduced is the claim that the algebra's scoring outranks value-based
measures on blurry tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines.vqs import VisualQuerySystem
from repro.engine.executor import ShapeSearchEngine
from repro.parser import parse
from repro.study.metrics import study_accuracy
from repro.study.tasks import Task, build_tasks

#: Method identifiers understood by the harness.
METHODS = ("shapesearch-dp", "shapesearch-st", "dtw", "euclidean")


@dataclass
class StudyResult:
    """Accuracy (%) per task per method, plus the task list used."""

    accuracy: Dict[str, Dict[str, float]] = field(default_factory=dict)
    tasks: List[Task] = field(default_factory=list)

    def method_average(self, method: str) -> float:
        values = [per_task[method] for per_task in self.accuracy.values() if method in per_task]
        return sum(values) / len(values) if values else 0.0


def run_method(task: Task, method: str, k: Optional[int] = None) -> List:
    """Retrieve top-k keys for one task with one method."""
    k = k if k is not None else task.k
    if method in ("shapesearch-dp", "shapesearch-st"):
        algorithm = "dp" if method.endswith("dp") else "segment-tree"
        engine = ShapeSearchEngine(algorithm=algorithm)
        matches = engine.rank(task.trendlines, parse(task.query), k=k)
        return [match.key for match in matches]
    if method in ("dtw", "euclidean"):
        vqs = VisualQuerySystem(measure=method)
        ranked = vqs.rank(task.trendlines, task.sketch, k=k)
        return [trendline.key for trendline, _ in ranked]
    raise ValueError("unknown method {!r}".format(method))


def run_study(
    methods: Sequence[str] = METHODS,
    tasks: Optional[List[Task]] = None,
    seed: int = 42,
    k: Optional[int] = None,
) -> StudyResult:
    """Evaluate every method on every task; returns accuracy percentages."""
    tasks = tasks if tasks is not None else build_tasks(seed=seed)
    result = StudyResult(tasks=tasks)
    for task in tasks:
        per_task: Dict[str, float] = {}
        for method in methods:
            retrieved = run_method(task, method, k=k)
            per_task[method] = study_accuracy(
                retrieved, task.relevance, k if k is not None else task.k
            )
        result.accuracy[task.code] = per_task
    return result
