"""Top-k correctness of the exactness-preserving optimizations.

The two-stage collective pruning driver (§6.3, the library function
:func:`~repro.engine.pruning.prune_and_rank` that Fig 10 and Fig 13
measure) and the push-down optimizations (§5.4) are
*exactness-preserving*: pruning discards a candidate only when its score
upper bound is provably below the current top-k floor, and push-down
only skips work the query provably cannot use.  These tests assert that
on the synthetic evaluation suites both return the same top-k set —
same keys, same scores — as the unoptimized engine, catching
eager-discard/pruning false negatives.
"""

import pytest

from repro.data.visual_params import VisualParams
from repro.datasets.suites import SUITES, suite_table, suite_trendlines
from repro.engine.chains import compile_query
from repro.engine.executor import ShapeSearchEngine
from repro.engine.pruning import PruningReport, prune_and_rank
from repro.parser import parse

#: Scaled-down suite sizes so the whole module stays CI-friendly.
MAX_VIZ = 40
MAX_LEN = 120

PRUNING_CASES = [
    (name, text)
    for name in ("weather", "worms", "realestate")
    for text in SUITES[name].fuzzy_queries[:2]
]


def _result_set(pairs):
    return sorted((key, round(score, 9)) for key, score in pairs)


@pytest.mark.parametrize("suite,query_text", PRUNING_CASES)
def test_pruning_matches_unoptimized_top_k(suite, query_text):
    trendlines = suite_trendlines(suite, max_visualizations=MAX_VIZ, max_length=MAX_LEN)
    query = compile_query(parse(query_text))
    baseline = ShapeSearchEngine().rank(trendlines, query, k=10)
    report = PruningReport()
    pruned = prune_and_rank(list(trendlines), query, k=10, report=report)
    assert _result_set(
        [(trendline.key, result.score) for trendline, result in pruned]
    ) == _result_set([(match.key, match.score) for match in baseline])
    # The driver really exercised the two-stage machinery.
    assert report.sampled > 0
    assert report.completed + report.pruned <= report.candidates == len(trendlines)


@pytest.mark.parametrize(
    "suite,query_text",
    [
        ("weather", "[p=down,x.s=0,x.e=30][p=up,x.s=30,x.e=90]"),
        ("worms", "[p=down,x.s=20,x.e=60]"),
        ("50words", "[p=up,x.s=10,x.e=50][p=down,x.s=60,x.e=100]"),
    ],
)
def test_pushdown_matches_unoptimized_top_k(suite, query_text):
    table = suite_table(suite, max_visualizations=25, max_length=100)
    params = VisualParams(z="z", x="x", y="y")
    node = parse(query_text)
    with_pushdown = ShapeSearchEngine(enable_pushdown=True).run(
        table, params, node, k=8
    )
    without = ShapeSearchEngine(enable_pushdown=False).run(table, params, node, k=8)
    # Keys must agree exactly; keep-span trimming (push-down (c)) changes
    # the float accumulation order, so scores agree to ~1e-12, not bitwise.
    assert {m.key for m in with_pushdown} == {m.key for m in without}
    on_scores = {m.key: m.score for m in with_pushdown}
    for match in without:
        assert match.score == pytest.approx(on_scores[match.key], abs=1e-9)

