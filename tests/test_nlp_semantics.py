"""The vocabulary graph's distance table against networkx, pair for pair.

``repro.nlp.semantics`` measured similarity with networkx shortest paths
until the import diet; its breadth-first table must give the same
``1 / (1 + hops)`` float for every ordered pair of graph words.
"""

import pytest

from repro.nlp import semantics


def test_path_similarity_equals_networkx_on_every_ordered_pair():
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_edges_from(semantics._EDGES)
    words = sorted(graph)
    assert words == sorted(semantics._hops())
    for a in words:
        hops = nx.single_source_shortest_path_length(graph, a)
        for b in words:
            # No path (the "sharp" neighbourhood is an island): 0.0.
            expected = 1.0 / (1.0 + hops[b]) if b in hops else 0.0
            assert semantics.path_similarity(a, b) == expected, (a, b)


def test_disconnected_and_unknown_words_score_zero(monkeypatch):
    monkeypatch.setattr(semantics, "_EDGES", semantics._EDGES + [("island", "atoll")])
    semantics._hops.cache_clear()
    try:
        assert semantics.path_similarity("island", "atoll") == 0.5
        assert semantics.path_similarity("island", "up") == 0.0
        assert semantics.path_similarity("up", "island") == 0.0
        assert semantics.path_similarity("xylophone", "island") == 0.0
        assert semantics.path_similarity("Xylophone", "xylophone") == 1.0
    finally:
        semantics._hops.cache_clear()
