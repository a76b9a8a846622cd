"""Semantic similarity over the shape vocabulary (paper §4).

When edit distance fails to match a word to a supported value, the paper
falls back to WordNet synset similarity.  WordNet is unavailable offline,
so this module builds the slice of it that matters — a small semantic
network over shape/trend vocabulary — and measures similarity by inverse
shortest-path length, the same formula as WordNet's ``path_similarity``.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Dict, Optional, Tuple

#: Edges of the semantic network.  Each tuple links two related words;
#: concept hubs (``up``, ``down``, ``flat``, ``sharp``, ``gradual``)
#: anchor their synonym neighbourhoods.
_EDGES = [
    # up neighbourhood
    ("up", "rise"), ("up", "increase"), ("up", "grow"), ("up", "climb"),
    ("up", "ascend"), ("rise", "soar"), ("rise", "surge"), ("increase", "gain"),
    ("grow", "expand"), ("climb", "scale"), ("up", "improve"), ("rise", "rally"),
    ("up", "recover"), ("surge", "jump"), ("up", "higher"), ("gain", "advance"),
    # down neighbourhood
    ("down", "fall"), ("down", "decrease"), ("down", "drop"), ("down", "decline"),
    ("down", "descend"), ("fall", "plunge"), ("fall", "tumble"), ("decrease", "reduce"),
    ("drop", "dive"), ("decline", "slump"), ("down", "worsen"), ("fall", "sink"),
    ("down", "lower"), ("decrease", "shrink"), ("drop", "crash"), ("down", "suppress"),
    # flat neighbourhood
    ("flat", "stable"), ("flat", "constant"), ("flat", "steady"), ("flat", "level"),
    ("stable", "unchanged"), ("constant", "fixed"), ("steady", "plateau"),
    ("flat", "stagnant"), ("stable", "still"), ("flat", "horizontal"),
    # sharp neighbourhood
    ("sharp", "steep"), ("sharp", "sudden"), ("sharp", "rapid"), ("sharp", "quick"),
    ("sudden", "abrupt"), ("rapid", "fast"), ("steep", "drastic"), ("quick", "swift"),
    ("sharp", "strong"), ("rapid", "speedy"),
    # gradual neighbourhood
    ("gradual", "slow"), ("gradual", "gentle"), ("gradual", "slight"),
    ("gradual", "steady"), ("slow", "mild"), ("gentle", "soft"), ("slight", "small"),
    # shape nouns
    ("peak", "top"), ("peak", "spike"), ("peak", "summit"), ("peak", "maximum"),
    ("valley", "dip"), ("valley", "trough"), ("valley", "bottom"), ("valley", "minimum"),
    ("peak", "up"), ("valley", "down"), ("spike", "jump"), ("dip", "drop"),
    # cross-concept antonymy bridges keep the graph connected while
    # staying distant (>= 3 hops between opposite hubs).
    ("higher", "trend"), ("lower", "trend"), ("horizontal", "trend"),
]


@lru_cache(maxsize=1)
def _hops() -> Dict[str, Dict[str, int]]:
    """Shortest-path length between every connected word pair (built once).

    One breadth-first sweep per word over the undirected :data:`_EDGES`
    graph; a pair no path joins is simply absent.
    """
    neighbours: Dict[str, list] = {}
    for a, b in _EDGES:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    table = {}
    for source in neighbours:
        reached = {source: 0}
        queue = deque([source])
        while queue:
            word = queue.popleft()
            for other in neighbours[word]:
                if other not in reached:
                    reached[other] = reached[word] + 1
                    queue.append(other)
        table[source] = reached
    return table


def path_similarity(a: str, b: str) -> float:
    """``1 / (1 + shortest path length)``; 0.0 when unrelated/unknown."""
    a, b = a.lower(), b.lower()
    if a == b:
        return 1.0
    distance = _hops().get(a, {}).get(b)
    if distance is None:
        return 0.0
    return 1.0 / (1.0 + distance)


#: Representative anchor per resolvable value.
_VALUE_ANCHORS: Dict[str, Tuple[str, ...]] = {
    "up": ("up", "rise", "increase"),
    "down": ("down", "fall", "decrease"),
    "flat": ("flat", "stable", "constant"),
    "compound:peak": ("peak", "spike"),
    "compound:valley": ("valley", "dip"),
    "sharp": ("sharp", "sudden", "rapid"),
    "gradual": ("gradual", "slow", "gentle"),
}


def semantic_value(word: str, kind: str) -> Optional[str]:
    """Resolve a word to a PATTERN or MODIFIER value by graph proximity.

    ``kind`` is ``"pattern"`` or ``"modifier"``; returns the best value
    or None when the word is not in the network's neighbourhood.
    """
    if kind == "pattern":
        values = ("up", "down", "flat", "compound:peak", "compound:valley")
    else:
        values = ("sharp", "gradual")
    best_value, best_score = None, 0.0
    for value in values:
        score = max(path_similarity(word, anchor) for anchor in _VALUE_ANCHORS[value])
        if score > best_score:
            best_value, best_score = value, score
    if best_score >= 0.25:  # within two hops of an anchor
        return best_value
    return None
