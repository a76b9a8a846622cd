"""Entity synonym lexicon and edit-distance matching (paper §4).

The paper keeps "a list of frequently occurring words, called synonyms,
for each entity type (e.g. 'increasing' for up, 'next' for CONCAT)" and
tags a token with the entity whose synonym it matches within a small
edit distance.  This module holds those lists for the whole entity
space, plus the normalized-edit-distance matcher used both as a CRF
feature (``predicted-entity``) and as the value-resolution step for
PATTERN/MODIFIER words.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

#: Entity labels used across the NL pipeline (CRF label space minus O).
ENTITY_LABELS = (
    "PATTERN",
    "MODIFIER",
    "QUANT",
    "OP_SEQ",
    "OP_OR",
    "OP_AND",
    "OP_NOT",
    "LOC",
    "NUM",
    "WIDTH",
)

#: value -> synonyms, for PATTERN words.  Values marked "compound:*" are
#: expanded by the translator (a peak is up-then-down).
PATTERN_SYNONYMS: Dict[str, Tuple[str, ...]] = {
    "up": (
        "up", "rise", "rises", "rising", "rose", "increase", "increases",
        "increasing", "increased", "grow", "grows", "growing", "grew",
        "climb", "climbs", "climbing", "climbed", "upward", "uptrend",
        "recover", "recovers", "recovering", "gaining", "expressed",
        "ascending", "improving", "higher",
    ),
    "down": (
        "down", "fall", "falls", "falling", "fell", "decrease", "decreases",
        "decreasing", "decreased", "drop", "drops", "dropping", "dropped",
        "decline", "declines", "declining", "declined", "downward",
        "downtrend", "reduce", "reduces", "reducing", "reduced", "shrinking",
        "descending", "lower", "suppressed",
    ),
    "flat": (
        "flat", "stable", "stabilize", "stabilizes", "stabilized",
        "stabilizing", "constant", "steady", "plateau", "plateaus", "level",
        "unchanged", "still", "stagnant", "remains", "remain", "remained",
    ),
    "compound:peak": ("peak", "peaks", "spike", "spikes", "bump", "top", "tops", "maxima"),
    "compound:valley": ("valley", "valleys", "dip", "dips", "trough", "troughs", "bottom", "bottoms"),
}

#: value -> synonyms for MODIFIER words ('sharp' => m='>>', 'gradual' => m='>').
MODIFIER_SYNONYMS: Dict[str, Tuple[str, ...]] = {
    "sharp": (
        "sharp", "sharply", "steep", "steeply", "quickly", "rapid", "rapidly",
        "sudden", "suddenly", "fast", "drastically", "strongly",
    ),
    "gradual": (
        "gradual", "gradually", "slow", "slowly", "gentle", "gently",
        "slight", "slightly", "steadily", "mildly",
    ),
}

QUANT_SYNONYMS: Dict[str, Tuple[str, ...]] = {
    "times": ("times", "occurrences", "occurrence"),
    "at-least": ("least", "atleast"),
    "at-most": ("most", "atmost"),
    "exactly": ("exactly",),
    "once": ("once",),
    "twice": ("twice",),
    "thrice": ("thrice",),
}

OP_SEQ_SYNONYMS = (
    "then", "next", "followed", "after", "afterwards", "later", "subsequently",
    "finally", "first", "initially", "before", "thereafter",
)
OP_OR_SYNONYMS = ("or",)
OP_AND_SYNONYMS = ("while", "simultaneously", "meanwhile", "also", "whilst")
OP_NOT_SYNONYMS = ("not", "without", "never", "opposite", "isnt", "arent")
LOC_SYNONYMS = ("from", "to", "between", "at", "until", "till", "starting", "ending", "x", "y")
WIDTH_SYNONYMS = (
    "within", "span", "window", "width", "during", "wide", "months", "month",
    "weeks", "week", "days", "day", "points", "hours", "hour",
)

_NUMBER_WORDS = {
    "zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
    "eleven": 11, "twelve": 12,
}

#: Words that must never fuzzy-match an entity synonym: command verbs,
#: function words and domain nouns (the z-attribute vocabulary).  The
#: rule-based tagger treats these as noise outright; the CRF learns the
#: same from corpus context, but the stop-list also guards its
#: ``predicted-entity`` feature against lookalike matches ("show"/"slow").
NOISE_WORDS = frozenset(
    """
    show shows me find finds want wants search searching searches give get
    see look looking a an the this that these those is are was were be been
    being with without whose which where what who when has have had do does
    did of in on it its as by for i we you they them their there here and
    but so if than me us our your all any some each every other another
    either neither going moving getting maximum minimum
    trend trends data dataset visualization visualizations chart charts
    gene genes stock stocks city cities product products object objects
    luminosity temperature sales price prices expression series pattern
    patterns shape shapes value values middle start end beginning year years
    """.split()
)


def edit_distance(a: str, b: str) -> int:
    """Classic Levenshtein distance (iterative, O(|a|·|b|))."""
    if a == b:
        return 0
    if not a or not b:
        return len(a) + len(b)
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def normalized_edit_distance(a: str, b: str) -> float:
    """Edit distance divided by the average word length (paper §4)."""
    average = (len(a) + len(b)) / 2.0
    if average == 0:
        return 0.0
    return edit_distance(a, b) / average


def _best_in(word: str, synonyms: Iterable[str]) -> Tuple[Optional[str], float]:
    best_synonym, best_distance = None, float("inf")
    for synonym in synonyms:
        # Levenshtein distance is at least the length difference, so a
        # synonym whose length alone puts it at or past the current best
        # cannot win the strict comparison below — skip the O(|a|·|b|) table.
        average = (len(word) + len(synonym)) / 2.0
        if average and abs(len(word) - len(synonym)) / average >= best_distance:
            continue
        distance = normalized_edit_distance(word, synonym)
        if distance < best_distance:
            best_synonym, best_distance = synonym, distance
    return best_synonym, best_distance


def parse_number_word(word: str) -> Optional[float]:
    """Numeric value of a digit string or a small number word."""
    lower = word.lower()
    if lower in _NUMBER_WORDS:
        return float(_NUMBER_WORDS[lower])
    try:
        return float(lower)
    except ValueError:
        return None


#: Matching threshold: normalized edit distance at or below this counts as
#: a synonym hit (paper: raw edit distance <= 2 on typical word lengths).
MATCH_THRESHOLD = 0.26

#: Entries per token-lookup memo below.  The synonym tables are module
#: constants, so every lookup is a pure function of the lower-cased
#: token; a query vocabulary is a few hundred words, so the bound only
#: guards against adversarial token streams.
LOOKUP_CACHE_SIZE = 4096


def predict_entity(word: str) -> Optional[str]:
    """Entity label suggested by the synonym lists (a CRF feature)."""
    return _predict_entity(word.lower())


def resolve_pattern_value(word: str) -> Tuple[Optional[str], float]:
    """Best PATTERN value for a word (possibly a compound like peak)."""
    return _resolve_value("pattern", word.lower())


def resolve_modifier_value(word: str) -> Tuple[Optional[str], float]:
    """Best MODIFIER value (sharp/gradual) for a word."""
    return _resolve_value("modifier", word.lower())


def resolve_quant_value(word: str) -> Tuple[Optional[str], float]:
    """Best QUANT marker for a word (times/at-least/at-most/...)."""
    return _resolve_value("quant", word.lower())


@lru_cache(maxsize=LOOKUP_CACHE_SIZE)
def _predict_entity(lower: str) -> Optional[str]:
    if parse_number_word(lower) is not None:
        return "NUM"
    if lower in NOISE_WORDS:
        return None
    candidates: List[Tuple[str, float]] = []
    for synonyms in PATTERN_SYNONYMS.values():
        _, distance = _best_in(lower, synonyms)
        candidates.append(("PATTERN", distance))
    for synonyms in MODIFIER_SYNONYMS.values():
        _, distance = _best_in(lower, synonyms)
        candidates.append(("MODIFIER", distance))
    for synonyms in QUANT_SYNONYMS.values():
        _, distance = _best_in(lower, synonyms)
        candidates.append(("QUANT", distance))
    for label, synonyms in (
        ("OP_SEQ", OP_SEQ_SYNONYMS),
        ("OP_OR", OP_OR_SYNONYMS),
        ("OP_AND", OP_AND_SYNONYMS),
        ("OP_NOT", OP_NOT_SYNONYMS),
        ("LOC", LOC_SYNONYMS),
        ("WIDTH", WIDTH_SYNONYMS),
    ):
        _, distance = _best_in(lower, synonyms)
        candidates.append((label, distance))
    label, distance = min(candidates, key=lambda item: item[1])
    if distance <= MATCH_THRESHOLD:
        return label
    return None


_VALUE_SYNONYMS = {
    "pattern": PATTERN_SYNONYMS,
    "modifier": MODIFIER_SYNONYMS,
    "quant": QUANT_SYNONYMS,
}


@lru_cache(maxsize=LOOKUP_CACHE_SIZE)
def _resolve_value(table: str, lower: str) -> Tuple[Optional[str], float]:
    """Closest value of one synonym table, with its normalized distance."""
    best_value, best_distance = None, float("inf")
    for value, synonyms in _VALUE_SYNONYMS[table].items():
        _, distance = _best_in(lower, synonyms)
        if distance < best_distance:
            best_value, best_distance = value, distance
    return best_value, best_distance
