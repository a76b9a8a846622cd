"""Tests for the NL pipeline components: POS, lexicon, semantics, features."""

import pytest

from repro.nlp import lexicon, semantics
from repro.nlp.features import extract_features
from repro.nlp.pos import pos_tags, tag_word, tokenize


class TestPos:
    def test_tokenize(self):
        assert tokenize("rising, then falling") == ["rising", ",", "then", "falling"]
        assert tokenize("from 2 to 5.5") == ["from", "2", "to", "5.5"]

    @pytest.mark.parametrize(
        "word,expected",
        [
            ("the", "DET"),
            ("from", "PREP"),
            ("and", "CONJ"),
            ("rising", "ADJ"),
            ("sharply", "ADV"),
            ("sharp", "ADJ"),
            ("genes", "NOUN"),
            ("3", "NUM"),
            ("two", "NUM"),
            (",", "PUNCT"),
            ("they", "PRON"),
        ],
    )
    def test_known_words(self, word, expected):
        assert tag_word(word) == expected

    def test_suffix_heuristics(self):
        assert tag_word("zigzagging") == "VERB"
        assert tag_word("smoothly") == "ADV"

    def test_pos_tags_alignment(self):
        tokens = tokenize("show me rising trends")
        assert len(pos_tags(tokens)) == len(tokens)


class TestLexicon:
    def test_edit_distance(self):
        assert lexicon.edit_distance("rising", "rising") == 0
        assert lexicon.edit_distance("rising", "risin") == 1
        assert lexicon.edit_distance("", "abc") == 3
        assert lexicon.edit_distance("kitten", "sitting") == 3

    def test_normalized_edit_distance(self):
        assert lexicon.normalized_edit_distance("abc", "abc") == 0.0
        assert lexicon.normalized_edit_distance("", "") == 0.0

    @pytest.mark.parametrize(
        "word,label",
        [
            ("increasing", "PATTERN"),
            ("falling", "PATTERN"),
            ("stable", "PATTERN"),
            ("sharply", "MODIFIER"),
            ("then", "OP_SEQ"),
            ("or", "OP_OR"),
            ("not", "OP_NOT"),
            ("from", "LOC"),
            ("3", "NUM"),
            ("twice", "QUANT"),
        ],
    )
    def test_predict_entity(self, word, label):
        assert lexicon.predict_entity(word) == label

    def test_noise_words_never_match(self):
        for word in ("show", "me", "genes", "the", "that"):
            assert lexicon.predict_entity(word) is None

    def test_typo_tolerance(self):
        assert lexicon.predict_entity("incresing") == "PATTERN"
        value, distance = lexicon.resolve_pattern_value("incresing")
        assert value == "up"

    def test_resolve_pattern_values(self):
        assert lexicon.resolve_pattern_value("declining")[0] == "down"
        assert lexicon.resolve_pattern_value("plateau")[0] == "flat"
        assert lexicon.resolve_pattern_value("peak")[0] == "compound:peak"
        assert lexicon.resolve_pattern_value("dip")[0] == "compound:valley"

    def test_resolve_modifier_values(self):
        assert lexicon.resolve_modifier_value("steeply")[0] == "sharp"
        assert lexicon.resolve_modifier_value("gently")[0] == "gradual"

    def test_number_words(self):
        assert lexicon.parse_number_word("three") == 3.0
        assert lexicon.parse_number_word("7") == 7.0
        assert lexicon.parse_number_word("rising") is None


def _lexicon_words():
    """Every synonym, stop word and number word, plus misspellings."""
    words = set(lexicon.NOISE_WORDS) | set(lexicon._NUMBER_WORDS)
    for table in (lexicon.PATTERN_SYNONYMS, lexicon.MODIFIER_SYNONYMS, lexicon.QUANT_SYNONYMS):
        for synonyms in table.values():
            words.update(synonyms)
    for synonyms in (
        lexicon.OP_SEQ_SYNONYMS, lexicon.OP_OR_SYNONYMS, lexicon.OP_AND_SYNONYMS,
        lexicon.OP_NOT_SYNONYMS, lexicon.LOC_SYNONYMS, lexicon.WIDTH_SYNONYMS,
    ):
        words.update(synonyms)
    misspelt = {word[:-1] for word in words if len(word) > 3}
    misspelt |= {word[0] + word[2:] for word in words if len(word) > 4}
    misspelt |= {word + "x" for word in words}
    misspelt |= {"Rising", "FALLING", "incresing", "decreesing", "platau", "xyzzy", "", "42", "4.5"}
    return sorted(words | misspelt)


class TestLookupMemo:
    """The token lookups are memoized pure functions of the lowered token."""

    LOOKUPS = (
        (lexicon.predict_entity, lexicon._predict_entity),
        (lexicon.resolve_pattern_value, lexicon._resolve_value),
        (lexicon.resolve_modifier_value, lexicon._resolve_value),
        (lexicon.resolve_quant_value, lexicon._resolve_value),
    )

    def test_warm_answers_equal_cold_answers(self):
        words = _lexicon_words()
        for lookup, memo in self.LOOKUPS:
            memo.cache_clear()
            cold = [lookup(word) for word in words]
            assert memo.cache_info().misses > 0
            hits = memo.cache_info().hits
            warm = [lookup(word) for word in words]
            assert memo.cache_info().hits >= hits + len(words)
            assert warm == cold

    def test_memo_is_bounded(self):
        for _lookup, memo in self.LOOKUPS:
            assert memo.cache_info().maxsize == lexicon.LOOKUP_CACHE_SIZE

    def test_length_early_out_never_changes_the_best_synonym(self):
        synonyms = [s for group in lexicon.PATTERN_SYNONYMS.values() for s in group]
        for word in _lexicon_words():
            scored = [(lexicon.normalized_edit_distance(word, s), s) for s in synonyms]
            distance = min(d for d, _ in scored)
            first = next(s for d, s in scored if d == distance)
            assert lexicon._best_in(word, synonyms) == (first, distance)


class TestSemantics:
    def test_identity_similarity(self):
        assert semantics.path_similarity("rise", "rise") == 1.0

    def test_neighbours_are_close(self):
        assert semantics.path_similarity("rise", "up") == pytest.approx(0.5)
        assert semantics.path_similarity("soar", "up") == pytest.approx(1 / 3)

    def test_opposites_are_distant(self):
        assert semantics.path_similarity("up", "down") < 0.25

    def test_unknown_word(self):
        assert semantics.path_similarity("xylophone", "up") == 0.0

    def test_semantic_value_pattern(self):
        assert semantics.semantic_value("soar", "pattern") == "up"
        assert semantics.semantic_value("plunge", "pattern") == "down"
        assert semantics.semantic_value("unchanged", "pattern") == "flat"

    def test_semantic_value_modifier(self):
        assert semantics.semantic_value("abrupt", "modifier") == "sharp"
        assert semantics.semantic_value("mild", "modifier") == "gradual"

    def test_semantic_value_unknown(self):
        assert semantics.semantic_value("xylophone", "pattern") is None


class TestFeatures:
    def test_one_row_per_token(self):
        tokens = tokenize("rising then falling")
        features = extract_features(tokens)
        assert len(features) == 3

    def test_table3_families_present(self):
        tokens = tokenize("genes rising sharply from 2 to 5 , then falling")
        features = extract_features(tokens)
        joined = " ".join(features[1])  # the word "rising"
        assert "word=rising" in joined
        assert "pos=" in joined
        assert "pred=PATTERN" in joined
        assert "d(space+)=" in joined
        assert "ends(ing)=True" in joined

    def test_distance_bucketing(self):
        tokens = tokenize("rising a b c d e then falling")
        features = extract_features(tokens)
        assert any("d(and-then+)" in feature for feature in features[0])
        joined = " ".join(features[0])
        assert "d(punct-)=none" in joined
