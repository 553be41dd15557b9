"""Tests for the Porter stemmer against the algorithm's canonical examples."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.scoring import ScoreStore
from repro.nlp.dictionary import build_synthetic_hatebase
from repro.nlp.langid import SEED_CORPORA
from repro.nlp.lexicons import (
    ATTACK_PHRASES,
    BENIGN_VOCAB,
    OBSCENE_VOCAB,
    OFFENSIVE_VOCAB,
    RUDE_VOCAB,
    hate_vocab,
)
from repro.nlp.stem import PorterStemmer, _memo_stem, _step_chain, stem
from repro.platform.entities import CommentLatent
from repro.platform.textgen import CommentTextGenerator

# Canonical examples from Porter's 1980 paper, step by step.
CANONICAL = [
    # Step 1a
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("caress", "caress"),
    ("cats", "cat"),
    # Step 1b
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    # Step 1c
    ("happy", "happi"),
    ("sky", "sky"),
    # Step 2
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("digitizer", "digit"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formality", "formal"),
    ("sensitivity", "sensit"),
    ("sensibility", "sensibl"),
    # Step 3
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electricity", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    # Step 4
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    # Step 5
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
]


class TestPorterCanonical:
    @pytest.mark.parametrize("word,expected", CANONICAL)
    def test_canonical_example(self, word, expected):
        assert stem(word) == expected


class TestStemmerBehaviour:
    def test_short_tokens_unchanged(self):
        assert stem("a") == "a"
        assert stem("is") == "is"
        assert stem("ox") == "ox"

    def test_case_insensitive(self):
        assert stem("Running") == stem("running")

    def test_idempotent_on_common_words(self):
        stemmer = PorterStemmer()
        for word in ("run", "hous", "troubl", "fall", "govern"):
            assert stemmer.stem(stemmer.stem(word)) == stemmer.stem(word)

    def test_inflected_family_collapses(self):
        family = ["connect", "connected", "connecting", "connection", "connections"]
        stems = {stem(w) for w in family}
        assert stems == {"connect"}

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
    def test_never_longer_than_input(self, word):
        assert len(stem(word)) <= len(word)

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=3, max_size=20))
    def test_output_nonempty_lowercase(self, word):
        result = stem(word)
        assert result
        assert result == result.lower()


class TestStemMemo:
    """``PorterStemmer.stem`` goes through a bounded module-level memo."""

    @staticmethod
    def _vocabulary() -> list[str]:
        words = [
            *BENIGN_VOCAB, *OFFENSIVE_VOCAB, *OBSCENE_VOCAB, *RUDE_VOCAB,
            *hate_vocab(), *build_synthetic_hatebase(),
            *(w for phrase in ATTACK_PHRASES for w in phrase.split()),
            *(w for text in SEED_CORPORA.values() for w in text.split()),
        ]
        return words + [w.upper() for w in words]

    def test_memo_equals_uncached_chain_on_every_vocabulary_word(self):
        stemmer = PorterStemmer()
        for word in self._vocabulary():
            expected = _step_chain(word)
            assert stemmer.stem(word) == expected   # miss (or earlier hit)
            assert stemmer.stem(word) == expected   # hit

    @given(st.text(max_size=24))
    def test_memo_equals_uncached_chain_on_any_text(self, word):
        assert stem(word) == _step_chain(word)
        assert stem(word) == _step_chain(word)

    def test_memo_size_stays_bounded(self):
        bound = _memo_stem.cache_info().maxsize
        assert bound is not None
        try:
            # Two-character tokens skip the step chain, so overfilling
            # the memo stays cheap.
            for i in range(bound + 1000):
                stem(chr(0x4E00 + i % 20000) + str(i // 20000))
            info = _memo_stem.cache_info()
            assert info.currsize <= bound
            assert info.misses >= bound + 1000
        finally:
            _memo_stem.cache_clear()

    def test_thread_parallel_scoring_matches_serial(self):
        rng = np.random.default_rng(5)
        gen = CommentTextGenerator(rng)
        texts = [
            gen.generate(CommentLatent(*(float(x) for x in rng.random(4))))
            for _ in range(300)
        ]

        def run(workers: int) -> str:
            _memo_stem.cache_clear()
            return json.dumps(ScoreStore(workers=workers).score_many(texts))

        assert run(2) == run(0)
