"""Feature extraction for the Perspective models.

Tokenises a comment and measures the rate of each vocabulary class the
platform's text generator emits, plus surface features (caps ratio,
exclamation bursts, attack-phrase presence).  Lookup is by stemmed token
against stemmed vocabulary sets, mirroring the dictionary scorer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from repro.nlp.dictionary import AMBIGUOUS_TERMS, SUBSTRING_TRAP_TERM
from repro.nlp.lexicons import (
    ATTACK_PHRASES,
    OBSCENE_VOCAB,
    OFFENSIVE_VOCAB,
    RUDE_VOCAB,
    hate_vocab,
)
from repro.nlp.stem import PorterStemmer
from repro.nlp.tokenize import caps_ratio, tokenize

__all__ = ["CommentFeatures", "extract_features"]

_STEMMER = PorterStemmer()


@lru_cache(maxsize=1)
def _stemmed_sets() -> dict[str, frozenset[str]]:
    def stems(words) -> frozenset[str]:
        return frozenset(
            s for s in (_STEMMER.stem(w.lower()) for w in words) if len(s) >= 3
        )

    # Unlike the dictionary scorer, the Perspective models are
    # context-aware in the real world: everyday ambiguous words ("queen",
    # "pig") and substring traps do not trigger them, so they are dropped
    # from the hate set here.  This is what preserves the paper's
    # dictionary-vs-Perspective disagreement structure (§3.5.1).
    unambiguous_hate = [
        term for term in hate_vocab()
        if term not in AMBIGUOUS_TERMS and term != SUBSTRING_TRAP_TERM
    ]
    return {
        "offensive": stems(OFFENSIVE_VOCAB),
        "obscene": stems(OBSCENE_VOCAB),
        "rude": stems(RUDE_VOCAB),
        "hate": stems(unambiguous_hate),
    }


@dataclass(frozen=True)
class CommentFeatures:
    """Lexical features of one comment."""

    n_tokens: int
    offensive_rate: float
    obscene_rate: float
    rude_rate: float
    hate_rate: float
    union_rate: float          # tokens matching ANY non-benign class
    caps: float
    has_attack_phrase: bool
    bang_run: int              # longest run of consecutive '!'

    @property
    def exclamation_burst(self) -> bool:
        return self.bang_run >= 3

    @property
    def any_signal(self) -> bool:
        return (
            self.offensive_rate > 0
            or self.obscene_rate > 0
            or self.rude_rate > 0
            or self.hate_rate > 0
            or self.has_attack_phrase
        )


_BANG_RUN = re.compile(r"!+")


def _longest_bang_run(text: str) -> int:
    return max(map(len, _BANG_RUN.findall(text)), default=0)


def extract_features(text: str) -> CommentFeatures:
    """Compute :class:`CommentFeatures` for a comment."""
    sets = _stemmed_sets()
    tokens = tokenize(text)
    n = len(tokens)
    counts = {name: 0 for name in sets}
    union = 0
    for token in tokens:
        stemmed = _STEMMER.stem(token)
        matched_any = False
        for name, vocab in sets.items():
            if stemmed in vocab or token in vocab:
                counts[name] += 1
                matched_any = True
        if matched_any:
            union += 1
    lowered = text.lower()
    return CommentFeatures(
        n_tokens=n,
        offensive_rate=counts["offensive"] / n if n else 0.0,
        obscene_rate=counts["obscene"] / n if n else 0.0,
        rude_rate=counts["rude"] / n if n else 0.0,
        hate_rate=counts["hate"] / n if n else 0.0,
        union_rate=union / n if n else 0.0,
        caps=caps_ratio(text),
        has_attack_phrase=any(p in lowered for p in ATTACK_PHRASES),
        bang_run=_longest_bang_run(text),
    )
