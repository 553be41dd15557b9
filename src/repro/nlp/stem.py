"""Porter stemming algorithm.

A faithful from-scratch implementation of M. F. Porter's 1980 suffix
stripping algorithm ("An algorithm for suffix stripping", *Program* 14(3)).
The paper stems tokens before dictionary matching (§3.5.1) and before
building SVM n-gram features (§3.5.3); stemming is what lets the hate
dictionary catch inflected variants (and what creates some of its documented
false positives).
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["PorterStemmer", "stem"]

_VOWELS = frozenset("aeiou")


class PorterStemmer:
    """Stateless Porter stemmer.

    Usage::

        stemmer = PorterStemmer()
        stemmer.stem("caresses")  # -> "caress"
    """

    # ------------------------------------------------------------------
    # Low-level predicates over the word being stemmed.  All operate on a
    # lowercase string; positions index characters.
    # ------------------------------------------------------------------

    @staticmethod
    def _is_consonant(word: str, i: int) -> bool:
        ch = word[i]
        if ch in _VOWELS:
            return False
        if ch == "y":
            # 'y' is a consonant at the start or after a vowel position
            # evaluated recursively: it is a consonant iff the previous
            # letter is NOT a consonant.
            return i == 0 or not PorterStemmer._is_consonant(word, i - 1)
        return True

    @classmethod
    def _measure(cls, stem_part: str) -> int:
        """The 'measure' m of a stem: the number of VC sequences."""
        m = 0
        i = 0
        n = len(stem_part)
        # Skip initial consonants.
        while i < n and cls._is_consonant(stem_part, i):
            i += 1
        while i < n:
            # Consume vowels.
            while i < n and not cls._is_consonant(stem_part, i):
                i += 1
            if i >= n:
                break
            m += 1
            # Consume consonants.
            while i < n and cls._is_consonant(stem_part, i):
                i += 1
        return m

    @classmethod
    def _contains_vowel(cls, stem_part: str) -> bool:
        return any(not cls._is_consonant(stem_part, i) for i in range(len(stem_part)))

    @classmethod
    def _ends_double_consonant(cls, word: str) -> bool:
        return (
            len(word) >= 2
            and word[-1] == word[-2]
            and cls._is_consonant(word, len(word) - 1)
        )

    @classmethod
    def _ends_cvc(cls, word: str) -> bool:
        """consonant-vowel-consonant ending, final consonant not w/x/y."""
        if len(word) < 3:
            return False
        return (
            cls._is_consonant(word, len(word) - 3)
            and not cls._is_consonant(word, len(word) - 2)
            and cls._is_consonant(word, len(word) - 1)
            and word[-1] not in "wxy"
        )

    # ------------------------------------------------------------------
    # Steps of the algorithm.
    # ------------------------------------------------------------------

    @classmethod
    def _step_1a(cls, word: str) -> str:
        if word.endswith("sses"):
            return word[:-2]
        if word.endswith("ies"):
            return word[:-2]
        if word.endswith("ss"):
            return word
        if word.endswith("s"):
            return word[:-1]
        return word

    @classmethod
    def _step_1b(cls, word: str) -> str:
        if word.endswith("eed"):
            if cls._measure(word[:-3]) > 0:
                return word[:-1]
            return word
        flag = False
        if word.endswith("ed") and cls._contains_vowel(word[:-2]):
            word = word[:-2]
            flag = True
        elif word.endswith("ing") and cls._contains_vowel(word[:-3]):
            word = word[:-3]
            flag = True
        if flag:
            if word.endswith(("at", "bl", "iz")):
                return word + "e"
            if cls._ends_double_consonant(word) and word[-1] not in "lsz":
                return word[:-1]
            if cls._measure(word) == 1 and cls._ends_cvc(word):
                return word + "e"
        return word

    @classmethod
    def _step_1c(cls, word: str) -> str:
        if word.endswith("y") and cls._contains_vowel(word[:-1]):
            return word[:-1] + "i"
        return word

    _STEP2_SUFFIXES = (
        ("ational", "ate"),
        ("tional", "tion"),
        ("enci", "ence"),
        ("anci", "ance"),
        ("izer", "ize"),
        ("abli", "able"),
        ("alli", "al"),
        ("entli", "ent"),
        ("eli", "e"),
        ("ousli", "ous"),
        ("ization", "ize"),
        ("ation", "ate"),
        ("ator", "ate"),
        ("alism", "al"),
        ("iveness", "ive"),
        ("fulness", "ful"),
        ("ousness", "ous"),
        ("aliti", "al"),
        ("iviti", "ive"),
        ("biliti", "ble"),
    )

    _STEP3_SUFFIXES = (
        ("icate", "ic"),
        ("ative", ""),
        ("alize", "al"),
        ("iciti", "ic"),
        ("ical", "ic"),
        ("ful", ""),
        ("ness", ""),
    )

    _STEP4_SUFFIXES = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )

    @classmethod
    def _replace_if_m_positive(
        cls, word: str, suffixes: tuple[tuple[str, str], ...]
    ) -> str:
        for suffix, replacement in suffixes:
            if word.endswith(suffix):
                stem_part = word[: -len(suffix)]
                if cls._measure(stem_part) > 0:
                    return stem_part + replacement
                return word
        return word

    @classmethod
    def _step_4(cls, word: str) -> str:
        for suffix in cls._STEP4_SUFFIXES:
            if word.endswith(suffix):
                stem_part = word[: -len(suffix)]
                if suffix == "ion" and stem_part and stem_part[-1] not in "st":
                    return word
                if cls._measure(stem_part) > 1:
                    return stem_part
                return word
        # Special-case 'ion' preceded by s or t.
        if word.endswith("ion"):
            stem_part = word[:-3]
            if stem_part and stem_part[-1] in "st" and cls._measure(stem_part) > 1:
                return stem_part
        return word

    @classmethod
    def _step_5a(cls, word: str) -> str:
        if word.endswith("e"):
            stem_part = word[:-1]
            m = cls._measure(stem_part)
            if m > 1:
                return stem_part
            if m == 1 and not cls._ends_cvc(stem_part):
                return stem_part
        return word

    @classmethod
    def _step_5b(cls, word: str) -> str:
        if (
            cls._measure(word) > 1
            and cls._ends_double_consonant(word)
            and word.endswith("l")
        ):
            return word[:-1]
        return word

    def stem(self, token: str) -> str:
        """Stem a single lowercase token.

        Tokens of length <= 2 are returned unchanged (per the original
        algorithm's guard).  Results come from a bounded module-level memo
        keyed by the raw token: the step chain is a pure function of it,
        and a comment corpus repeats a small vocabulary many times over.
        """
        return _memo_stem(token)


def _step_chain(token: str) -> str:
    """The full Porter step chain, uncached."""
    word = token.lower()
    if len(word) <= 2:
        return word
    word = PorterStemmer._step_1a(word)
    word = PorterStemmer._step_1b(word)
    word = PorterStemmer._step_1c(word)
    word = PorterStemmer._replace_if_m_positive(word, PorterStemmer._STEP2_SUFFIXES)
    word = PorterStemmer._replace_if_m_positive(word, PorterStemmer._STEP3_SUFFIXES)
    word = PorterStemmer._step_4(word)
    word = PorterStemmer._step_5a(word)
    word = PorterStemmer._step_5b(word)
    return word


# Memo bound: far above the distinct-token count of any corpus the
# pipeline scores, small enough (a few MB) to never matter for memory.
_MEMO_SIZE = 1 << 16
_memo_stem = lru_cache(maxsize=_MEMO_SIZE)(_step_chain)


_DEFAULT = PorterStemmer()


def stem(token: str) -> str:
    """Stem a token with the module-level default :class:`PorterStemmer`."""
    return _DEFAULT.stem(token)
