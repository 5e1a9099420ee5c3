"""Exact port of the reference's modified Porter2 stemmer.

Reference: /root/reference/engine/lib/stemmer/stemmer.cpp (651 LoC) and
engine/lib/stemmer.h. The reference deviates from textbook Porter2 in
several load-bearing ways, all reproduced here:

- Rule sets are applied in *declaration order*, first matching suffix wins
  (``Ruleset``'s autosort sorts a moved-from vector — a no-op;
  stemmer.cpp:141-150), so e.g. "rational" hits "tional"->"tion" before
  "ational" in phase2 (stemmer.cpp:408-431).
- phase2 has *no* R1 bound despite the comment (stemmer.cpp:355-434).
- phase1a: "ws"/"us" are no-ops (stemmer.cpp:237-238); bare "s" deletion
  additionally requires len(stem) > 2 (stemmer.cpp:226-231).
- ``is_short_syllable(word, last_char)`` tests the syllable at the *final*
  character, whose "next" iterator is always end() — so it is true only for
  the literal word "past" (stemmer.cpp:75-105). Consequently phase1b's
  "+e for short words" effectively never fires and phase5's e-deletion is
  nearly unconditional in R1.
- phase4 has a nonstandard "ize" rule (delete only if len(stem) >= 5,
  else replace back with "ize"; stemmer.cpp:491-503).
- phase6 (nonstandard): strip "er"/"est" in R1 (stemmer.cpp:563-571).
- Pre-steps: strip trailing punctuation; 41-word stoplist -> "" (the caller
  drops the token); 33-entry irregular-plural exception map; words shorter
  than 3 chars returned unchanged (stemmer.cpp:580-652).

R1/R2 are computed once after mark_y and *not* recomputed as phases shorten
the word (stemmer.cpp:638-649).
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = frozenset("aeiouy")  # note: 'Y' (marked consonant-y) is NOT a vowel
_LI_ENDINGS = frozenset("cdeghkmnrt")
_PUNCT = frozenset(".,;:!?\")]}'")

_EXCEPTIONS = {
    "children": "child", "women": "woman", "men": "man", "news": "news",
    "data": "data", "media": "media", "analysis": "analysis",
    "series": "series", "species": "species", "money": "money",
    "information": "information", "person": "person", "people": "people",
    "teeth": "tooth", "geese": "goose", "feet": "foot", "mice": "mouse",
    "indices": "index", "matrices": "matrix", "oxen": "ox", "dice": "die",
    "knives": "knife", "leaves": "leaf", "wives": "wife", "lives": "life",
    "thieves": "thief", "wolves": "wolf", "potatoes": "potato",
    "tomatoes": "tomato", "heroes": "hero", "echoes": "echo",
    "buses": "bus", "polite": "polite",
}

STOPWORDS = frozenset((
    "the", "a", "an", "and", "or", "but", "if", "with", "by", "on", "for",
    "in", "of", "to", "at", "is", "are", "was", "were", "be", "been",
    "being", "as", "it", "its", "this", "that", "these", "those", "he",
    "she", "they", "them", "his", "her", "their", "you", "your", "we",
    "our", "i", "me", "my",
))


def _contains_vowel(s: str) -> bool:
    for ch in s:
        if ch in _VOWELS:
            return True
    return False


def _find_r1(word: str) -> int:
    """First position after the first non-vowel that follows a vowel
    (stemmer.cpp:48-62)."""
    found_vowel = False
    for i, ch in enumerate(word):
        if ch in _VOWELS:
            found_vowel = True
        elif found_vowel:
            return i + 1
    return len(word)


def _find_r1_r2(word: str) -> tuple[int, int]:
    r1 = _find_r1(word)
    r2 = _find_r1(word[r1:]) + r1
    return r1, r2


def _is_short_syllable_at(word: str, vow: int) -> bool:
    """Port of is_short_syllable(word, it) with it pointing at index ``vow``
    (stemmer.cpp:75-105). Callers always pass the LAST character, making the
    (a)/(b) branches false (next == end); only the "past" special case can
    hit — reproduced literally anyway."""
    found = False
    if vow != 0:
        nxt = vow + 1
        if nxt < len(word):
            prev_c, c, next_c = word[vow - 1], word[vow], word[nxt]
            found = (
                prev_c not in _VOWELS
                and c in _VOWELS
                and next_c not in _VOWELS
                and next_c != "w" and next_c != "x" and next_c != "Y"
            )
    else:
        nxt = vow + 1
        if nxt < len(word):
            found = word[vow] in _VOWELS and word[nxt] not in _VOWELS
    if not found:
        found = word == "past"
    return found


def _is_short(word: str, r1: int) -> bool:
    return _is_short_syllable_at(word, len(word) - 1) and len(word) <= r1


def _mark_y(word: str) -> str:
    """y -> Y at position 0 and after a vowel; sequential like the C++ loop
    (stemmer.cpp:126-139): an already-marked 'Y' is not a vowel for the
    following char."""
    chars = list(word)
    if chars and chars[0] == "y":
        chars[0] = "Y"
    for i in range(1, len(chars)):
        if chars[i] == "y" and chars[i - 1] in _VOWELS:
            chars[i] = "Y"
    return "".join(chars)


def _apply(word: str, rules) -> str:
    """apply_ruleset (stemmer.cpp:169-186): first suffix that matches (or a
    'generic' suffix starting with a space) wins; chooser returns the
    replacement for the suffix."""
    for suffix, chooser in rules:
        ls = len(suffix)
        if len(word) < ls:
            continue
        last = word[-ls:]
        if last == suffix or suffix[0] == " ":
            stem = word[: len(word) - ls]
            return stem + chooser(stem, last)
    return word


# --- phase rule tables (declaration order matters) ------------------------

def _ch_remover(stem: str, suf: str) -> str:
    return ""


def _ch_nothing(stem: str, suf: str) -> str:
    return suf


def _phase0(word: str) -> str:
    return _apply(word, (
        ("'s'", _ch_remover), ("'s", _ch_remover), ("'", _ch_remover)))


def _ch_ied_ies(stem: str, suf: str) -> str:
    return "i" if len(stem) > 1 else "ie"


def _ch_s(stem: str, suf: str) -> str:
    if len(stem) > 2 and _contains_vowel(stem[:-1]):
        return ""
    return suf


def _phase1a(word: str) -> str:
    return _apply(word, (
        ("sses", lambda s, u: "ss"),
        ("ied", _ch_ied_ies), ("ies", _ch_ied_ies),
        ("ws", _ch_nothing), ("us", _ch_nothing), ("ss", _ch_nothing),
        ("s", _ch_s)))


def _phase1b(word: str, r1: int) -> tuple[str, bool]:
    flag = [False]

    def ch_eed(stem: str, suf: str) -> str:
        return "ee" if r1 <= len(stem) else suf

    def ch_ed_ing(stem: str, suf: str) -> str:
        if _contains_vowel(stem):
            flag[0] = True
            return ""
        flag[0] = False
        return suf

    out = _apply(word, (
        ("eed", ch_eed), ("eedly", ch_eed),
        ("ed", ch_ed_ing), ("edly", ch_ed_ing),
        ("ing", ch_ed_ing), ("ingly", ch_ed_ing)))
    return out, flag[0]


def _phase1b_del(word: str, r1: int) -> str:
    def ch_at_bl_iz(stem: str, suf: str) -> str:
        return suf + "e"

    def ch_double(stem: str, suf: str) -> str:
        if not (len(stem) == 1 and stem[-1] in "aeo"):
            return suf[:-1]
        return suf

    def ch_short(stem: str, suf: str) -> str:
        # is_short evaluated on the whole current word (stemmer.cpp:309-314)
        if _is_short(word, r1):
            return suf + "e"
        return suf

    return _apply(word, (
        ("at", ch_at_bl_iz), ("bl", ch_at_bl_iz), ("iz", ch_at_bl_iz),
        ("bb", ch_double), ("dd", ch_double), ("ff", ch_double),
        ("gg", ch_double), ("mm", ch_double), ("nn", ch_double),
        ("pp", ch_double), ("rr", ch_double), ("tt", ch_double),
        ("  ", ch_short)))


def _ch_y(stem: str, suf: str) -> str:
    if len(stem) > 1 and stem[-1] not in _VOWELS:
        return "i"
    return suf


def _phase1c(word: str) -> str:
    return _apply(word, (("y", _ch_y), ("Y", _ch_y)))


def _ch_ogi(stem: str, suf: str) -> str:
    return "og" if stem and stem[-1] == "l" else suf


def _ch_li(stem: str, suf: str) -> str:
    return "" if stem and stem[-1] in _LI_ENDINGS else suf


_PHASE2_RULES = (
    ("tional", lambda s, u: "tion"),
    ("enci", lambda s, u: "ence"),
    ("anci", lambda s, u: "ance"),
    ("abli", lambda s, u: "able"),
    ("entli", lambda s, u: "ent"),
    ("izer", lambda s, u: "ize"), ("ization", lambda s, u: "ize"),
    ("ational", lambda s, u: "ate"), ("ation", lambda s, u: "ate"),
    ("ator", lambda s, u: "ate"),
    ("alism", lambda s, u: "al"), ("aliti", lambda s, u: "al"),
    ("alli", lambda s, u: "al"),
    ("fulness", lambda s, u: "ful"),
    ("ousli", lambda s, u: "ous"), ("ousness", lambda s, u: "ous"),
    ("iveness", lambda s, u: "ive"), ("iviti", lambda s, u: "ive"),
    ("biliti", lambda s, u: "ble"), ("bli", lambda s, u: "ble"),
    ("ogi", _ch_ogi),
    ("fulli", lambda s, u: "ful"),
    ("lessli", lambda s, u: "less"),
    ("li", _ch_li),
)


def _phase2(word: str) -> str:
    # NOTE: no R1 bound in the reference implementation (stemmer.cpp:355-434)
    return _apply(word, _PHASE2_RULES)


def _bounded(ch, bound: int):
    def wrapper(stem: str, suf: str) -> str:
        if bound <= len(stem):
            return ch(stem, suf)
        return suf
    return wrapper


def _phase3(word: str, r1: int, r2: int) -> str:
    return _apply(word, (
        ("tional", _bounded(lambda s, u: "tion", r1)),
        ("ational", _bounded(lambda s, u: "ate", r1)),
        ("alize", _bounded(lambda s, u: "al", r1)),
        ("icate", _bounded(lambda s, u: "ic", r1)),
        ("iciti", _bounded(lambda s, u: "ic", r1)),
        ("ical", _bounded(lambda s, u: "ic", r1)),
        ("ful", _bounded(_ch_remover, r1)),
        ("ness", _bounded(_ch_remover, r1)),
        ("ative", _bounded(_ch_remover, r2))))


def _ch_ion(stem: str, suf: str) -> str:
    if stem and stem[-1] in "st":
        return ""
    return suf


def _ch_ize_safe(stem: str, suf: str) -> str:
    return "" if len(stem) >= 5 else "ize"


def _phase4(word: str, r2: int) -> str:
    rm = _bounded(_ch_remover, r2)
    return _apply(word, (
        ("al", rm), ("ance", rm), ("ence", rm), ("er", rm), ("ic", rm),
        ("able", rm), ("ible", rm), ("ant", rm), ("ement", rm),
        ("ment", rm), ("ent", rm), ("ism", rm), ("ate", rm), ("iti", rm),
        ("ous", rm), ("ive", rm),
        ("ize", _bounded(_ch_ize_safe, r2)),
        ("ion", _bounded(_ch_ion, r2))))


def _phase5(word: str, r1: int, r2: int) -> str:
    def ch_e(stem: str, suf: str) -> str:
        if r2 <= len(stem):
            return ""
        if r1 <= len(stem) and not _is_short_syllable_at(stem, len(stem) - 1):
            return ""
        return suf

    def ch_l(stem: str, suf: str) -> str:
        return "" if stem and stem[-1] == "l" else suf

    return _apply(word, (("e", ch_e), ("l", _bounded(ch_l, r2))))


def _phase6(word: str, r1: int) -> str:
    rm = _bounded(_ch_remover, r1)
    return _apply(word, (("er", rm), ("est", rm)))


@lru_cache(maxsize=262144)
def stem(word: str) -> str:
    """Stemmer::stem (stemmer.cpp:580-652). Returns "" for stopwords and
    fully-punctuation tokens (the caller drops such tokens)."""
    w = word
    while w and w[-1] in _PUNCT:
        w = w[:-1]
    if not w:
        return w
    if w in STOPWORDS:
        return ""
    exc = _EXCEPTIONS.get(w)
    if exc is not None:
        return exc
    if len(w) < 3:
        return w
    if w[0] == "'":
        w = w[1:]
    w = _mark_y(w)
    r1, r2 = _find_r1_r2(w)
    w = _phase0(w)
    w = _phase1a(w)
    w, flag = _phase1b(w, r1)
    if flag:
        w = _phase1b_del(w, r1)
    w = _phase1c(w)
    w = _phase2(w)
    w = _phase3(w, r1, r2)
    w = _phase4(w, r2)
    w = _phase5(w, r1, r2)
    w = _phase6(w, r1)
    return w.replace("Y", "y")
