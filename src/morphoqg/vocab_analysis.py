"""Inflected-form statistics over word lists.

Counts how many entries of a vocabulary are inflected surface forms.
Isolated words carry no POS, so each word tries every transformation
type in canonical order and the first invertible analysis wins; a small
stop list and stem guards suppress the worst false positives of
POS-free guessing (``this`` is not the plural of ``thi``).
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from .errors import read_text
from .morphology import (
    ALL_TYPES,
    TYPE_TO_POS_TAG,
    VOWELS,
    Morphology,
    TransformationType,
    default_morphology,
)

# Closed-class words that must never count as inflected forms.
NO_INFLECT_WORDS = frozenset("""
a an as at by despite during his hers its ours perhaps thus theirs this
those these us versus whereas whose yours always besides
""".split())


def guess_analysis(word: str, morphology: Optional[Morphology] = None):
    """First invertible (root, type) over all types, or (word, None).

    Types are tried verb, noun, adjective, adverb; within a class, the
    canonical tag order.
    """
    morphology = morphology or default_morphology()
    w = word.lower()
    if w in NO_INFLECT_WORDS or not w.isalpha():
        return w, None
    for t in ALL_TYPES:
        analysis = morphology.analyze(w, TYPE_TO_POS_TAG[t])
        if analysis.transform is None:
            continue
        root = analysis.root
        if set(root).isdisjoint(VOWELS):
            continue
        if t in (TransformationType.NS, TransformationType.VS) \
                and len(w) - len(root) == 1 and len(root) < 3:
            continue                     # bus is not the plural of bu
        return root, analysis.transform
    return w, None


def count_inflected(
    vocab: Sequence[str], morphology: Optional[Morphology] = None
) -> dict:
    """Report {total, inflected_count, ratio, per_type} over a word list."""
    morphology = morphology or default_morphology()
    per_type: Counter = Counter()
    total = 0
    for word in vocab:
        total += 1
        _, t = guess_analysis(word, morphology)
        if t is not None:
            per_type[t.tag] += 1
    inflected = sum(per_type.values())
    return {
        "total": total,
        "inflected_count": inflected,
        "ratio": inflected / total if total else 0.0,
        "per_type": {t.tag: per_type.get(t.tag, 0) for t in ALL_TYPES},
    }


def analyze_external_vocab(
    path: str,
    morphology: Optional[Morphology] = None,
    top: Optional[int] = None,
) -> dict:
    """count_inflected over a one-token-per-line file.

    ``##``-prefixed continuation pieces are excluded from the count and
    reported under ``skipped_pieces``.
    """
    lines = read_text(path, "vocabulary file").splitlines()
    if top is not None:
        lines = lines[:top]
    words = []
    skipped = 0
    for line in lines:
        token = line.strip()
        if not token:
            continue
        if token.startswith("##"):
            skipped += 1
            continue
        words.append(token)
    report = count_inflected(words, morphology)
    report["skipped_pieces"] = skipped
    return report
