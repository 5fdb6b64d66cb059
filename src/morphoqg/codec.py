"""Action-sequence codec between tagged examples and model targets.

Source side: every token is replaced by its root (1:1, so the answer
span indices carry over).  Target side: each question word becomes a
Copy action (pointing at a source position), or a Quest action (an id in
the question-word vocabulary), optionally followed by a Trans action
naming the transformation that restores the surface form.  ``realize``
is the exact inverse used on generated action sequences.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    CutoffExceeded,
    DanglingTransError,
    EmptyInputError,
    FileError,
    IndexOutOfVocab,
    LengthMismatch,
    ParseError,
    UnknownRuleError,
)
from .morphology import Morphology, TransformationType, default_morphology

PAD_ID, UNK_ID, SOS_ID, EOS_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<sos>", "<eos>")

DEFAULT_ENCODER_CAP = 30000
DEFAULT_QUEST_CAP = 1000
DEFAULT_CUTOFF = 128


@dataclass(frozen=True)
class TaggedToken:
    word: str
    pos: str = ""
    ner: str = "O"
    answer_bio: str = "O"


@dataclass(frozen=True)
class Copy:
    index: int


@dataclass(frozen=True)
class Quest:
    word_id: int


@dataclass(frozen=True)
class Trans:
    type: TransformationType


TargetAction = Union[Copy, Quest, Trans]


@dataclass
class EncodedExample:
    source_roots: List[str]
    source_features: List[Tuple[str, str, str]]  # (pos, ner, answer_bio)
    answer_span: Tuple[int, int]
    target_actions: List[TargetAction]
    reference_question: List[str]


class Vocab:
    """Encoder and question-word vocabularies plus the 9 type tags.

    Ids 0..3 are PAD/UNK/SOS/EOS in both word vocabularies; transformation
    tags form their own id space (their ``##`` prefix keeps the surface
    namespaces disjoint).
    """

    def __init__(self, encoder_tokens: Sequence[str], quest_tokens: Sequence[str]):
        for toks in (encoder_tokens, quest_tokens):
            if tuple(toks[:4]) != RESERVED_TOKENS:
                raise ParseError(
                    f"vocabulary must start with reserved tokens {RESERVED_TOKENS}")
            if len(set(toks)) != len(toks):
                raise ParseError("vocabulary contains duplicate tokens")
        self.encoder_vocab = list(encoder_tokens)
        self.quest_vocab = list(quest_tokens)
        self.trans_vocab = tuple(t.tag for t in TransformationType)
        self._encoder_ids = {w: i for i, w in enumerate(self.encoder_vocab)}
        self._quest_ids = {w: i for i, w in enumerate(self.quest_vocab)}

    @property
    def encoder_size(self) -> int:
        return len(self.encoder_vocab)

    @property
    def quest_size(self) -> int:
        return len(self.quest_vocab)

    def encoder_id(self, word: str) -> int:
        return self._encoder_ids.get(word, UNK_ID)

    def quest_id(self, word: str) -> int:
        return self._quest_ids.get(word, UNK_ID)

    def has_quest_word(self, word: str) -> bool:
        return word in self._quest_ids

    def quest_word(self, word_id: int) -> str:
        if not 0 <= word_id < len(self.quest_vocab):
            raise IndexOutOfVocab(
                f"question-word id {word_id} outside vocabulary of "
                f"size {len(self.quest_vocab)}")
        return self.quest_vocab[word_id]

    def save(self, encoder_path: str, quest_path: str) -> None:
        for path, toks in ((encoder_path, self.encoder_vocab),
                           (quest_path, self.quest_vocab)):
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(toks) + "\n")
            except OSError as exc:
                raise FileError(f"cannot write vocabulary {path}: {exc}") from None

    @classmethod
    def load(cls, encoder_path: str, quest_path: str) -> "Vocab":
        return cls(_read_token_file(encoder_path), _read_token_file(quest_path))

    def content_hashes(self) -> dict:
        def h(tokens):
            return hashlib.sha256(("\n".join(tokens) + "\n").encode("utf-8")).hexdigest()
        return {"encoder_vocab": h(self.encoder_vocab), "quest_vocab": h(self.quest_vocab)}


def _read_token_file(path: str) -> List[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise FileError(f"cannot read vocabulary {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"vocabulary {path} is not UTF-8: {exc}") from None


def _answer_span_from_bio(tokens: Sequence[TaggedToken]) -> Tuple[int, int]:
    marks = [t.answer_bio for t in tokens]
    if marks.count("B") != 1:
        raise ParseError(f"expected exactly one B answer mark, got {marks.count('B')}")
    left = marks.index("B")
    right = left
    while right + 1 < len(marks) and marks[right + 1] == "I":
        right += 1
    if "I" in marks[:left] or "I" in marks[right + 1:]:
        raise ParseError("answer I marks must be contiguous after B")
    return left, right


def encode_source(
    tokens: Sequence[TaggedToken],
    morphology: Optional[Morphology] = None,
    cutoff: int = DEFAULT_CUTOFF,
    truncate: bool = False,
):
    """Rewrite source tokens to their roots, carrying features and span.

    Root rewriting is 1:1, so the answer span is unchanged.  Inputs
    longer than ``cutoff`` raise unless ``truncate`` is set, and even
    then the answer span must survive the cut.
    """
    if not tokens:
        raise EmptyInputError("source token sequence is empty")
    if len(tokens) > cutoff:
        if not truncate:
            raise CutoffExceeded(
                f"source has {len(tokens)} tokens, cutoff is {cutoff}")
        tokens = tokens[:cutoff]
    morphology = morphology or default_morphology()
    left, right = _answer_span_from_bio(tokens)
    roots = [morphology.analyze(t.word, t.pos).root for t in tokens]
    features = [(t.pos, t.ner, t.answer_bio) for t in tokens]
    return roots, features, (left, right)


def _best_source_index(
    occurrences: List[int], answer_span: Optional[Tuple[int, int]]
) -> int:
    if answer_span is None:
        return occurrences[0]
    left, right = answer_span

    def distance(i: int) -> int:
        if i < left:
            return left - i
        if i > right:
            return i - right
        return 0

    # Nearest to the answer span; leftmost wins ties (min is stable).
    return min(occurrences, key=lambda i: (distance(i), i))


def encode_target(
    question: Sequence[TaggedToken],
    source_roots: Sequence[str],
    vocab: Vocab,
    morphology: Optional[Morphology] = None,
    answer_span: Optional[Tuple[int, int]] = None,
) -> List[TargetAction]:
    """Greedy left-to-right alignment of question words to actions.

    Each word analyzes to (root, type); the root becomes Copy when it
    occurs in the source (occurrence nearest the answer span, leftmost
    on ties), else Quest, else Quest(UNK); a present type appends Trans.
    """
    if not question:
        raise EmptyInputError("question token sequence is empty")
    morphology = morphology or default_morphology()
    positions = {}
    for i, root in enumerate(source_roots):
        positions.setdefault(root, []).append(i)
    actions: List[TargetAction] = []
    for tok in question:
        analysis = morphology.analyze(tok.word, tok.pos)
        root = analysis.root
        if root in positions:
            actions.append(Copy(_best_source_index(positions[root], answer_span)))
        elif vocab.has_quest_word(root):
            actions.append(Quest(vocab.quest_id(root)))
        else:
            actions.append(Quest(UNK_ID))
        if analysis.transform is not None:
            actions.append(Trans(analysis.transform))
    return actions


def realize(
    actions: Sequence[TargetAction],
    source_roots: Sequence[str],
    vocab: Vocab,
    morphology: Optional[Morphology] = None,
) -> str:
    """Turn an action sequence back into a surface question string.

    Trans re-inflects the word emitted immediately before it; a word the
    rules cannot inflect is kept unchanged rather than failing, so any
    beam-searched action sequence realizes.  PAD/SOS/EOS ids emit
    nothing.
    """
    morphology = morphology or default_morphology()
    words: List[str] = []
    prev_was_trans = False
    for action in actions:
        if isinstance(action, Trans):
            if not words or prev_was_trans:
                raise DanglingTransError(
                    "transformation action with no word to modify")
            try:
                words[-1] = morphology.apply_transform(words[-1], action.type)
            except UnknownRuleError:
                pass
            prev_was_trans = True
            continue
        if isinstance(action, Copy):
            if not 0 <= action.index < len(source_roots):
                raise IndexOutOfVocab(
                    f"copy index {action.index} outside source of "
                    f"length {len(source_roots)}")
            words.append(source_roots[action.index])
        else:
            if action.word_id in (PAD_ID, SOS_ID, EOS_ID):
                continue
            words.append(vocab.quest_word(action.word_id))
        prev_was_trans = False
    return " ".join(words)


def _top_tokens(counts: Counter, cap: int) -> List[str]:
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return list(RESERVED_TOKENS) + [w for w, _ in ranked[:cap]]


def build_vocabs(
    corpus: Iterable["CorpusExample"],
    morphology: Optional[Morphology] = None,
    encoder_cap: int = DEFAULT_ENCODER_CAP,
    quest_cap: int = DEFAULT_QUEST_CAP,
) -> Vocab:
    """Frequency-ranked vocabularies over root-rewritten training text.

    Ties break lexicographically so rebuilding is deterministic.
    """
    morphology = morphology or default_morphology()
    source_counts: Counter = Counter()
    quest_counts: Counter = Counter()
    seen = False
    for ex in corpus:
        seen = True
        for word, pos in zip(ex.tokens, ex.pos):
            source_counts[morphology.analyze(word, pos).root] += 1
        for word, pos in zip(ex.question, ex.question_pos):
            quest_counts[morphology.analyze(word, pos).root] += 1
    if not seen:
        raise EmptyInputError("corpus is empty")
    return Vocab(_top_tokens(source_counts, encoder_cap),
                 _top_tokens(quest_counts, quest_cap))


# -- corpus file handling ----------------------------------------------

@dataclass
class CorpusExample:
    tokens: List[str]
    pos: List[str]
    ner: List[str]
    answer_start: int
    answer_end: int
    question: List[str]
    question_pos: List[str]

    def source_tagged(self) -> List[TaggedToken]:
        out = []
        for i, (w, p, n) in enumerate(zip(self.tokens, self.pos, self.ner)):
            if i == self.answer_start:
                bio = "B"
            elif self.answer_start < i <= self.answer_end:
                bio = "I"
            else:
                bio = "O"
            out.append(TaggedToken(w, p, n, bio))
        return out

    def question_tagged(self) -> List[TaggedToken]:
        return [TaggedToken(w, p) for w, p in zip(self.question, self.question_pos)]


def corpus_example_from_obj(obj: dict, line: Optional[int] = None) -> CorpusExample:
    try:
        ex = CorpusExample(
            tokens=list(obj["tokens"]), pos=list(obj["pos"]), ner=list(obj["ner"]),
            answer_start=int(obj["answer_start"]), answer_end=int(obj["answer_end"]),
            question=list(obj["question"]), question_pos=list(obj["question_pos"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad corpus record: {exc}", line=line) from None
    if not (len(ex.tokens) == len(ex.pos) == len(ex.ner)):
        raise LengthMismatch(
            f"tokens/pos/ner lengths differ: {len(ex.tokens)}/{len(ex.pos)}/"
            f"{len(ex.ner)}" + (f" (line {line})" if line else ""))
    if len(ex.question) != len(ex.question_pos):
        raise LengthMismatch(
            f"question/question_pos lengths differ: {len(ex.question)}/"
            f"{len(ex.question_pos)}" + (f" (line {line})" if line else ""))
    if not 0 <= ex.answer_start <= ex.answer_end < len(ex.tokens):
        raise ParseError(
            f"answer span [{ex.answer_start}, {ex.answer_end}] invalid for "
            f"{len(ex.tokens)} tokens", line=line)
    return ex


def corpus_example_to_obj(ex: CorpusExample) -> dict:
    return {
        "tokens": ex.tokens, "pos": ex.pos, "ner": ex.ner,
        "answer_start": ex.answer_start, "answer_end": ex.answer_end,
        "question": ex.question, "question_pos": ex.question_pos,
    }


def _dump_jsonl(objs: Iterable[dict], path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for obj in objs:
                fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    except OSError as exc:
        raise FileError(f"cannot write {path}: {exc}") from None


def _load_jsonl(path: str, from_obj) -> list:
    """One object per non-blank line, each converted by ``from_obj(obj, line=)``."""
    out = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"bad JSON: {exc}", line=lineno) from None
                out.append(from_obj(obj, line=lineno))
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from None
    return out


def dump_corpus_jsonl(examples: Iterable["CorpusExample"], path: str) -> None:
    _dump_jsonl((corpus_example_to_obj(ex) for ex in examples), path)


def load_corpus_jsonl(path: str) -> List[CorpusExample]:
    return _load_jsonl(path, corpus_example_from_obj)


def encode_example(
    raw: CorpusExample,
    vocab: Vocab,
    morphology: Optional[Morphology] = None,
    cutoff: int = DEFAULT_CUTOFF,
    truncate: bool = False,
) -> EncodedExample:
    morphology = morphology or default_morphology()
    roots, features, span = encode_source(
        raw.source_tagged(), morphology, cutoff=cutoff, truncate=truncate)
    actions = encode_target(
        raw.question_tagged(), roots, vocab, morphology, answer_span=span)
    return EncodedExample(
        source_roots=roots, source_features=features, answer_span=span,
        target_actions=actions, reference_question=list(raw.question))


# -- encoded-example serialization -------------------------------------

def action_to_obj(action: TargetAction) -> dict:
    if isinstance(action, Copy):
        return {"kind": "copy", "index": action.index}
    if isinstance(action, Quest):
        return {"kind": "quest", "id": action.word_id}
    return {"kind": "trans", "tag": action.type.tag}


def action_from_obj(obj: dict) -> TargetAction:
    kind = obj.get("kind")
    if kind == "copy":
        return Copy(int(obj["index"]))
    if kind == "quest":
        return Quest(int(obj["id"]))
    if kind == "trans":
        return Trans(TransformationType.from_tag(obj["tag"]))
    raise ParseError(f"unknown action kind: {kind!r}")


def encoded_to_obj(ex: EncodedExample) -> dict:
    return {
        "source_roots": ex.source_roots,
        "pos": [f[0] for f in ex.source_features],
        "ner": [f[1] for f in ex.source_features],
        "answer_bio": [f[2] for f in ex.source_features],
        "answer_span": list(ex.answer_span),
        "actions": [action_to_obj(a) for a in ex.target_actions],
        "reference_question": ex.reference_question,
    }


def encoded_from_obj(obj: dict, line: Optional[int] = None) -> EncodedExample:
    try:
        features = list(zip(obj["pos"], obj["ner"], obj["answer_bio"]))
        return EncodedExample(
            source_roots=list(obj["source_roots"]),
            source_features=features,
            answer_span=(int(obj["answer_span"][0]), int(obj["answer_span"][1])),
            target_actions=[action_from_obj(a) for a in obj["actions"]],
            reference_question=list(obj["reference_question"]),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"bad encoded record: {exc}", line=line) from None


def dump_encoded_jsonl(examples: Iterable[EncodedExample], path: str) -> None:
    _dump_jsonl((encoded_to_obj(ex) for ex in examples), path)


def load_encoded_jsonl(path: str) -> List[EncodedExample]:
    return _load_jsonl(path, encoded_from_obj)
