"""Action-sequence codec between corpus records and model targets.

Source side: every token is replaced by its root (1:1, so the answer
span indices carry over), and each keeps its POS and NER tags beside
the answer span's B/I/O mark.  Target side: each question word becomes a
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
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (
    CutoffExceeded,
    DanglingTransError,
    EmptyInputError,
    IndexOutOfVocab,
    LengthMismatch,
    ParseError,
    UnknownRuleError,
    read_text,
    write_text,
)
from .morphology import Morphology, TransformationType, default_morphology

PAD_ID, UNK_ID, SOS_ID, EOS_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<sos>", "<eos>")

DEFAULT_ENCODER_CAP = 30000
DEFAULT_QUEST_CAP = 1000
DEFAULT_CUTOFF = 128


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

    def quest_word(self, word_id: int) -> str:
        if not 0 <= word_id < len(self.quest_vocab):
            raise IndexOutOfVocab(
                f"question-word id {word_id} outside vocabulary of "
                f"size {len(self.quest_vocab)}")
        return self.quest_vocab[word_id]

    def save(self, encoder_path: str, quest_path: str) -> None:
        for path, toks in ((encoder_path, self.encoder_vocab),
                           (quest_path, self.quest_vocab)):
            write_text(path, "\n".join(toks) + "\n", "vocabulary")

    @classmethod
    def load(cls, encoder_path: str, quest_path: str) -> "Vocab":
        return cls(read_text(encoder_path, "vocabulary").splitlines(),
                   read_text(quest_path, "vocabulary").splitlines())

    def content_hashes(self) -> dict:
        def h(tokens):
            return hashlib.sha256(("\n".join(tokens) + "\n").encode("utf-8")).hexdigest()
        return {"encoder_vocab": h(self.encoder_vocab), "quest_vocab": h(self.quest_vocab)}


def answer_marks(n_tokens: int, span: Tuple[int, int]) -> List[str]:
    """The ``answer_bio`` marks of ``span`` over ``n_tokens`` tokens: B at
    its start, I through its end, O elsewhere."""
    left, right = span
    return ["B" if i == left else "I" if left < i <= right else "O" for i in range(n_tokens)]


def check_answer_span(span: Tuple[int, int], n_tokens: int, line: Optional[int] = None) -> None:
    """Raise ParseError unless ``span`` lies in a source of ``n_tokens`` tokens."""
    left, right = span
    if not 0 <= left <= right < n_tokens:
        raise ParseError(f"answer_span [{left}, {right}] outside {n_tokens} tokens", line=line)


def encode_source(
    raw: "CorpusExample",
    morphology: Optional[Morphology] = None,
    cutoff: int = DEFAULT_CUTOFF,
    truncate: bool = False,
):
    """Rewrite a record's source tokens to their roots, carrying its tags
    and answer span.

    Returns the roots, each token's ``(pos, ner, answer_bio)`` features
    and the span.  Root rewriting is 1:1, so the span is unchanged.
    A span outside the source is a ParseError.  Inputs longer than
    ``cutoff`` raise unless ``truncate`` is set, and even then the whole
    answer span must survive the cut (else ParseError).
    """
    n_tokens = len(raw.tokens)
    if not n_tokens:
        raise EmptyInputError("source token sequence is empty")
    if n_tokens > cutoff and not truncate:
        raise CutoffExceeded(f"source has {n_tokens} tokens, cutoff is {cutoff}")
    span = (raw.answer_start, raw.answer_end)
    check_answer_span(span, n_tokens)
    left, right = span
    if right >= cutoff:
        raise ParseError(
            f"answer span {left}..{right} does not fit the cutoff of {cutoff} tokens")
    kept = min(n_tokens, cutoff)
    morphology = morphology or default_morphology()
    roots = [morphology.analyze(word, pos).root
             for word, pos in zip(raw.tokens[:kept], raw.pos)]
    features = list(zip(raw.pos[:kept], raw.ner, answer_marks(kept, span)))
    return roots, features, span


def _best_source_index(occurrences: List[int], answer_span: Tuple[int, int]) -> int:
    left, right = answer_span
    # Nearest to the answer span (distance 0 inside it); leftmost wins ties.
    return min(occurrences, key=lambda i: (max(left - i, i - right, 0), i))


def root_positions(roots: Sequence[str]) -> Dict[str, List[int]]:
    """Each distinct root's source positions in order, the roots in
    first-occurrence order."""
    positions: Dict[str, List[int]] = {}
    for i, root in enumerate(roots):
        positions.setdefault(root, []).append(i)
    return positions


def encode_target(
    words: Sequence[str],
    tags: Sequence[str],
    source_roots: Sequence[str],
    vocab: Vocab,
    morphology: Optional[Morphology] = None,
    *,
    answer_span: Tuple[int, int],
) -> List[TargetAction]:
    """Greedy left-to-right alignment of question words to actions.

    Each word analyzes, under its POS tag, to (root, type); the root
    becomes Copy when it occurs in the source (occurrence nearest
    ``answer_span``, leftmost on ties), else Quest of its list id (UNK
    off the list); a present type appends Trans.
    """
    if not words:
        raise EmptyInputError("question token sequence is empty")
    if len(words) != len(tags):
        raise LengthMismatch(f"question/question_pos lengths differ: {len(words)}/{len(tags)}")
    morphology = morphology or default_morphology()
    positions = root_positions(source_roots)
    actions: List[TargetAction] = []
    for word, tag in zip(words, tags):
        analysis = morphology.analyze(word, tag)
        root = analysis.root
        if root in positions:
            actions.append(Copy(_best_source_index(positions[root], answer_span)))
        else:
            actions.append(Quest(vocab.quest_id(root)))
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
    nothing.  A word comes out as its root, in ``str.lower`` form even where
    that changes its length: ``"İs"`` realizes as ``"i̇s"`` (i, U+0307, s).
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

    Ties break lexicographically so rebuilding is deterministic.  A token
    holding a line break is rejected: the vocabulary file stores one token
    per line.
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
    encoder_tokens = _top_tokens(source_counts, encoder_cap)
    quest_tokens = _top_tokens(quest_counts, quest_cap)
    for token in encoder_tokens + quest_tokens:
        if "".join(token.splitlines()) != token:
            raise ParseError(f"vocabulary token {token!r} holds a line break")
    return Vocab(encoder_tokens, quest_tokens)


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


def _strings(obj: dict, key: str) -> List[str]:
    """``obj[key]`` itself, which must be a list of strings (TypeError otherwise)."""
    value = obj[key]
    if not isinstance(value, list):
        raise TypeError(f"{key} must be a list, got {type(value).__name__}")
    try:
        "".join(value)  # the cheapest check that every item is a string
    except TypeError:
        raise TypeError(f"{key} must hold only strings") from None
    return value


def _integer(value, field: str) -> int:
    """``value`` itself, which must be an ``int`` (not a bool, float or string)."""
    if type(value) is not int:
        raise ParseError(f"{field} must be an integer, got {value!r}")
    return value


def corpus_example_from_obj(obj: dict, line: Optional[int] = None) -> CorpusExample:
    try:
        ex = CorpusExample(
            tokens=_strings(obj, "tokens"), pos=_strings(obj, "pos"),
            ner=_strings(obj, "ner"),
            answer_start=_integer(obj["answer_start"], "answer_start"),
            answer_end=_integer(obj["answer_end"], "answer_end"),
            question=_strings(obj, "question"), question_pos=_strings(obj, "question_pos"),
        )
    except (KeyError, TypeError, ParseError) as exc:
        raise ParseError(f"bad corpus record: {exc}", line=line) from None
    if not (len(ex.tokens) == len(ex.pos) == len(ex.ner)):
        raise LengthMismatch(
            f"tokens/pos/ner lengths differ: {len(ex.tokens)}/{len(ex.pos)}/"
            f"{len(ex.ner)}" + (f" (line {line})" if line else ""))
    if len(ex.question) != len(ex.question_pos):
        raise LengthMismatch(
            f"question/question_pos lengths differ: {len(ex.question)}/"
            f"{len(ex.question_pos)}" + (f" (line {line})" if line else ""))
    check_answer_span((ex.answer_start, ex.answer_end), len(ex.tokens), line=line)
    return ex


def corpus_example_to_obj(ex: CorpusExample) -> dict:
    return {
        "tokens": ex.tokens, "pos": ex.pos, "ner": ex.ner,
        "answer_start": ex.answer_start, "answer_end": ex.answer_end,
        "question": ex.question, "question_pos": ex.question_pos,
    }


def _dump_jsonl(objs: Iterable[dict], path: str) -> None:
    write_text(path, "".join(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
                             for obj in objs), "JSONL file")


def _load_jsonl(path: str, from_obj) -> list:
    r"""One object per non-blank line, each converted by ``from_obj(obj, line=)``.

    Lines break at ``\n`` only, as file iteration does: ``splitlines`` would
    also break at U+2028 inside a JSON string.
    """
    out = []
    for lineno, raw in enumerate(read_text(path, "JSONL file").split("\n"), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", line=lineno) from None
        out.append(from_obj(obj, line=lineno))
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
    roots, features, span = encode_source(raw, morphology, cutoff=cutoff, truncate=truncate)
    actions = encode_target(raw.question, raw.question_pos, roots, vocab, morphology,
                            answer_span=span)
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
    if not isinstance(obj, dict):
        raise ParseError(f"action must be an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "copy":
        return Copy(_integer(obj["index"], "copy index in actions"))
    if kind == "quest":
        return Quest(_integer(obj["id"], "word id in actions"))
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
        roots = _strings(obj, "source_roots")
        columns = [_strings(obj, key) for key in ("pos", "ner", "answer_bio")]
        if any(len(column) != len(roots) for column in columns):
            raise ValueError("pos/ner/answer_bio must be as long as source_roots")
        span = obj["answer_span"]
        left, right = _integer(span[0], "answer_span"), _integer(span[1], "answer_span")
        check_answer_span((left, right), len(roots))
        if columns[2] != answer_marks(len(roots), (left, right)):
            raise ValueError(f"answer_bio marks contradict answer_span [{left}, {right}]")
        actions = [action_from_obj(a) for a in obj["actions"]]
        for action in actions:
            if isinstance(action, Copy) and not 0 <= action.index < len(roots):
                raise ValueError(f"copy index {action.index} in actions outside "
                                 f"{len(roots)} source_roots")
        return EncodedExample(
            source_roots=roots,
            source_features=list(zip(*columns)),
            answer_span=(left, right),
            target_actions=actions,
            reference_question=_strings(obj, "reference_question"),
        )
    except (KeyError, TypeError, ValueError, IndexError, ParseError) as exc:
        raise ParseError(f"bad encoded record: {exc}", line=line) from None


def dump_encoded_jsonl(examples: Iterable[EncodedExample], path: str) -> None:
    _dump_jsonl((encoded_to_obj(ex) for ex in examples), path)


def load_encoded_jsonl(path: str) -> List[EncodedExample]:
    return _load_jsonl(path, encoded_from_obj)
