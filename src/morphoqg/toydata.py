"""Deterministic template corpus for codec round trips and overfit runs.

Sentences follow "<person> <verb-past> the <thing> in <year> ." and each
question asks for one slot, so every question word is either copied from
the source or drawn from the small question vocabulary.  "did" expands to
do + ##ed and the copied verb reuses the source root, so both Trans
usages appear in the targets.
"""

import random

from morphoqg.codec import Copy, CorpusExample, EncodedExample, Quest, Trans, Vocab
from morphoqg.model import EncoderDecoder, HyperParams, build_tag_list
from morphoqg.morphology import TransformationType

PEOPLE = ["kennedy", "lincoln", "einstein", "curie", "darwin", "tesla",
          "newton", "turing"]
VERBS = [("visit", "visited"), ("open", "opened"), ("build", "built"),
         ("write", "wrote"), ("win", "won"), ("buy", "bought"),
         ("design", "designed"), ("create", "created")]
THINGS = ["museum", "library", "bridge", "theory", "prize", "letter",
          "school", "company"]
YEARS = ["1901", "1905", "1912", "1920", "1931", "1945", "1952", "1969"]


def _example(person, verb_root, verb_past, thing, year, question_slot):
    tokens = [person, verb_past, "the", thing, "in", year, "."]
    pos = ["NNP", "VBD", "DT", "NN", "IN", "CD", "."]
    ner = ["PERSON", "O", "O", "O", "O", "DATE", "O"]
    if question_slot == "year":
        span = (5, 5)
        question = ["when", "did", person, verb_root, "the", thing, "?"]
        question_pos = ["WRB", "VBD", "NNP", "VB", "DT", "NN", "."]
    elif question_slot == "person":
        span = (0, 0)
        question = ["who", verb_past, "the", thing, "in", year, "?"]
        question_pos = ["WP", "VBD", "DT", "NN", "IN", "CD", "."]
    else:
        span = (3, 3)
        question = ["what", "did", person, verb_root, "in", year, "?"]
        question_pos = ["WP", "VBD", "NNP", "VB", "IN", "CD", "."]
    return CorpusExample(
        tokens=tokens, pos=pos, ner=ner,
        answer_start=span[0], answer_end=span[1],
        question=question, question_pos=question_pos,
    )


def make_corpus(n, seed=42):
    """n examples cycling through slot combinations, shuffled by seed."""
    rng = random.Random(seed)
    slots = ["year", "person", "thing"]
    out = []
    for i in range(n):
        person = PEOPLE[rng.randrange(len(PEOPLE))]
        verb_root, verb_past = VERBS[rng.randrange(len(VERBS))]
        thing = THINGS[rng.randrange(len(THINGS))]
        year = YEARS[rng.randrange(len(YEARS))]
        out.append(_example(person, verb_root, verb_past, thing, year,
                            slots[i % len(slots)]))
    return out


def make_overfit_corpus():
    """64 distinct examples pairing each person/verb with a thing/year."""
    out = []
    for i, person in enumerate(PEOPLE):
        for j, (verb_root, verb_past) in enumerate(VERBS):
            thing = THINGS[(i + j) % len(THINGS)]
            year = YEARS[(i * 3 + j) % len(YEARS)]
            slot = ["year", "person", "thing"][(i + j) % 3]
            out.append(_example(person, verb_root, verb_past, thing, year, slot))
    return out


def tiny_model_and_example(seed, dot_heads=False):
    """The hidden-size-8 model and 3-token example (a 4-action target using
    every action kind) of the gradient and probability-mass checks."""
    vocab = Vocab(
        ["<pad>", "<unk>", "<sos>", "<eos>", "he", "visit", "park"],
        ["<pad>", "<unk>", "<sos>", "<eos>", "when", "do", "he", "?"])
    hyper = HyperParams(
        word_dim=8, answer_feat_dim=3, ner_feat_dim=3, pos_feat_dim=3,
        hidden_size=8, dropout_rate=0.0, dot_heads=dot_heads)
    model = EncoderDecoder(
        hyper, vocab, build_tag_list(["PRP", "VB", "NN"]),
        build_tag_list(["O", "LOC"]), init_seed=seed)
    example = EncodedExample(
        source_roots=["he", "visit", "park"],
        source_features=[("PRP", "O", "O"), ("VB", "O", "O"),
                         ("NN", "LOC", "B")],
        answer_span=(2, 2),
        target_actions=[Quest(4), Copy(0), Quest(5),
                        Trans(TransformationType.ED)],
        reference_question=["when", "he", "did"])
    return model, example
