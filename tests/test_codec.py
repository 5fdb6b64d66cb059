"""Tests for source rewriting, target alignment, realize and vocabs."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphoqg.checks import codec_round_trip_failures
from morphoqg.codec import (
    EOS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    SOS_ID,
    UNK_ID,
    CorpusExample,
    Copy,
    Quest,
    Trans,
    Vocab,
    action_from_obj,
    action_to_obj,
    answer_marks,
    build_vocabs,
    corpus_example_from_obj,
    corpus_example_to_obj,
    dump_encoded_jsonl,
    encode_example,
    encode_source,
    encode_target,
    encoded_from_obj,
    encoded_to_obj,
    load_corpus_jsonl,
    load_encoded_jsonl,
    realize,
    root_positions,
    TaggedToken,
)
from morphoqg.errors import (
    CutoffExceeded,
    DanglingTransError,
    EmptyInputError,
    IndexOutOfVocab,
    LengthMismatch,
    ParseError,
    write_text,
)
from morphoqg.morphology import TransformationType, default_morphology

from morphoqg.toydata import make_corpus


@pytest.fixture(scope="module")
def toy():
    return make_corpus(200, seed=42)


@pytest.fixture(scope="module")
def toy_vocab(toy):
    return build_vocabs(toy)


def _tok(word, pos="NN", ner="O", bio="O"):
    return TaggedToken(word, pos, ner, bio)


class TestEncodeSource:
    def test_roots_replace_inflected_words(self):
        tokens = [_tok("He", "PRP", bio="B"), _tok("succeeded", "VBD"),
                  _tok("Kennedy", "NNP", "PERSON")]
        roots, features, span = encode_source(tokens)
        assert roots == ["he", "succeed", "kennedy"]
        assert span == (0, 0)
        assert features[1] == ("VBD", "O", "O")

    def test_root_form_input_is_a_fixed_point(self):
        tokens = [_tok("the", "DT", bio="B"), _tok("dog", "NN"), _tok("runs", "VBZ")]
        roots, _, _ = encode_source(tokens)
        roots2, _, _ = encode_source(
            [_tok(r, p.pos, bio=p.answer_bio) for r, p in zip(roots, tokens)])
        assert roots2 == roots

    def test_length_is_preserved(self, toy):
        for ex in toy[:50]:
            roots, features, _ = encode_source(ex.source_tagged())
            assert len(roots) == len(ex.tokens)
            assert len(features) == len(ex.tokens)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInputError):
            encode_source([])

    def test_cutoff_enforced(self):
        tokens = [_tok("word", bio="B" if i == 0 else "O") for i in range(129)]
        with pytest.raises(CutoffExceeded):
            encode_source(tokens, cutoff=128)
        roots, _, _ = encode_source(tokens, cutoff=128, truncate=True)
        assert len(roots) == 128

    def test_truncation_must_keep_the_answer(self):
        cut_off = [_tok("word") for _ in range(128)] + [_tok("key", bio="B")]
        cut_through = ([_tok("word") for _ in range(6)] + [_tok("key", bio="B")]
                       + [_tok("key", bio="I") for _ in range(3)] + [_tok("word")])
        for tokens, cutoff, span in [(cut_off, 128, "128..128"), (cut_through, 8, "6..9")]:
            with pytest.raises(ParseError, match=f"answer span {span} .* cutoff of {cutoff} "):
                encode_source(tokens, cutoff=cutoff, truncate=True)

    def test_malformed_answer_marks_rejected(self):
        with pytest.raises(ParseError):
            encode_source([_tok("a"), _tok("b")])  # no B at all
        with pytest.raises(ParseError):
            encode_source([_tok("a", bio="B"), _tok("b"), _tok("c", bio="I")])
        with pytest.raises(ParseError):  # the encoded-file reader would refuse it
            encode_source([_tok("a", bio="B"), _tok("b", bio="X")])


class TestEncodeTarget:
    def test_root_positions_in_first_occurrence_order(self):
        assert list(root_positions(["b", "a", "b", "c", "a"]).items()) == [
            ("b", [0, 2]), ("a", [1, 4]), ("c", [3])]
        assert root_positions([]) == {}

    def test_flagship_alignment(self, toy_vocab):
        """'when did he succeed ?' becomes quest/do+##ed/copy/copy/quest."""
        vocab = Vocab(list(RESERVED_TOKENS) + ["he", "succeed", "kennedy"],
                      list(RESERVED_TOKENS) + ["?", "do", "when"])
        source_roots = ["he", "succeed", "kennedy"]
        question = [_tok("when", "WRB"), _tok("did", "VBD"), _tok("he", "PRP"),
                    _tok("succeed", "VB"), _tok("?", ".")]
        actions = encode_target(question, source_roots, vocab)
        assert actions == [
            Quest(vocab.quest_id("when")),
            Quest(vocab.quest_id("do")), Trans(TransformationType.ED),
            Copy(0), Copy(1),
            Quest(vocab.quest_id("?")),
        ]

    def test_all_source_words_become_copies(self, toy_vocab):
        source_roots = ["what", "is", "love"]
        question = [_tok("what", "WP"), _tok("love", "NN")]
        actions = encode_target(question, source_roots, toy_vocab)
        assert actions == [Copy(0), Copy(2)]

    def test_unknown_words_become_unk(self):
        vocab = Vocab(list(RESERVED_TOKENS), list(RESERVED_TOKENS))
        actions = encode_target([_tok("zyzzyva", "NN")], ["other"], vocab)
        assert actions == [Quest(UNK_ID)]

    def test_copy_prefers_occurrence_nearest_answer(self):
        vocab = Vocab(list(RESERVED_TOKENS), list(RESERVED_TOKENS))
        roots = ["he", "met", "her", "and", "he", "left"]
        actions = encode_target([_tok("he", "PRP")], roots, vocab,
                                answer_span=(5, 5))
        assert actions == [Copy(4)]
        actions = encode_target([_tok("he", "PRP")], roots, vocab,
                                answer_span=(2, 2))
        assert actions == [Copy(0)]  # both occurrences 2 away; leftmost wins
        actions = encode_target([_tok("he", "PRP")], roots, vocab)
        assert actions == [Copy(0)]  # no span: first occurrence

    def test_inflected_question_word_copies_root_then_transforms(self, toy_vocab):
        source_roots = ["lincoln", "open", "the", "museum"]
        actions = encode_target([_tok("opened", "VBD")], source_roots, toy_vocab)
        assert actions == [Copy(1), Trans(TransformationType.ED)]

    def test_trans_adjacency_invariant(self, toy, toy_vocab):
        for ex in toy:
            roots, _, span = encode_source(ex.source_tagged())
            actions = encode_target(ex.question_tagged(), roots, toy_vocab,
                                    answer_span=span)
            prev_trans = True  # treat position -1 as forbidden
            for a in actions:
                if isinstance(a, Trans):
                    assert not prev_trans
                    prev_trans = True
                else:
                    prev_trans = False


class TestRealize:
    def test_quest_plus_trans_produces_did(self, toy_vocab):
        actions = [Quest(toy_vocab.quest_id("do")), Trans(TransformationType.ED)]
        assert realize(actions, [], toy_vocab) == "did"

    def test_single_copy_identity(self, toy_vocab):
        assert realize([Copy(0)], ["what"], toy_vocab) == "what"

    def test_dangling_trans_rejected(self, toy_vocab):
        with pytest.raises(DanglingTransError):
            realize([Trans(TransformationType.ED)], ["x"], toy_vocab)
        with pytest.raises(DanglingTransError):
            realize([Copy(0), Trans(TransformationType.ED),
                     Trans(TransformationType.ING)], ["x"], toy_vocab)

    def test_copy_index_validated(self, toy_vocab):
        with pytest.raises(IndexOutOfVocab):
            realize([Copy(5)], ["only"], toy_vocab)

    def test_reserved_ids_emit_nothing(self, toy_vocab):
        actions = [Quest(SOS_ID), Copy(0), Quest(EOS_ID), Quest(PAD_ID)]
        assert realize(actions, ["hello"], toy_vocab) == "hello"

    def test_unk_emits_the_unk_token(self, toy_vocab):
        assert realize([Quest(UNK_ID)], [], toy_vocab) == "<unk>"

    def test_uninflectable_word_kept_unchanged(self, toy_vocab):
        """Trans on a number keeps the number; generation never crashes."""
        out = realize([Copy(0), Trans(TransformationType.ED)], ["1901"], toy_vocab)
        assert out == "1901"

    def test_round_trip_over_toy_corpus(self, toy, toy_vocab):
        """Every coverable question realizes back to itself exactly."""
        assert codec_round_trip_failures(toy, toy_vocab, default_morphology()) == []

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_trans_adjacency_over_randomized_inputs(self, data):
        """Randomized tagged inputs never produce adjacent Trans actions."""
        words = data.draw(st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
            min_size=1, max_size=12))
        tags = data.draw(st.lists(
            st.sampled_from(["NN", "NNS", "VB", "VBD", "VBZ", "VBG", "VBN",
                             "JJ", "JJR", "JJS", "RB", "RBR", "RBS", "DT"]),
            min_size=len(words), max_size=len(words)))
        source = data.draw(st.lists(
            st.sampled_from(words), min_size=1, max_size=6))
        vocab = Vocab(list(RESERVED_TOKENS) + sorted(set(source)),
                      list(RESERVED_TOKENS) + sorted(set(words)))
        question = [TaggedToken(w, p) for w, p in zip(words, tags)]
        actions = encode_target(question, source, vocab)
        prev_trans = True
        for a in actions:
            if isinstance(a, Trans):
                assert not prev_trans
                prev_trans = True
            else:
                prev_trans = False
        realize(actions, source, vocab)  # must never raise


class TestVocab:
    def test_reserved_tokens_lead_both_vocabs(self, toy_vocab):
        assert toy_vocab.encoder_vocab[:4] == list(RESERVED_TOKENS)
        assert toy_vocab.quest_vocab[:4] == list(RESERVED_TOKENS)
        assert (PAD_ID, UNK_ID, SOS_ID, EOS_ID) == (0, 1, 2, 3)

    def test_nine_trans_tags(self, toy_vocab):
        assert len(toy_vocab.trans_vocab) == 9
        assert all(t.startswith("##") for t in toy_vocab.trans_vocab)
        assert set(toy_vocab.trans_vocab).isdisjoint(toy_vocab.quest_vocab)

    def test_frequency_cap_and_tie_break(self):
        corpus = [CorpusExample(
            tokens=["b", "a", "a", "b", "c"], pos=["NN"] * 5, ner=["O"] * 5,
            answer_start=0, answer_end=0,
            question=["b", "a", "a", "b", "c"], question_pos=["NN"] * 5)]
        vocab = build_vocabs(corpus, encoder_cap=2, quest_cap=2)
        # a and b both occur twice; lexicographic order breaks the tie.
        assert vocab.encoder_vocab == list(RESERVED_TOKENS) + ["a", "b"]
        assert vocab.quest_vocab == list(RESERVED_TOKENS) + ["a", "b"]

    def test_counts_are_over_roots(self):
        corpus = [CorpusExample(
            tokens=["walked", "walking", "walks"], pos=["VBD", "VBG", "VBZ"],
            ner=["O"] * 3, answer_start=0, answer_end=0,
            question=["walk"], question_pos=["VB"])]
        vocab = build_vocabs(corpus, encoder_cap=1, quest_cap=1)
        assert vocab.encoder_vocab == list(RESERVED_TOKENS) + ["walk"]

    def test_unknown_word_maps_to_unk(self, toy_vocab):
        assert toy_vocab.encoder_id("zyzzyva") == UNK_ID
        assert toy_vocab.quest_id("zyzzyva") == UNK_ID

    def test_save_load_round_trip(self, toy_vocab, tmp_path):
        enc = tmp_path / "encoder_vocab.txt"
        qst = tmp_path / "quest_vocab.txt"
        toy_vocab.save(str(enc), str(qst))
        loaded = Vocab.load(str(enc), str(qst))
        assert loaded.encoder_vocab == toy_vocab.encoder_vocab
        assert loaded.quest_vocab == toy_vocab.quest_vocab
        assert loaded.content_hashes() == toy_vocab.content_hashes()
        # line number = id
        lines = enc.read_text("utf-8").splitlines()
        assert lines[toy_vocab.encoder_id("kennedy")] == "kennedy"

    def test_vocab_rejects_missing_reserved_prefix(self):
        with pytest.raises(ParseError):
            Vocab(["a", "b", "c", "d"], list(RESERVED_TOKENS))

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyInputError):
            build_vocabs([])


class TestCorpusFiles:
    def test_jsonl_round_trip(self, toy, tmp_path):
        path = tmp_path / "corpus.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for ex in toy[:10]:
                fh.write(json.dumps(ex.__dict__) + "\n")
        loaded = load_corpus_jsonl(str(path))
        assert [e.tokens for e in loaded] == [e.tokens for e in toy[:10]]

    def test_length_mismatch_detected(self):
        obj = {"tokens": ["a", "b"], "pos": ["NN"], "ner": ["O", "O"],
               "answer_start": 0, "answer_end": 0,
               "question": ["q"], "question_pos": ["NN"]}
        with pytest.raises(LengthMismatch):
            corpus_example_from_obj(obj)

    def test_bad_span_detected(self):
        obj = {"tokens": ["a"], "pos": ["NN"], "ner": ["O"],
               "answer_start": 0, "answer_end": 3,
               "question": ["q"], "question_pos": ["NN"]}
        with pytest.raises(ParseError):
            corpus_example_from_obj(obj)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokens": ["a"]}\nnot json\n', encoding="utf-8")
        with pytest.raises(ParseError):
            load_corpus_jsonl(str(path))

    def test_line_separator_inside_a_string_is_not_a_line_break(self, toy, tmp_path):
        obj = corpus_example_to_obj(toy[0])
        obj["tokens"] = ["a\u2028b"] + obj["tokens"][1:]
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(obj, ensure_ascii=False) + "\n", encoding="utf-8")
        (loaded,) = load_corpus_jsonl(str(path))
        assert loaded.tokens[0] == "a\u2028b"

    def test_encoded_jsonl_round_trip(self, toy, toy_vocab, tmp_path):
        encoded = [encode_example(ex, toy_vocab) for ex in toy[:20]]
        path = tmp_path / "encoded.jsonl"
        dump_encoded_jsonl(encoded, str(path))
        loaded = load_encoded_jsonl(str(path))
        assert len(loaded) == 20
        for a, b in zip(encoded, loaded):
            assert a.source_roots == b.source_roots
            assert a.answer_span == b.answer_span
            assert a.target_actions == b.target_actions
            assert a.reference_question == b.reference_question

    def test_encoded_output_is_deterministic(self, toy, toy_vocab, tmp_path):
        encoded = [encode_example(ex, toy_vocab) for ex in toy[:20]]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        dump_encoded_jsonl(encoded, str(p1))
        dump_encoded_jsonl(encoded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_action_obj_round_trip(self):
        for a in [Copy(3), Quest(17), Trans(TransformationType.VS)]:
            assert action_from_obj(action_to_obj(a)) == a
        with pytest.raises(ParseError):
            action_from_obj({"kind": "jump"})


class TestEncodedRecordChecks:
    @staticmethod
    def _record(marks, span):
        return {"source_roots": ["he", "visit", "park"], "pos": ["NNP", "VBD", "NN"],
                "ner": ["PERSON", "O", "O"], "answer_bio": marks, "answer_span": span,
                "actions": [{"kind": "copy", "index": 0}], "reference_question": ["he"]}

    def test_marks_of_the_span_load(self):
        assert encoded_from_obj(self._record(["O", "B", "I"], [1, 2])).answer_span == (1, 2)

    @pytest.mark.parametrize("marks,span", [
        (["B", "O", "O"], [2, 2]),
        (["X", "Y", "Z"], [2, 2]),
        (["O", "B", "O"], [1, 2]),
        (["O", "I", "I"], [1, 2]),
    ])
    def test_marks_contradicting_the_span_rejected(self, marks, span):
        with pytest.raises(ParseError, match="answer_bio marks contradict"):
            encoded_from_obj(self._record(marks, span))

    def test_encode_writes_the_marks_of_its_span(self, toy, toy_vocab):
        for raw in toy[:20]:
            obj = encoded_to_obj(encode_example(raw, toy_vocab))
            assert obj["answer_bio"] == answer_marks(len(obj["source_roots"]),
                                                     tuple(obj["answer_span"]))
            assert encoded_from_obj(obj).answer_span == tuple(obj["answer_span"])


class TestTextFiles:
    def test_unencodable_text_leaves_the_file_untouched(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"before\n")
        with pytest.raises(ParseError):
            write_text(str(path), "lone \ud800 surrogate\n", "output")
        assert path.read_bytes() == b"before\n"
