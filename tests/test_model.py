"""Tests for the encoder-decoder: gradients, probability mass, decoding."""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from morphoqg.codec import (
    EOS_ID,
    SOS_ID,
    UNK_ID,
    Copy,
    EncodedExample,
    Quest,
    Trans,
    Vocab,
)
from morphoqg.errors import DivergenceError, ParseError, ShapeMismatch
from morphoqg.generate import BeamResult, beam_search, generate_question, greedy
from morphoqg.model import (
    SW_COPY,
    SW_QUEST,
    SW_TRANS,
    EncoderDecoder,
    HyperParams,
    build_tag_list,
)
from morphoqg.morphology import ALL_TYPES, TransformationType, default_morphology
from morphoqg.tensor import dropout_mask, grad_check
from morphoqg.train import TrainConfig, evaluate_mean_loss, train

RESERVED = ["<pad>", "<unk>", "<sos>", "<eos>"]
ENC_WORDS = RESERVED + ["he", "visit", "park", "the", "met", "her", "open", "door"]
QUEST_WORDS = RESERVED + ["when", "do", "he", "?", "what", "who", "the"]
POS_TAGS = build_tag_list(["NNP", "VBD", "DT", "NN", "IN", "CD", "."])
NER_TAGS = build_tag_list(["PERSON", "DATE", "O"])

WHEN, DO, HE_Q, QMARK = 4, 5, 6, 7

TINY = HyperParams(
    word_dim=8,
    answer_feat_dim=3,
    ner_feat_dim=3,
    pos_feat_dim=3,
    hidden_size=8,
    dropout_rate=0.2,
    beam_size=4,
    max_decode_len=16,
)


def tiny_vocab() -> Vocab:
    return Vocab(ENC_WORDS, QUEST_WORDS)


def tiny_model(dot_heads=False, seed=7, hyper=TINY) -> EncoderDecoder:
    hp = hyper.scaled(dot_heads=dot_heads)
    return EncoderDecoder(hp, tiny_vocab(), POS_TAGS, NER_TAGS, init_seed=seed)


def flagship_example() -> EncodedExample:
    """Three source tokens, four target actions, one answer token."""
    return EncodedExample(
        source_roots=["he", "visit", "park"],
        source_features=[("NNP", "PERSON", "O"), ("VBD", "O", "O"),
                         ("NN", "O", "B")],
        answer_span=(2, 2),
        target_actions=[Quest(WHEN), Copy(0), Quest(DO), Trans(TransformationType.ED)],
        reference_question=["when", "did", "he", "visit", "?"],
    )


def tiny_corpus() -> list[EncodedExample]:
    """Eight variations around the flagship pattern."""
    corpus = []
    for subj, verb, obj in [
        ("he", "visit", "park"), ("he", "open", "door"),
        ("her", "visit", "door"), ("her", "open", "park"),
        ("he", "met", "her"), ("her", "met", "he"),
        ("he", "visit", "door"), ("her", "open", "door"),
    ]:
        corpus.append(EncodedExample(
            source_roots=[subj, verb, obj],
            source_features=[("NNP", "PERSON", "O"), ("VBD", "O", "O"),
                             ("NN", "O", "B")],
            answer_span=(2, 2),
            target_actions=[Quest(WHAT := 8), Quest(DO), Trans(TransformationType.ED),
                            Copy(0), Copy(1), Quest(QMARK)],
            reference_question=["what", "did", subj, verb, "?"],
        ))
    return corpus


class TestPrepare:
    """Property: preparation resolves ids, inputs, and marginal targets."""

    def test_input_specs_start_with_sos(self):
        model = tiny_model()
        prep = model.prepare(flagship_example())
        assert prep.input_specs[0] == ("word", SOS_ID)

    def test_quest_word_missing_from_encoder_vocab_feeds_unk(self):
        model = tiny_model()
        prep = model.prepare(flagship_example())
        # Input for step 2 embeds the previously emitted "when", which the
        # source-side vocabulary does not contain.
        assert prep.input_specs[1] == ("word", UNK_ID)

    def test_copy_input_uses_source_root_row(self):
        model = tiny_model()
        prep = model.prepare(flagship_example())
        assert prep.input_specs[2] == ("word", model.vocab.encoder_id("he"))

    def test_trans_target_and_input(self):
        model = tiny_model()
        prep = model.prepare(flagship_example())
        assert prep.targets[3].kind == "tag"
        assert prep.targets[3].tag_idx == TransformationType.ED.index

    def test_copy_target_merges_list_route_when_word_is_listed(self):
        model = tiny_model()
        prep = model.prepare(flagship_example())
        target = prep.targets[1]
        assert target.kind == "word"
        assert target.word == "he"
        assert target.copy_positions == (0,)
        assert target.quest_id == HE_Q

    def test_word_absent_from_list_has_no_list_route(self):
        model = tiny_model()
        example = flagship_example()
        example.target_actions[1] = Copy(1)  # "visit", not a question word
        prep = model.prepare(example)
        assert prep.targets[1].quest_id is None
        assert prep.targets[1].copy_positions == (1,)

    def test_end_marker_is_appended_as_final_target(self):
        model = tiny_model()
        prep = model.prepare(flagship_example())
        assert len(prep.targets) == 5
        last = prep.targets[-1]
        assert last.word == "<eos>"
        assert last.quest_id == EOS_ID

    def test_empty_source_rejected(self):
        model = tiny_model()
        example = flagship_example()
        example.source_roots = []
        example.source_features = []
        example.target_actions = [Quest(WHEN)]
        example.answer_span = (0, 0)
        prep = model.prepare(example)
        with pytest.raises(ShapeMismatch):
            model.encode(prep)


class TestUniformAtZero:
    """Property: all-zero weights give exactly uniform distributions."""

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_every_head_is_uniform(self, dot_heads):
        model = tiny_model(dot_heads=dot_heads)
        for name, arr in model.store.items():
            model.store[name] = np.zeros_like(arr)
        prep = model.prepare(flagship_example())
        enc = model.encode(prep)
        state = model.step(enc, enc["s0"], np.zeros(8, dtype=model.dtype),
                           ("word", SOS_ID))
        n = len(prep.roots)
        np.testing.assert_allclose(state["alpha"], np.full(n, 1.0 / n))
        np.testing.assert_allclose(state["p_copy"], np.full(n, 1.0 / n))
        np.testing.assert_allclose(state["p_trans"], np.full(9, 1.0 / 9))
        nq = model.vocab.quest_size
        np.testing.assert_allclose(state["p_quest"], np.full(nq, 1.0 / nq))
        np.testing.assert_allclose(state["switch"], [1 / 3, 1 / 3, 1 / 3])


class TestProbabilityMass:
    """Property: surface-outcome probabilities always sum to one."""

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_random_parameterizations_conserve_mass(self, dot_heads):
        rng = np.random.default_rng(99)
        model = tiny_model(dot_heads=dot_heads).to_check_precision()
        prep = model.prepare(flagship_example())
        for _ in range(40):
            for name, arr in model.store.items():
                model.store[name] = rng.normal(scale=0.7, size=arr.shape)
            enc = model.encode(prep)
            state = model.step(enc, enc["s0"], np.zeros(8, dtype=model.dtype),
                               ("word", SOS_ID))
            words, _, tags = model.outcome_distribution(state, prep.roots)
            total = sum(words.values()) + sum(tags.values())
            assert abs(total - 1.0) < 1e-9

    def test_merged_route_adds_copy_and_list_mass(self):
        model = tiny_model().to_check_precision()
        rng = np.random.default_rng(5)
        for name, arr in model.store.items():
            model.store[name] = rng.normal(scale=0.5, size=arr.shape)
        roots = ["he", "visit", "he"]
        example = EncodedExample(
            source_roots=roots,
            source_features=[("NNP", "O", "O"), ("VBD", "O", "O"),
                             ("NNP", "O", "B")],
            answer_span=(2, 2),
            target_actions=[Copy(0)],
            reference_question=["x"],
        )
        prep = model.prepare(example)
        enc = model.encode(prep)
        state = model.step(enc, enc["s0"], np.zeros(8, dtype=model.dtype),
                           ("word", SOS_ID))
        words, _, _ = model.outcome_distribution(state, roots)
        sw = state["switch"]
        expected = (sw[SW_COPY] * (state["p_copy"][0] + state["p_copy"][2])
                    + sw[SW_QUEST] * state["p_quest"][HE_Q])
        assert words["he"] == pytest.approx(float(expected), rel=1e-9)

    def test_target_probability_matches_outcome_distribution(self):
        model = tiny_model().to_check_precision()
        rng = np.random.default_rng(17)
        for name, arr in model.store.items():
            model.store[name] = rng.normal(scale=0.5, size=arr.shape)
        prep = model.prepare(flagship_example())
        enc = model.encode(prep)
        state = model.step(enc, enc["s0"], np.zeros(8, dtype=model.dtype),
                           ("word", SOS_ID))
        words, _, tags = model.outcome_distribution(state, prep.roots)
        for target in prep.targets:
            prob = model.target_probability(state, target)
            if target.kind == "tag":
                assert prob == pytest.approx(tags[ALL_TYPES[target.tag_idx]],
                                             rel=1e-9)
            else:
                assert prob == pytest.approx(words[target.word], rel=1e-9)


class TestFullLossGradients:
    """Property: the hand-written backward pass matches finite differences
    for every parameter tensor of the complete loss."""

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_full_loss_gradient(self, dot_heads):
        base = tiny_model(dot_heads=dot_heads, seed=11)
        model = base.to_check_precision()
        prep = model.prepare(flagship_example())
        mask_rng = np.random.default_rng(3)
        masks = dropout_mask((len(prep.roots), model._input_dim()),
                             model.hyper.dropout_rate, mask_rng, dtype=model.dtype)
        grads = model.zero_grads()
        model.loss_and_grads([prep], grads=grads, masks_list=[masks])

        def loss_fn():
            return model.loss_only([prep], masks_list=[masks])

        # eps 1e-4 balances truncation against float64 roundoff for a loss
        # of this magnitude; smaller eps hits the rounding floor on tensors
        # whose true gradient is tiny.
        reports = grad_check(loss_fn, dict(model.store.items()), grads,
                             eps=1e-4, tolerance=1e-4)
        failed = [r for r in reports if not r.passed]
        assert not failed, f"gradient mismatch in: {failed}"

    def test_gradients_cover_every_parameter(self):
        model = tiny_model(seed=2).to_check_precision()
        prep = model.prepare(flagship_example())
        grads = model.zero_grads()
        model.loss_and_grads([prep], grads=grads, masks_list=[None])
        touched = {name for name, g in grads.items() if np.any(g != 0.0)}
        untouched = set(model.store.names()) - touched
        # Unused embedding rows aside, every tensor must receive gradient.
        assert untouched == set(), f"no gradient reached: {sorted(untouched)}"


class TestTraining:
    """Property: training reduces the loss, deterministically, or fails loudly."""

    def test_loss_decreases_on_tiny_corpus(self):
        model = tiny_model(seed=13)
        prepared = [model.prepare(ex) for ex in tiny_corpus()]
        before = evaluate_mean_loss(model, prepared)
        config = TrainConfig(max_steps=60, batch_size=4, learning_rate=0.01,
                             seed=1, eval_every=30)
        result = train(model, prepared, config)
        after = evaluate_mean_loss(model, prepared)
        assert result.steps == 60
        assert after < before * 0.7

    def test_same_seed_reproduces_loss_curve(self):
        losses = []
        for _ in range(2):
            model = tiny_model(seed=21)
            prepared = [model.prepare(ex) for ex in tiny_corpus()]
            config = TrainConfig(max_steps=10, batch_size=4, seed=5,
                                 eval_every=5)
            result = train(model, prepared, config)
            losses.append(result.train_losses)
        assert losses[0] == losses[1]

    def test_divergence_raises(self):
        model = tiny_model(seed=3)
        model.store["emb/word"] = np.full_like(model.store["emb/word"], 1e30)
        prepared = [model.prepare(ex) for ex in tiny_corpus()]
        config = TrainConfig(max_steps=5, batch_size=4, seed=0)
        with pytest.raises(DivergenceError):
            train(model, prepared, config)

    def test_dev_selection_keeps_best_weights(self):
        model = tiny_model(seed=13)
        prepared = [model.prepare(ex) for ex in tiny_corpus()]
        config = TrainConfig(max_steps=40, batch_size=4, learning_rate=0.01,
                             seed=1, eval_every=20)
        result = train(model, prepared, config, dev_examples=prepared[:4])
        assert result.best_weights is not None
        assert math.isfinite(result.best_eval_loss)
        dev_loss = evaluate_mean_loss(model, prepared[:4])
        assert dev_loss == pytest.approx(result.best_eval_loss, rel=1e-5)


class TestDecoding:
    """Property: decoding respects the action grammar and beam contracts."""

    def _trained(self):
        model = tiny_model(seed=13, hyper=TINY.scaled(dropout_rate=0.0))
        prepared = [model.prepare(ex) for ex in tiny_corpus()]
        config = TrainConfig(max_steps=150, batch_size=8, learning_rate=0.01,
                             seed=1, eval_every=50)
        train(model, prepared, config)
        return model, prepared

    def test_beam_one_equals_greedy(self):
        model, prepared = self._trained()
        for prep in prepared[:4]:
            a = beam_search(model, prep, beam_size=1)
            b = greedy(model, prep)
            assert a.actions == b.actions
            assert a.score == pytest.approx(b.score)

    def test_wider_beam_never_scores_worse(self):
        model, prepared = self._trained()
        for prep in prepared[:4]:
            narrow = beam_search(model, prep, beam_size=1)
            wide = beam_search(model, prep, beam_size=12)
            assert wide.score >= narrow.score - 1e-9

    def test_action_grammar_masks(self):
        model = tiny_model(seed=29)  # untrained: near-uniform outputs
        prep = model.prepare(flagship_example())
        result = beam_search(model, prep, beam_size=4, max_len=12)
        actions = result.actions
        assert len(actions) <= 12
        if actions:
            assert not isinstance(actions[0], Trans)
        for prev, cur in zip(actions, actions[1:]):
            assert not (isinstance(prev, Trans) and isinstance(cur, Trans))

    def test_decode_length_is_capped(self):
        model = tiny_model(seed=31)
        prep = model.prepare(flagship_example())
        result = beam_search(model, prep, beam_size=2, max_len=5)
        assert len(result.actions) <= 5

    def test_realized_output_contains_no_tag_surface(self):
        model, prepared = self._trained()
        morph = default_morphology()
        for example in tiny_corpus()[:4]:
            text = generate_question(model, example, model.vocab, morph,
                                     beam_size=4)
            assert "##" not in text
            for reserved in RESERVED:
                assert reserved not in text

    def test_overfit_model_reproduces_training_question(self):
        model, prepared = self._trained()
        morph = default_morphology()
        example = tiny_corpus()[0]
        text = generate_question(model, example, model.vocab, morph,
                                 beam_size=4)
        assert text == "what did he visit ?"


# ---------------------------------------------------------------------------
# Reference decoder: the dict-based outcome mixing and per-hypothesis beam
# search that the array form replaced, kept unchanged as the oracle.
# ---------------------------------------------------------------------------


def reference_outcome_distribution(model, state, roots):
    switch = state["switch"]
    p_copy = state["p_copy"]
    p_quest = state["p_quest"]
    p_trans = state["p_trans"]
    word_probs = {}
    word_actions = {}
    best_pos = {}
    for i, root in enumerate(roots):
        mass = float(switch[SW_COPY] * p_copy[i])
        word_probs[root] = word_probs.get(root, 0.0) + mass
        if root not in best_pos or p_copy[i] > p_copy[best_pos[root]]:
            best_pos[root] = i
    for root, pos in best_pos.items():
        word_actions[root] = Copy(pos)
    for qid in range(model.vocab.quest_size):
        word = model.vocab.quest_word(qid)
        mass = float(switch[SW_QUEST] * p_quest[qid])
        if word in word_probs:
            word_probs[word] += mass
        else:
            word_probs[word] = mass
            word_actions[word] = Quest(qid)
    tag_probs = {
        t: float(switch[SW_TRANS] * p_trans[t.index]) for t in ALL_TYPES
    }
    return word_probs, word_actions, tag_probs


@dataclass
class _RefHyp:
    actions: tuple
    log_sum: float
    s: np.ndarray
    c: np.ndarray
    last_was_word: bool


def reference_beam_search(model, prep, beam_size=None, max_len=None):
    k = beam_size if beam_size is not None else model.hyper.beam_size
    limit = max_len if max_len is not None else model.hyper.max_decode_len
    enc = model.encode(prep, masks=None)
    c0 = np.zeros(model.hyper.hidden_size, dtype=model.dtype)
    beams = [_RefHyp(actions=(), log_sum=0.0, s=enc["s0"], c=c0, last_was_word=False)]
    finished = []

    for _ in range(limit):
        candidates = []
        for hyp in beams:
            if hyp.actions:
                spec = model.input_spec_for_action(hyp.actions[-1], prep.roots)
            else:
                spec = ("word", SOS_ID)
            state = model.step(enc, hyp.s, hyp.c, spec)
            word_probs, word_actions, tag_probs = reference_outcome_distribution(
                model, state, prep.roots)
            s_next, c_next = state["s"], state["c"]
            for word, prob in word_probs.items():
                if word in ("<pad>", "<sos>") or prob <= 0.0:
                    continue
                logp = hyp.log_sum + math.log(prob)
                if word == "<eos>":
                    length = len(hyp.actions) + 1
                    finished.append(BeamResult(
                        actions=hyp.actions, score=logp / length, finished=True))
                    continue
                candidates.append((logp, _RefHyp(
                    actions=hyp.actions + (word_actions[word],),
                    log_sum=logp, s=s_next, c=c_next, last_was_word=True)))
            if hyp.last_was_word:
                for ttype, prob in tag_probs.items():
                    if prob <= 0.0:
                        continue
                    logp = hyp.log_sum + math.log(prob)
                    candidates.append((logp, _RefHyp(
                        actions=hyp.actions + (Trans(ttype),),
                        log_sum=logp, s=s_next, c=c_next, last_was_word=False)))
        if not candidates:
            break
        candidates.sort(key=lambda item: item[0], reverse=True)
        beams = [hyp for _, hyp in candidates[:k]]

    for hyp in beams:
        length = max(len(hyp.actions), 1)
        finished.append(BeamResult(
            actions=hyp.actions, score=hyp.log_sum / length, finished=False))
    return max(finished, key=lambda r: (r.score, r.finished))


def repeated_root_example() -> EncodedExample:
    """"he" twice (a copy-position tie when attention is flat), and "he"
    is also a list word, so the copy and list routes merge."""
    return EncodedExample(
        source_roots=["he", "visit", "he", "park"],
        source_features=[("NNP", "PERSON", "O"), ("VBD", "O", "O"),
                         ("NNP", "PERSON", "O"), ("NN", "O", "B")],
        answer_span=(3, 3),
        target_actions=[Quest(WHEN), Copy(0)],
        reference_question=["when", "he"],
    )


def distinct_roots_example() -> EncodedExample:
    """Three roots, none of them a list word."""
    return EncodedExample(
        source_roots=["visit", "park", "door"],
        source_features=[("VBD", "O", "O"), ("NN", "O", "O"), ("NN", "O", "B")],
        answer_span=(2, 2),
        target_actions=[Copy(1)],
        reference_question=["park"],
    )


class TestBeamMatchesReference:
    """Property: the array-form beam search makes the reference's decisions."""

    @staticmethod
    def _assert_same(model, examples, beam):
        for example in examples:
            prep = model.prepare(example)
            want = reference_beam_search(model, prep, beam_size=beam)
            got = beam_search(model, prep, beam_size=beam)
            assert got.actions == want.actions
            assert got.finished == want.finished
            assert got.score == pytest.approx(want.score, rel=1e-5)

    @pytest.mark.parametrize("beam", [0, 1, 4, 12])
    @pytest.mark.parametrize("dot_heads", [False, True])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_random_models(self, seed, dot_heads, beam):
        model = tiny_model(dot_heads=dot_heads, seed=seed)
        rng = np.random.default_rng(seed)
        for name, arr in model.store.items():
            model.store[name] = rng.normal(scale=0.6, size=arr.shape).astype(arr.dtype)
        examples = tiny_corpus()[:4] + [flagship_example(), repeated_root_example()]
        self._assert_same(model, examples, beam)

    @pytest.mark.parametrize("beam", [1, 4, 12])
    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_all_zero_model_pins_tie_order(self, dot_heads, beam):
        model = tiny_model(dot_heads=dot_heads)
        for name, arr in model.store.items():
            model.store[name] = np.zeros_like(arr)
        examples = [flagship_example(), repeated_root_example(),
                    distinct_roots_example()]
        self._assert_same(model, examples, beam)
        # Every step is the same flat distribution, and the unfinished
        # length-capped run outscores every early end.  With the repeated
        # root, "he" leads (two copy positions plus its list word) and the
        # first of its tied positions is copied.  With distinct roots the
        # three copies tie: the first column wins within a hypothesis and
        # the best-ranked hypothesis wins across them.
        for example in examples[1:]:
            result = beam_search(model, model.prepare(example), beam_size=beam)
            assert result.actions == (Copy(0),) * TINY.max_decode_len
            assert not result.finished


class TestPersistence:
    """Property: checkpoints restore weights and refuse mismatched vocabs."""

    def test_round_trip_restores_weights(self, tmp_path):
        model = tiny_model(seed=13)
        path = str(tmp_path / "model.ckpt")
        model.save(path, extra={"note": "unit"})
        loaded = EncoderDecoder.load(path, tiny_vocab())
        for name in model.store.names():
            np.testing.assert_array_equal(loaded.store[name], model.store[name])
        assert loaded.hyper == model.hyper
        assert loaded.pos_tags == model.pos_tags

    def test_wrong_vocab_rejected(self, tmp_path):
        model = tiny_model(seed=13)
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        other = Vocab(ENC_WORDS + ["extra"], QUEST_WORDS)
        with pytest.raises(ParseError):
            EncoderDecoder.load(path, other)

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = tiny_model(seed=13)
        prepared = [model.prepare(ex) for ex in tiny_corpus()]
        train(model, prepared, TrainConfig(max_steps=20, batch_size=4, seed=2))
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        loaded = EncoderDecoder.load(path, tiny_vocab())
        a = evaluate_mean_loss(model, prepared)
        b = evaluate_mean_loss(loaded, prepared)
        assert a == pytest.approx(b, rel=1e-6)

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ParseError):
            HyperParams.from_dict({"word_dim": 8, "bogus": 1})

    @pytest.mark.parametrize("key,value", [
        ("hyperparams", None),
        ("hyperparams", [8, 8]),
        ("hyperparams", {"hidden_size": "8"}),
        ("hyperparams", {"hidden_size": 8.0}),
        ("hyperparams", {"dropout_rate": "0.2"}),
        ("hyperparams", {"dot_heads": 1}),
        ("hyperparams", {"word_dim": True}),
        ("pos_tags", None),
        ("pos_tags", "NN"),
        ("ner_tags", None),
        ("ner_tags", ["O", 3]),
        ("init_seed", "13"),
    ])
    def test_bad_sidecar_field_rejected(self, tmp_path, key, value):
        path = str(tmp_path / "model.ckpt")
        tiny_model(seed=13).save(path)
        with open(path + ".json", encoding="utf-8") as fh:
            meta = json.load(fh)
        if value is None:
            del meta[key]
        elif isinstance(value, dict):
            meta[key].update(value)
        else:
            meta[key] = value
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        # The message names the field ("hyperparameter ..." for hyperparams).
        with pytest.raises(ParseError, match=key.removesuffix("s")):
            EncoderDecoder.load(path, tiny_vocab())

    def test_float_hyperparameter_accepts_integer(self):
        assert HyperParams.from_dict({"dropout_rate": 0}).dropout_rate == 0
