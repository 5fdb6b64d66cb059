"""Tests for the encoder-decoder: gradients, probability mass, decoding."""

import copy
import json
import math
import shutil
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from morphoqg import model as model_mod
from morphoqg import train as train_mod
from morphoqg.checks import gradient_reports, tiny_model_and_example
from morphoqg.codec import (
    build_vocabs,
    encode_example,
    EOS_ID,
    SOS_ID,
    UNK_ID,
    Copy,
    EncodedExample,
    Quest,
    Trans,
    Vocab,
)
from morphoqg.errors import (DivergenceError, EmptyInputError, IndexOutOfVocab, ParseError,
                             ShapeMismatch)
from morphoqg.generate import BeamResult, beam_search, generate_question
from morphoqg.model import (
    GRUS,
    SW_COPY,
    SW_QUEST,
    SW_TRANS,
    EncoderDecoder,
    HyperParams,
    OutcomeColumns,
    _gru_stacks,
    build_tag_list,
)
from morphoqg.morphology import ALL_TYPES, TransformationType, default_morphology
from morphoqg.tensor import (CHECKSUM_KEY, Adam, ParameterStore, affine, dropout_mask, linear,
                             scaled_uniform_init, sigmoid, uniform_init)
from morphoqg.toydata import make_overfit_corpus
from morphoqg.train import TrainConfig, _batches, evaluate_mean_loss, train
from test_tensor import assert_one_buffer, moments_in_id_order, reference_step

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
    hp = replace(hyper, dot_heads=dot_heads)
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


def target_columns(model, prep):
    """The outcome columns of a prepared source and each target's column:
    its root's or list word's column, or its tag's."""
    columns = model.outcome_columns(prep.roots)
    n_words = len(columns.words)
    cols = [n_words + a.type.index if isinstance(a, Trans)
            else columns.words.index(prep.roots[a.index] if isinstance(a, Copy)
                                     else model.vocab.quest_word(a.word_id))
            for a in prep.targets]
    return columns, np.array(cols, dtype=np.intp)


def reference_input_spec(model, action, roots):
    """The decoder input id that follows ``action``, written from the
    definition and independent of the outcome columns: the encoder id of
    the word a copy or a list word emits, or the tag's index after the
    encoder vocabulary."""
    if isinstance(action, Copy):
        return model.vocab.encoder_id(roots[action.index])
    if isinstance(action, Quest):
        return model.vocab.encoder_id(model.vocab.quest_word(action.word_id))
    return model.vocab.encoder_size + action.type.index


def column_input(model, prep, t):
    """The decoder input named by target ``t``'s outcome column."""
    columns, cols = target_columns(model, prep)
    return columns.inputs[cols[t]]


class TestPrepare:
    """Property: preparation resolves ids and each target's outcome column,
    and that column names the next decoder input."""

    def test_input_specs_start_with_sos(self, monkeypatch):
        """Training's teacher-forced inputs are <sos>, then the input of
        each target's column but the last."""
        model = tiny_model()
        prep = model.prepare(flagship_example())
        seen = []
        walk = model._walk

        def recorded(enc, inputs):
            seen.append(inputs)
            return walk(enc, inputs)

        monkeypatch.setattr(model, "_walk", recorded)
        model.loss_and_grads([prep], grads=None)
        columns, cols = target_columns(model, prep)
        [[ids]] = seen
        assert ids.dtype == np.intp
        assert ids.tolist() == [SOS_ID] + [int(columns.inputs[c]) for c in cols[:-1]]

    def test_quest_word_missing_from_encoder_vocab_feeds_unk(self):
        model = tiny_model()
        prep = model.prepare(flagship_example())
        # Input for step 2 embeds the previously emitted "when", which the
        # source-side vocabulary does not contain.
        assert column_input(model, prep, 0) == UNK_ID
        assert reference_input_spec(model, prep.targets[0], prep.roots) == UNK_ID

    def test_copy_input_uses_source_root_row(self):
        model = tiny_model()
        prep = model.prepare(flagship_example())
        want = model.vocab.encoder_id("he")
        assert column_input(model, prep, 1) == want
        assert reference_input_spec(model, prep.targets[1], prep.roots) == want

    def test_trans_target_and_input(self):
        model = tiny_model()
        prep = model.prepare(flagship_example())
        columns, cols = target_columns(model, prep)
        assert prep.targets[3] == Trans(TransformationType.ED)
        assert cols[3] == len(columns.words) + TransformationType.ED.index
        want = model.vocab.encoder_size + TransformationType.ED.index
        assert column_input(model, prep, 3) == want
        assert reference_input_spec(model, prep.targets[3], prep.roots) == want

    @pytest.mark.parametrize("seed", [3, 8])
    def test_every_target_column_names_its_reference_input(self, seed):
        """On the edge cases and on random sources and targets (roots
        outside the encoder vocabulary, roots that are list words, repeated
        roots), each target's column reads the reference input: a copy and
        a list word that land in one column read the same row."""
        model = tiny_model(seed=seed)
        rng = np.random.default_rng(seed)
        words = ENC_WORDS[4:] + QUEST_WORDS[4:] + ["zebra"]
        examples = edge_case_examples()
        for _ in range(20):
            n = int(rng.integers(1, 7))
            actions = [Copy(int(rng.integers(0, n))),
                       Quest(int(rng.integers(0, model.vocab.quest_size)))]
            actions += [Trans(ALL_TYPES[int(rng.integers(0, len(ALL_TYPES)))]),
                        actions[int(rng.integers(0, 2))]]
            examples.append(EncodedExample(
                source_roots=[str(w) for w in rng.choice(words, size=n)],
                source_features=[("NN", "O", "O")] * n, answer_span=(0, 0),
                target_actions=actions, reference_question=[]))
        for example in examples:
            prep = model.prepare(example)
            columns, cols = target_columns(model, prep)
            got = columns.inputs[cols].tolist()
            assert got == [reference_input_spec(model, a, prep.roots) for a in prep.targets]

    @pytest.mark.parametrize("offset", [0, 1, -4])
    def test_copy_index_outside_the_source_rejected(self, offset):
        """Indices n, n + 1 and -1 of an n-token source: a copy route past
        the source would name list word 0, and -1 the last tag."""
        model, example = tiny_model_and_example(1)
        n = len(example.source_roots)
        example = replace(example, target_actions=[Copy(n + offset)])
        with pytest.raises(IndexOutOfVocab):
            model.prepare(example)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("span", [(2, 7), (-1, 0), (5, 9), (2, 1)])
    def test_answer_span_outside_the_source_rejected(self, span):
        """On 3 tokens: spans past the end and before the start would train
        on the clipped span, and one wholly outside or reversed on an empty
        one; the encoded-file reader rejects each as a data error."""
        model, example = tiny_model_and_example(1)
        example = replace(example, answer_span=span)
        with pytest.raises(ParseError, match="answer_span"):
            model.prepare(example)

    def test_list_id_past_the_list_rejected(self):
        model = tiny_model()
        example = replace(flagship_example(),
                          target_actions=[Copy(0), Quest(model.vocab.quest_size)])
        with pytest.raises(IndexOutOfVocab):
            model.prepare(example)

    def test_copy_target_merges_list_route_when_word_is_listed(self):
        model = tiny_model()
        prep = model.prepare(flagship_example())
        columns, cols = target_columns(model, prep)
        assert prep.targets[1] == Copy(0)
        n_roots = len(prep.roots)
        # The copied "he" and list id HE_Q share one column.
        route_col = reference_route_col(model, prep.roots)
        assert cols[1] == columns.words.index("he") == route_col[n_roots + HE_Q]

    def test_word_absent_from_list_has_no_list_route(self):
        model = tiny_model()
        example = flagship_example()
        example.target_actions[1] = Copy(1)  # "visit", not a question word
        prep = model.prepare(example)
        columns, cols = target_columns(model, prep)
        n_roots = len(prep.roots)
        assert cols[1] == columns.words.index("visit") < len(columns.positions)
        list_cols = reference_route_col(model, prep.roots)[n_roots : n_roots + model.vocab.quest_size]
        assert cols[1] not in list_cols.tolist()

    def test_end_marker_is_appended_as_final_target(self):
        model = tiny_model()
        prep = model.prepare(flagship_example())
        columns, cols = target_columns(model, prep)
        assert len(prep.targets) == 5
        assert prep.targets[-1] == Quest(EOS_ID)
        assert cols[-1] == columns.words.index("<eos>")

    def test_empty_source_rejected(self):
        model = tiny_model()
        example = flagship_example()
        example.source_roots = []
        example.source_features = []
        example.target_actions = [Quest(WHEN)]
        example.answer_span = (0, 0)
        with pytest.raises(EmptyInputError):
            model.prepare(example)
        # A caller that builds its own empty source still meets encode's check.
        prep = replace(model.prepare(flagship_example()), roots=(), word_ids=(),
                       bio_ids=(), ner_ids=(), pos_ids=())
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
        state = model.step(enc, enc["s0"], np.zeros(8, dtype=model.dtype), SOS_ID)
        n = len(prep.roots)
        np.testing.assert_allclose(state["alpha"], np.full(n, 1.0 / n))
        np.testing.assert_allclose(state["p_copy"], np.full(n, 1.0 / n))
        np.testing.assert_allclose(state["p_trans"], np.full(9, 1.0 / 9))
        nq = model.vocab.quest_size
        np.testing.assert_allclose(state["p_quest"], np.full(nq, 1.0 / nq))
        np.testing.assert_allclose(state["switch"], [1 / 3, 1 / 3, 1 / 3])


def reference_layout(model, roots):
    """One pass over the roots and one over every list word: each word
    column's word, the source positions of each root column, the list id
    of each list-only column, and the column of every route in route order
    (each source position, each list word, each tag)."""
    col_of = {}
    positions = []
    for i, root in enumerate(roots):
        if root not in col_of:
            col_of[root] = len(positions)
            positions.append([])
        positions[col_of[root]].append(i)
    quest_ids = []
    for qid, word in enumerate(model.vocab.quest_vocab):
        if word not in col_of:
            col_of[word] = len(col_of)
            quest_ids.append(qid)
    route_col = [col_of[root] for root in roots]
    route_col += [col_of[word] for word in model.vocab.quest_vocab]
    route_col += range(len(col_of), len(col_of) + len(ALL_TYPES))
    return col_of, positions, quest_ids, route_col


def reference_route_col(model, roots):
    """The outcome column of every route, in route order (intp)."""
    return np.array(reference_layout(model, roots)[3], dtype=np.intp)


def reference_outcome_columns(model, roots):
    """The outcome columns built from :func:`reference_layout`, kept as the
    oracle for ``outcome_columns``."""
    col_of, positions, quest_ids, route_col = reference_layout(model, roots)
    # Each column's routes in route order; level d holds every column's
    # route at index d + 1.
    chains = [[] for _ in range(len(col_of) + len(ALL_TYPES))]
    for route, col in enumerate(route_col):
        chains[col].append(route)
    levels = [[(col, chain[d]) for col, chain in enumerate(chains) if len(chain) > d]
              for d in range(1, max(map(len, chains)))]
    return OutcomeColumns(
        words=tuple(col_of),
        inputs=np.array([model.vocab.encoder_id(word) for word in col_of]
                        + [model.vocab.encoder_size + t.index for t in ALL_TYPES], dtype=np.intp),
        positions=tuple(np.array(pos, dtype=np.intp) for pos in positions),
        quest_ids=np.array(quest_ids, dtype=np.intp),
        first_routes=np.array([chain[0] for chain in chains], dtype=np.intp),
        route_levels=tuple((np.array([col for col, _ in level], dtype=np.intp),
                            np.array([route for _, route in level], dtype=np.intp))
                           for level in levels),
    )


class TestOutcomeColumns:
    """Property: the columns equal the reference construction's, field by
    field, dtypes included."""

    @staticmethod
    def _assert_same(model, roots):
        got = model.outcome_columns(roots)
        want = reference_outcome_columns(model, roots)
        assert got.words == want.words
        for a, b in ((got.inputs, want.inputs), (got.quest_ids, want.quest_ids)):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        assert len(got.positions) == len(want.positions)
        for a, b in zip(got.positions, want.positions):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        assert got.first_routes.dtype == np.intp
        assert got.first_routes.tolist() == want.first_routes.tolist()
        # A level's order does not matter: each column appears once in it.
        assert len(got.route_levels) == len(want.route_levels)
        for (cols, routes), (want_cols, want_routes) in zip(got.route_levels, want.route_levels):
            assert cols.dtype == routes.dtype == np.intp
            assert sorted(zip(cols.tolist(), routes.tolist())) == list(zip(want_cols.tolist(),
                                                                           want_routes.tolist()))

    @pytest.mark.parametrize("roots", [
        (),
        ("zebra",),
        ("zebra", "yak", "zebra"),
        ("he",),
        ("?", "he", "when", "he", "the"),
        ("<pad>", "<unk>", "<sos>", "<eos>"),
        tuple(QUEST_WORDS),
        tuple(reversed(QUEST_WORDS)) + ("visit", "zebra", "visit"),
    ])
    def test_edge_cases(self, roots):
        self._assert_same(tiny_model(), roots)

    def test_random_sources(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(60)]
        vocab = Vocab(RESERVED + words[:30], RESERVED + words[20:50])
        model = EncoderDecoder(TINY, vocab, POS_TAGS, NER_TAGS)
        # Encoder-only, list-only, shared, unknown and reserved words.
        pool = words + RESERVED + ["unknown"]
        for n in list(range(0, 12)) + [40, 128]:
            for _ in range(8):
                self._assert_same(model, tuple(rng.choice(pool, size=n).tolist()))


class TestDecoderInputIds:
    """Property: a decoder input is one intp id into the stacked rows
    ``[emb/word; emb/trans]``: a word's encoder id, or tag ``t`` at
    ``encoder_size + t.index``; ``input_embedding`` gathers those rows."""

    def test_columns_hold_intp_id_arrays(self):
        model = tiny_model()
        columns = model.outcome_columns(("he", "zebra", "visit", "he"))
        for ids in (columns.inputs, columns.quest_ids):
            assert isinstance(ids, np.ndarray) and ids.dtype == np.intp
        n_words = len(columns.words)
        assert len(columns.inputs) == n_words + len(ALL_TYPES)
        for t in ALL_TYPES:
            assert columns.inputs[n_words + t.index] == model.vocab.encoder_size + t.index

    @pytest.mark.parametrize("check_precision", [False, True])
    def test_mixed_ids_gather_their_rows_bit_for_bit(self, check_precision):
        """<sos>, a root, a list word, the last encoder row and every tag."""
        model = tiny_model(seed=11)
        model = model.to_check_precision() if check_precision else model
        word, trans = model.store["emb/word"], model.store["emb/trans"]
        n = model.vocab.encoder_size
        words = [SOS_ID, model.vocab.encoder_id("visit"), model.vocab.encoder_id("the"), n - 1]
        ids = np.array(words + [n + t.index for t in ALL_TYPES], dtype=np.intp)
        got = model.input_embedding(ids)
        want = np.concatenate([word[words], trans])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_scalar_id_gives_one_row(self):
        model = tiny_model()
        n = model.vocab.encoder_size
        for ids, want in ((SOS_ID, model.store["emb/word"][SOS_ID]),
                          (np.intp(n + 8), model.store["emb/trans"][8])):
            row = model.input_embedding(ids)
            assert row.shape == (TINY.word_dim,) and row.tobytes() == want.tobytes()


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
            state = model.step(enc, enc["s0"], np.zeros(8, dtype=model.dtype), SOS_ID)
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
        state = model.step(enc, enc["s0"], np.zeros(8, dtype=model.dtype), SOS_ID)
        words, _, _ = model.outcome_distribution(state, roots)
        sw = state["switch"]
        expected = (sw[SW_COPY] * (state["p_copy"][0] + state["p_copy"][2])
                    + sw[SW_QUEST] * state["p_quest"][HE_Q])
        assert words["he"] == pytest.approx(float(expected), rel=1e-9)

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_loss_is_outcome_mass_at_target_columns(self, dot_heads):
        """The loss is -sum log of the mass the beam ranks, read at the
        column of each target's surface word or tag, over a teacher-forced
        walk of ``step``: training's heads, run once on the stacked walk,
        score as the step does for both head designs."""
        model = tiny_model(dot_heads=dot_heads).to_check_precision()
        rng = np.random.default_rng(17)
        for name, arr in model.store.items():
            model.store[name] = rng.normal(scale=0.5, size=arr.shape)
        for example in (flagship_example(), repeated_root_example()):
            prep = model.prepare(example)
            columns = model.outcome_columns(prep.roots)
            enc = model.encode(prep)
            s, c = enc["s0"], np.zeros(8, dtype=model.dtype)
            want = 0.0
            specs = [SOS_ID] + [reference_input_spec(model, a, prep.roots)
                                          for a in prep.targets[:-1]]
            for spec, action in zip(specs, prep.targets):
                state = model.step(enc, s, c, spec)
                if isinstance(action, Trans):
                    col = len(columns.words) + action.type.index
                elif isinstance(action, Copy):
                    col = columns.words.index(prep.roots[action.index])
                else:
                    col = columns.words.index(model.vocab.quest_word(action.word_id))
                want -= math.log(model.outcome_mass(state, columns)[col])
                s, c = state["s"], state["c"]
            loss, tokens = model.loss_and_grads([prep], grads=None)
            assert tokens == len(prep.targets)
            assert loss == pytest.approx(want, rel=1e-12)


def reference_outcome_mass(state, route_col):
    """The scatter-add form of the mixing, kept as the oracle for
    ``outcome_mass``: every route's float64 mass added into the column
    ``route_col`` names with one ``np.add.at``, from zero, in route order."""
    switch = state["switch"]
    routes = np.concatenate([switch[..., sw, None] * state[head] for sw, head in model_mod.ROUTES],
                            axis=-1).astype(np.float64)
    mass = np.zeros((int(route_col.max()) + 1,) + switch.shape[:-1])
    np.add.at(mass, route_col, routes.T)
    return mass.T


def random_state(rng, shape, columns, n_list, dtype):
    """Softmax-shaped switch and heads over ``columns``' routes and
    ``n_list`` list words, ``shape`` rows of them."""
    n_copy = sum(map(len, columns.positions))
    return {key: rng.dirichlet(np.ones(size), size=shape or None).astype(dtype)
            for key, size in (("switch", 3), ("p_copy", n_copy), ("p_quest", n_list),
                              ("p_trans", len(ALL_TYPES)))}


class TestOutcomeMassGather:
    """Property: ``outcome_mass`` gathers each column's first route and adds
    the further routes level by level, in route order: the bytes of one
    ``np.add.at`` from zero."""

    # "he" is a root at three positions and a list word: four routes.
    ROOTS = ("he", "visit", "he", "the", "zebra", "he", "park", "the")

    @pytest.mark.parametrize("dot_heads", [False, True])
    @pytest.mark.parametrize("check_precision", [False, True])
    def test_model_states_mix_to_the_scatter_add_bytes(self, dot_heads, check_precision):
        model = tiny_model(dot_heads=dot_heads, seed=23)
        model = model.to_check_precision() if check_precision else model
        rng = np.random.default_rng(31)
        for name, arr in model.store.items():
            model.store[name] = rng.normal(scale=0.5, size=arr.shape)
        prep = model.prepare(EncodedExample(
            source_roots=list(self.ROOTS), source_features=[("NNP", "O", "O")] * 7
            + [("NN", "O", "B")], answer_span=(7, 7), target_actions=[],
            reference_question=[]))
        columns = model.outcome_columns(prep.roots)
        he = columns.words.index("he")
        assert len(columns.positions[he]) == 3 and "he" in QUEST_WORDS
        assert [he in cols.tolist() for cols, _routes in columns.route_levels] == [True] * 3
        enc = model.encode(prep)
        one = model.step(enc, enc["s0"], np.zeros(8, dtype=model.dtype), SOS_ID)
        ids = columns.inputs[rng.integers(0, len(columns.inputs), size=5)]
        rows = model.step(enc, rng.normal(size=(5, 8)).astype(model.dtype),
                          rng.normal(size=(5, 8)).astype(model.dtype), ids)
        route_col = reference_route_col(model, prep.roots)
        for state in (one, rows):
            got, want = model.outcome_mass(state, columns), reference_outcome_mass(state, route_col)
            assert got.shape == want.shape and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_random_sources_mix_to_the_scatter_add_bytes(self):
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(40)]
        vocab = Vocab(RESERVED + words[:30], RESERVED + words[10:40])
        model = EncoderDecoder(TINY, vocab, POS_TAGS, NER_TAGS)
        pool = words[:12] + ["unknown"]  # a dozen roots repeat in long sources
        for n in list(range(0, 10)) + [40, 128]:
            roots = tuple(rng.choice(pool, size=n).tolist())
            columns, route_col = model.outcome_columns(roots), reference_route_col(model, roots)
            for shape, dtype in (((), np.float32), ((3,), np.float32), ((4,), np.float64)):
                state = random_state(rng, shape, columns, vocab.quest_size, dtype)
                got = model.outcome_mass(state, columns)
                assert got.tobytes() == reference_outcome_mass(state, route_col).tobytes()


class TestAnswerBlock:
    """Property: in the additive design g2's answer block
    ``v_answer @ W_g2[:, :d_h].T + b_g2`` is taken once per source, and the
    heads give the probabilities of the one product over ``[v_answer, s, c]``."""

    def test_encode_carries_the_block_for_the_additive_design_only(self):
        for dot_heads in (False, True):
            model = tiny_model(dot_heads=dot_heads)
            enc = model.encode(model.prepare(flagship_example()))
            assert ("g2_answer" in enc) == (not dot_heads)
        model = tiny_model().to_check_precision()
        rng = np.random.default_rng(2)
        for name, arr in model.store.items():
            model.store[name] = rng.normal(scale=0.5, size=arr.shape)
        enc = model.encode(model.prepare(flagship_example()))
        W, b = model.store["g2/W"], model.store["g2/b"]
        assert enc["g2_answer"].shape == (2 * TINY.hidden_size,)
        np.testing.assert_allclose(enc["g2_answer"], W[:, : TINY.hidden_size] @ enc["v_answer"] + b,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("k", [None, 5])
    def test_step_p_quest_matches_the_single_product_form(self, k):
        """On the float64 twin, to within 1e-12: only the order of the
        float additions changed."""
        model = tiny_model(seed=3).to_check_precision()
        rng = np.random.default_rng(4)
        for name, arr in model.store.items():
            model.store[name] = rng.normal(scale=0.5, size=arr.shape)
        prep = model.prepare(flagship_example())
        enc = model.encode(prep)
        columns = model.outcome_columns(prep.roots)
        shape = (8,) if k is None else (k, 8)
        ids = SOS_ID if k is None else columns.inputs[rng.integers(0, len(columns.inputs), size=k)]
        s_prev, c_prev = rng.normal(size=shape), rng.normal(size=shape)
        state = model.step(enc, s_prev, c_prev, ids)
        p = model.store
        u = np.concatenate([np.broadcast_to(enc["v_answer"], shape), state["s"], state["c"]],
                           axis=-1)
        pieces = (u @ p["g2/W"].T + p["g2/b"]).reshape(u.shape[:-1] + (2, -1))
        logits = pieces.max(axis=-2) @ p["g2/Wo"].T + p["g2/bo"]
        want = np.exp(logits - logits.max(axis=-1, keepdims=True))
        want /= want.sum(axis=-1, keepdims=True)
        assert state["p_quest"].shape == want.shape
        assert np.max(np.abs(state["p_quest"] - want)) < 1e-12


def reference_route_grads(steps, hits, dP, seeds):
    """Write into ``seeds``, zero arrays shaped like ``steps``, the
    gradients of ``dP[t]`` times the summed mass of the routes marked in
    ``hits[t]``, at the switch and at each head of every step ``t``."""
    start = 0
    for sw, head in model_mod.ROUTES:
        probs = steps[head]
        sel = hits[:, start : start + probs.shape[-1]]
        start += probs.shape[-1]
        seeds["switch"][:, sw] = dP * np.where(sel, probs, 0).sum(axis=-1)
        np.copyto(seeds[head], (dP * steps["switch"][:, sw])[:, None], where=sel)


def reference_loss(model, prepared, walk, seeds):
    """The per-example loss, kept as the oracle for the batch loss: for each
    example in turn, the column of each target's route, the scatter-added
    outcome mass of the example's own rows of the (T, B, ·) ``walk`` (its
    T_b steps and n source positions) at those columns, and, with
    ``seeds``, the gradients written into its own rows of them through the
    route-to-column map."""
    total = 0.0
    for b, prep in enumerate(prepared):
        n, n_quest = len(prep.roots), model.vocab.quest_size
        route_col = reference_route_col(model, prep.roots)
        target_cols = route_col[[a.index if isinstance(a, Copy)
                                 else n + a.word_id if isinstance(a, Quest)
                                 else n + n_quest + a.type.index for a in prep.targets]]
        T = len(target_cols)

        def rows(arrays):
            return {key: arrays[key][:T, b, :n] if key == "p_copy" else arrays[key][:T, b]
                    for key in model_mod.OUTPUTS}

        steps = rows(walk)
        probs = reference_outcome_mass(steps, route_col)[np.arange(T), target_cols]
        total += sum([-math.log(prob) for prob in probs.tolist()])
        if seeds is not None:
            reference_route_grads(steps, route_col == target_cols[:, None],
                                  (-1.0 / probs).astype(model.dtype), rows(seeds))
    return total


class TestBatchLoss:
    """Property: the loss of a padded batch and its gradient seeds at the
    switch and every head, taken at once over all targets' routes, equal
    the per-example reference bit for bit."""

    # "he" and "the" are list words; "he" fills three in eight positions.
    POOL = ("he", "he", "he", "the", "visit", "zebra", "park", "door")

    def _batch(self, model, rng):
        examples = []
        for n in rng.permutation([1, 3, 8, 9, 12, 17])[: int(rng.integers(3, 7))].tolist():
            roots = [str(w) for w in rng.choice(self.POOL, size=n)]
            actions = []
            for _ in range(int(rng.integers(0, 9))):
                kind = int(rng.integers(0, 4))
                actions.append(Copy(int(rng.integers(0, n))) if kind < 2
                               else Quest(int(rng.integers(0, model.vocab.quest_size))) if kind == 2
                               else Trans(ALL_TYPES[int(rng.integers(0, len(ALL_TYPES)))]))
            left = int(rng.integers(0, n))
            examples.append(EncodedExample(
                source_roots=roots, source_features=[("NN", "O", "O")] * n,
                answer_span=(left, int(rng.integers(left, n))), target_actions=actions,
                reference_question=[]))
        return [model.prepare(ex) for ex in examples]

    @pytest.mark.parametrize("dot_heads", [False, True])
    @pytest.mark.parametrize("check_precision", [False, True])
    def test_loss_and_seeds_equal_the_per_example_reference(self, dot_heads, check_precision):
        model = tiny_model(dot_heads=dot_heads, seed=19)
        model = model.to_check_precision() if check_precision else model
        rng = np.random.default_rng(43)
        for name, arr in model.store.items():
            model.store[name] = rng.normal(scale=0.5, size=arr.shape).astype(arr.dtype)
        repeated = 0  # targets of three or more copy routes in a padded source of 8 or more
        for _ in range(20):
            preps = self._batch(model, rng)
            n_max = max(len(prep.roots) for prep in preps)
            for prep in preps:
                copies = np.add.reduceat(prep.routes[:, 0] == model_mod.SW_COPY,
                                         np.cumsum(prep.route_counts) - prep.route_counts)
                if 8 <= len(prep.roots) < n_max:
                    repeated += int((copies >= 3).sum())
            enc = model._encode(preps, None)
            walk = model._walk(enc, [prep.inputs for prep in preps])
            model._heads(enc, walk)
            got_seeds, want_seeds = ({key: np.zeros_like(walk[key]) for key in model_mod.OUTPUTS}
                                     for _ in range(2))
            loss = model._loss(preps, walk, got_seeds)
            assert loss == reference_loss(model, preps, walk, want_seeds)
            assert model._loss(preps, walk, None) == loss
            for key in model_mod.OUTPUTS:
                assert got_seeds[key].dtype == model.dtype
                assert got_seeds[key].tobytes() == want_seeds[key].tobytes(), key
        assert repeated >= 10


def edge_case_examples() -> list[EncodedExample]:
    """A one-token source whose copied word feeds the decoder twice (a
    repeated input row), and a target that is the end marker alone (a
    single decoder step)."""
    one_token = EncodedExample(
        source_roots=["he"], source_features=[("NNP", "PERSON", "B")],
        answer_span=(0, 0), target_actions=[Copy(0), Copy(0)],
        reference_question=["he", "he"])
    return [one_token, replace(flagship_example(), target_actions=[])]


def train_h512_batch(n_examples: int, seed: int = 0):
    """A model at the full-scale shape (hidden 512, 1,004 list words) and
    examples shaped like the benchmark's training batch: sources of 28-32
    tokens and 13 target actions, so 14 decoder steps."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(300)]
    vocab = Vocab(RESERVED + words, RESERVED + [f"q{i}" for i in range(1_000)])
    model = EncoderDecoder(HyperParams(), vocab, POS_TAGS, NER_TAGS, init_seed=seed)
    examples = []
    for _ in range(n_examples):
        n = int(rng.integers(28, 33))
        left = int(rng.integers(0, n - 2))
        actions, last_was_word = [], False
        while len(actions) < 13:
            kind = rng.integers(0, 3)
            if kind == 0 and last_was_word:
                actions.append(Trans(ALL_TYPES[int(rng.integers(0, len(ALL_TYPES)))]))
            else:
                actions.append(Copy(int(rng.integers(0, n))) if kind == 1
                               else Quest(int(rng.integers(4, vocab.quest_size))))
            last_was_word = not isinstance(actions[-1], Trans)
        examples.append(EncodedExample(
            source_roots=[words[i] for i in rng.integers(0, len(words), size=n)],
            source_features=[(POS_TAGS[int(p)], NER_TAGS[int(e)], "O")
                             for p, e in zip(rng.integers(0, len(POS_TAGS), size=n),
                                             rng.integers(0, len(NER_TAGS), size=n))],
            answer_span=(left, left + 2), target_actions=actions,
            reference_question=[]))
    return model, examples


def reference_gru(store, prefix, x, h):
    """One GRU update of one row, written from the equations in float64 and
    independent of the model's cell: the update gate z mixes the previous
    state with a candidate that reads the reset-gated state r * h."""
    W, U, b = ({g: store[f"{prefix}/{kind}_{g}"].astype(np.float64) for g in "zrn"}
               for kind in "WUb")
    z = 1.0 / (1.0 + np.exp(-(W["z"] @ x + U["z"] @ h + b["z"])))
    r = 1.0 / (1.0 + np.exp(-(W["r"] @ x + U["r"] @ h + b["r"])))
    n = np.tanh(W["n"] @ x + U["n"] @ (r * h) + b["n"])
    return z * h + (1.0 - z) * n


class TestSequenceRecurrences:
    """Property: the sequence-level encoder computes the token-by-token GRU,
    one GRU cell serves every recurrence, and the float32 training pass
    stays within float32 rounding of the float64 one at the full-scale
    shape."""

    @pytest.mark.parametrize("example", [flagship_example, lambda: repeated_root_example(),
                                         lambda: edge_case_examples()[0]])
    def test_encoder_matches_token_by_token_reference(self, example):
        model = tiny_model(seed=5).to_check_precision()
        # Biases start at zero; random ones make the reference check them too.
        bias_rng = np.random.default_rng(2)
        for prefix in ("enc_fwd", "enc_bwd"):
            for g in "zrn":
                model.store[f"{prefix}/b_{g}"][:] = bias_rng.uniform(-0.5, 0.5,
                                                                     TINY.hidden_size)
        prep = model.prepare(example())
        masks = dropout_mask((len(prep.roots), model.hyper.input_dim), 0.2,
                             np.random.default_rng(1), dtype=model.dtype)
        X = np.concatenate([model.store[name][ids] for name, ids in model._input_ids([prep])],
                           axis=1) * masks
        n, d_h = len(prep.roots), TINY.hidden_size
        wants, prevs = [], []
        for prefix, order in (("enc_fwd", range(n)), ("enc_bwd", range(n - 1, -1, -1))):
            want, prev, h = np.empty((n, d_h)), np.empty((n, d_h)), np.zeros(d_h)
            for i in order:
                prev[i] = h
                h = want[i] = reference_gru(model.store, prefix, X[i], h)
            wants.append(want)
            prevs.append(prev)
        want, prev = np.stack(wants), np.stack(prevs)
        atol = 1e-12 * np.abs(want).max()
        enc = model._encode([prep], masks)
        np.testing.assert_allclose(enc["H"][0], want[0] + want[1], rtol=0, atol=atol)
        # Fused step i holds token i forward and token n-1-i backward.
        states = enc["cache"]["h"][:, :, 0]
        np.testing.assert_allclose(states[:, 0], prev[0], rtol=0, atol=atol)
        np.testing.assert_allclose(states[::-1, 1], prev[1], rtol=0, atol=atol)
        # The cell on a (2, n, ·) pair of (input, state) batches gives the
        # rows of 2n one-row updates.
        W, _U, b = model._gru["enc"]
        batch, *_ = model._gru_cell("enc", linear(W, np.stack((X, X))) + b[:, None], prev)
        np.testing.assert_allclose(batch, want, rtol=0, atol=atol)

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_one_gru_cell_serves_encoder_training_and_beam(self, monkeypatch, dot_heads):
        """An example of n tokens and T targets takes n cell calls for the
        two encoder directions, which walk together on (2, 1, d_h) pairs of
        states, then one per teacher-forced step in training and one per
        step in beam search."""
        model = tiny_model(dot_heads)
        prep = model.prepare(flagship_example())
        calls = {"_gru_cell": 0, "step": 0}
        encoder_states = []
        for name in calls:
            def counted(*args, _name=name, _method=getattr(model, name), **kwargs):
                calls[_name] += 1
                if _name == "_gru_cell" and args[0] == "enc":
                    encoder_states.append(args[2].shape)
                return _method(*args, **kwargs)
            monkeypatch.setattr(model, name, counted)
        n, T = len(prep.roots), len(prep.targets)
        pair = (2, 1, TINY.hidden_size)
        model.loss_and_grads([prep], grads=model.zero_grads())
        assert calls == {"_gru_cell": n + T, "step": 0}
        assert encoder_states == [pair] * n
        calls.update(_gru_cell=0)
        encoder_states.clear()
        beam_search(model, prep, beam_size=4)
        assert calls["step"] > 0
        assert calls["_gru_cell"] == n + calls["step"]
        assert encoder_states == [pair] * n

    def test_float32_training_pass_matches_float64_at_full_scale(self):
        """Tolerance: the loss within 1e-6 relative and every gradient
        tensor within 1e-4 of its largest entry.  Float32 rounding alone
        reads about 2e-5 on the worst tensor (att/b, a sum with much
        cancellation) at this shape."""
        model, examples = train_h512_batch(2)
        check = model.to_check_precision()
        masks = [dropout_mask((len(ex.source_roots), model.hyper.input_dim), 0.2,
                              np.random.default_rng(i), dtype=model.dtype)
                 for i, ex in enumerate(examples)]
        results = []
        for m, mask_dtype in ((model, np.float32), (check, np.float64)):
            grads = m.zero_grads()
            loss, tokens = m.loss_and_grads([m.prepare(ex) for ex in examples], grads=grads,
                                            masks=np.concatenate(masks).astype(mask_dtype))
            assert tokens == 28
            results.append((loss, grads))
        (loss32, grads32), (loss64, grads64) = results
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        for name, want in grads64.items():
            worst = float(np.abs(grads32[name] - want).max())
            assert worst <= 1e-4 * float(np.abs(want).max()), name


def address(arr) -> int:
    return arr.__array_interface__["data"][0]


def assert_gru_stacks(tensors, prefix):
    """Each of the GRU's stacks in ``tensors`` (a store or a buffer laid out
    as one) is a C-contiguous view of its buffer, starting at its ``z``
    gate and holding the three gates' bytes in order."""
    for kind, stack in zip("WUb", _gru_stacks(tensors, prefix)):
        gates = [tensors[f"{prefix}/{kind}_{g}"] for g in "zrn"]
        assert stack.flags.c_contiguous and np.shares_memory(stack, tensors.flat)
        assert address(stack) == address(gates[0])
        assert stack.tobytes() == np.concatenate(gates).tobytes(), (prefix, kind)


def assert_encoder_pair(tensors):
    """The encoder's (2, ·) stacks in ``tensors`` are views of its buffer
    whose first index is each direction's stack, in place and in bytes."""
    for pair, fwd, bwd in zip(*(_gru_stacks(tensors, key)
                                for key in ("enc", "enc_fwd", "enc_bwd"))):
        assert pair.shape == (2,) + fwd.shape and np.shares_memory(pair, tensors.flat)
        for half, stack in zip(pair, (fwd, bwd)):
            assert half.flags.c_contiguous and address(half) == address(stack)
            assert half.tobytes() == stack.tobytes()


class TestGruStacks:
    """Property: each GRU's ``[W_z; W_r; W_n]``, ``[U_z; U_r; U_n]`` and
    ``[b_z; b_r; b_n]`` is one stretch of the weights, of the gradients and
    of Adam's moments, and the two encoder directions' stacks are one
    (2, ·) view of each, while a fresh model still draws gate by gate."""

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_stacks_are_views_of_every_buffer(self, dot_heads):
        model = tiny_model(dot_heads=dot_heads, seed=3)
        grads = model.zero_grads()
        model.loss_and_grads([model.prepare(flagship_example())], grads=grads)
        opt = Adam(model.store)
        opt.step(grads)  # nonzero moments, moved weights
        for tensors in (model.store, grads, opt._m, opt._v):
            for prefix in GRUS:
                assert_gru_stacks(tensors, prefix)
            assert_encoder_pair(tensors)
        # The model's cached stacks are the store's.
        assert sorted(model._gru) == ["dec", "enc"]
        for key, stacks in model._gru.items():
            for cached, stack in zip(stacks, _gru_stacks(model.store, key)):
                assert cached.__array_interface__ == stack.__array_interface__

    def test_assignment_writes_through_to_the_stacks(self):
        model = tiny_model(seed=3)
        d_h = TINY.hidden_size
        model.store["dec/U_r"] = np.full((d_h, d_h), 0.5)
        _W, U, _b = model._gru["dec"]
        assert (U[d_h : 2 * d_h] == 0.5).all() and not (U[:d_h] == 0.5).any()
        model.store["enc_bwd/W_n"] = np.full((d_h, TINY.input_dim), 0.25)
        W = model._gru["enc"][0]
        assert (W[1, 2 * d_h :] == 0.25).all() and not (W[0] == 0.25).any()
        grads = model.zero_grads()
        grads["enc_fwd/b_n"] += 2.0
        assert _gru_stacks(grads, "enc_fwd")[2].tolist() == [0.0] * (2 * d_h) + [2.0] * d_h
        assert _gru_stacks(grads, "enc")[2].tolist() == [[0.0] * (2 * d_h) + [2.0] * d_h,
                                                         [0.0] * (3 * d_h)]

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_stacks_survive_astype_and_load(self, tmp_path, dot_heads):
        """The float64 twin and a loaded model build their stacks over their
        own buffers; a load reads into the views, so the stacks cached
        before the read hold the checkpoint's weights."""
        model = tiny_model(dot_heads=dot_heads, seed=13)
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        for other in (model.to_check_precision(), EncoderDecoder.load(path, tiny_vocab())):
            assert other.store.flat is not model.store.flat
            assert_one_buffer(other.store.items(), other.store.flat)
            for prefix in GRUS:
                assert_gru_stacks(other.store, prefix)
            assert_encoder_pair(other.store)
            for key in ("enc", "dec"):
                for mine, theirs in zip(model._gru[key], other._gru[key]):
                    assert np.shares_memory(theirs, other.store.flat)
                    assert theirs.tobytes() == mine.astype(other.dtype).tobytes()

    def test_fresh_weights_equal_a_gate_by_gate_draw(self):
        """A fresh model's weights are the draws of one generator over the
        tensors in registration order, each GRU gate by gate (W, U, b of z,
        then of r, then of n), written out here by hand."""
        model = tiny_model(seed=19)
        d_w, d_h, d_in = TINY.word_dim, TINY.hidden_size, TINY.input_dim
        n_types, n_quest = len(ALL_TYPES), model.vocab.quest_size
        specs = [("emb/word", (model.vocab.encoder_size, d_w), "uniform"),
                 ("emb/bio", (4, TINY.answer_feat_dim), "uniform"),
                 ("emb/ner", (len(NER_TAGS), TINY.ner_feat_dim), "uniform"),
                 ("emb/pos", (len(POS_TAGS), TINY.pos_feat_dim), "uniform"),
                 ("emb/trans", (n_types, d_w), "uniform")]
        for prefix, x_dim in (("enc_fwd", d_in), ("enc_bwd", d_in), ("dec", d_w + d_h)):
            for g in "zrn":
                specs += [(f"{prefix}/W_{g}", (d_h, x_dim), "scaled"),
                          (f"{prefix}/U_{g}", (d_h, d_h), "uniform"),
                          (f"{prefix}/b_{g}", (d_h,), "zeros")]
        specs += [("init/W", (d_h, d_h), "scaled"), ("init/b", (d_h,), "zeros"),
                  ("att/A", (d_h, d_h), "scaled"), ("att/B", (d_h, d_h), "scaled"),
                  ("att/b", (d_h,), "zeros"), ("att/v", (d_h,), "scaled"),
                  ("g1/W", (2 * d_h, 2 * d_h), "scaled"), ("g1/b", (2 * d_h,), "zeros"),
                  ("g1/Wo", (n_types, d_h), "scaled"), ("g1/bo", (n_types,), "zeros"),
                  ("g2/W", (2 * d_h, 3 * d_h), "scaled"), ("g2/b", (2 * d_h,), "zeros"),
                  ("g2/Wo", (n_quest, d_h), "scaled"), ("g2/bo", (n_quest,), "zeros"),
                  ("switch/W", (3, 2 * d_h + d_w), "scaled"), ("switch/b", (3,), "zeros")]
        rng = np.random.default_rng(19)
        draws = {"uniform": uniform_init, "scaled": scaled_uniform_init,
                 "zeros": lambda _rng, arr: arr.fill(0)}
        assert sorted(name for name, *_ in specs) == sorted(model.store)
        for name, shape, init in specs:
            want = np.empty(shape, np.float32)
            draws[init](rng, want)
            assert model.store[name].tobytes() == want.tobytes(), name

    def test_gradients_of_another_layout_rejected(self):
        """``loss_and_grads`` takes only a buffer of the store's layout: a
        plain dict, or a buffer laid out gate by gate, raises ``TypeError``
        before anything is added to it."""
        model = tiny_model(seed=3)
        prep = model.prepare(flagship_example())
        plain = {name: np.zeros_like(arr) for name, arr in model.store.items()}
        specs = model._parameters(model.hyper, model.vocab, model.pos_tags, model.ner_tags)
        gate_by_gate = ParameterStore.draw(0, [(name, shape, "empty")
                                               for name, shape, _ in specs])
        for grads in (plain, gate_by_gate.zero_grads()):
            with pytest.raises(TypeError, match="zero_grads"):
                model.loss_and_grads([prep], grads=grads)
            assert not any(g.any() for g in grads.values())


def reference_encoder_walks(model):
    """The encoder as one walk per direction, each over its own (n, B, ·)
    stack in its own token order with its own 2-D stacks, and each weight
    gradient as one product per direction: the reference that
    ``_encoder_walk`` and ``_encoder_walk_backward`` must equal bit for
    bit.  Returns stand-ins for the two."""
    d_h = model.hyper.hidden_size
    stacks = {prefix: _gru_stacks(model.store, prefix) for prefix in ("enc_fwd", "enc_bwd")}
    orders = {"enc_fwd": lambda n: range(n), "enc_bwd": lambda n: range(n - 1, -1, -1)}

    def walk(X, valid):
        n, B = valid.shape
        states, caches = {}, {}
        for prefix, (W, U, b) in stacks.items():
            A = affine(W, b, X)
            cache = {key: np.empty((n, B, width), X.dtype)
                     for key, width in (("h", d_h), ("zr", 2 * d_h), ("n", d_h))}
            out = np.empty((n, B, d_h), X.dtype)
            h = np.zeros((B, d_h), X.dtype)
            for i in orders[prefix](n):
                cache["h"][i] = h
                zr = cache["zr"][i] = sigmoid(A[i, :, : 2 * d_h] + linear(U[: 2 * d_h], h))
                z, r = zr[:, :d_h], zr[:, d_h:]
                cand = cache["n"][i] = np.tanh(A[i, :, 2 * d_h :] + linear(U[2 * d_h :], r * h))
                h = out[i] = np.where(valid[i, :, None], z * h + (1.0 - z) * cand, h)
            states[prefix], caches[prefix] = out, cache
        return (states["enc_fwd"] + states["enc_bwd"], states["enc_bwd"][0].copy(),
                {"x": X, "valid": valid, **caches})

    def walk_backward(cache, dS, carry, grads):
        n, B, _ = dS.shape
        X, valid = cache["x"], cache["valid"][..., None]
        parts = []
        for prefix, (W, U, _b) in stacks.items():
            c = cache[prefix]
            DA = np.empty((n, B, 3 * d_h), X.dtype)
            back = carry if prefix == "enc_bwd" else np.zeros_like(carry)
            for i in reversed(orders[prefix](n)):
                dh = dS[i] + back
                g = np.where(valid[i], dh, 0)
                h, z, r, cand = c["h"][i], c["zr"][i, :, :d_h], c["zr"][i, :, d_h:], c["n"][i]
                da = DA[i]
                np.multiply(g, (1.0 - z) * (1.0 - cand * cand), out=da[:, 2 * d_h :])
                drh = da[:, 2 * d_h :] @ U[2 * d_h :]
                np.multiply(g, (h - cand) * z * (1.0 - z), out=da[:, :d_h])
                np.multiply(drh, h * r * (1.0 - r), out=da[:, d_h : 2 * d_h])
                back = np.where(valid[i], g * z + drh * r + da[:, : 2 * d_h] @ U[: 2 * d_h], dh)
            dW, dU, db = _gru_stacks(grads, prefix)
            D, h, x, r = (a.reshape(n * B, -1) for a in (DA, c["h"], X, c["zr"][..., d_h:]))
            dW += D.T @ x
            dU[: 2 * d_h] += D[:, : 2 * d_h].T @ h
            dU[2 * d_h :] += D[:, 2 * d_h :].T @ (r * h)
            db += D.sum(axis=0)
            parts.append(D @ W)
        return (parts[0] + parts[1]).reshape(n, B, -1)

    return walk, walk_backward


class TestFusedEncoderWalk:
    """Property: the fused walk of both encoder directions, forward and
    backward, is bit for bit a walk per direction."""

    @pytest.mark.parametrize("check_precision", [False, True])
    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_equals_a_walk_per_direction(self, monkeypatch, dot_heads, check_precision):
        """A padded batch of three source lengths with dropout masks gives
        the reference's ``H``, ``HA`` and ``s0``, loss and every gradient
        byte for byte, in float32 and in float64.  So does a batch of three
        sources of one length, which has no padding: its walks skip their
        masks, and the reference walks mask every step."""
        model = tiny_model(dot_heads=dot_heads, seed=11)
        model = model.to_check_precision() if check_precision else model
        # Biases start at zero; random ones make each direction's count.
        bias_rng = np.random.default_rng(4)
        for prefix in ("enc_fwd", "enc_bwd"):
            for g in "zrn":
                model.store[f"{prefix}/b_{g}"] = bias_rng.uniform(-0.5, 0.5, TINY.hidden_size)
        batches = {True: (flagship_example(), longer_example(), edge_case_examples()[0]),
                   False: (flagship_example(), tiny_corpus()[1], edge_case_examples()[1])}
        for padded, examples in batches.items():
            preps = [model.prepare(ex) for ex in examples]
            assert len({len(p.roots) for p in preps}) == (3 if padded else 1)
            masks = np.concatenate([dropout_mask((len(p.roots), model.hyper.input_dim), 0.3,
                                                 np.random.default_rng(i), dtype=model.dtype)
                                    for i, p in enumerate(preps)])
            assert not masks.all()
            seen = []
            encode = model._encode

            def recorded(prepared, m):
                enc = encode(prepared, m)
                assert enc["padded"] == padded
                seen.append({key: enc[key].copy() for key in ("H", "HA", "s0")})
                return enc

            results = []
            with monkeypatch.context() as patch:
                patch.setattr(model, "_encode", recorded)
                for reference in (False, True):
                    if reference:
                        walk, walk_backward = reference_encoder_walks(model)
                        patch.setattr(model, "_encoder_walk", walk)
                        patch.setattr(model, "_encoder_walk_backward", walk_backward)
                    grads = model.zero_grads()
                    loss, _tokens = model.loss_and_grads(preps, grads=grads, masks=masks)
                    results.append((loss, grads))
            (loss, grads), (want_loss, want_grads) = results
            assert loss == want_loss
            got, want = seen
            for key in ("H", "HA", "s0"):
                assert got[key].dtype == model.dtype and got[key].tobytes() == want[key].tobytes()
            for name, want_grad in want_grads.items():
                assert grads[name].tobytes() == want_grad.tobytes(), (padded, name)


class TestFullLossGradients:
    """Property: the hand-written backward pass matches finite differences
    for every parameter tensor of the complete loss."""

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_full_loss_gradient(self, dot_heads):
        base = tiny_model(dot_heads=dot_heads, seed=11)
        model = base.to_check_precision()
        repeated = model.prepare(repeated_root_example())
        columns = model.outcome_columns(repeated.roots)
        assert repeated.targets[1] == Copy(0)
        assert columns.positions[columns.words.index("he")].tolist() == [0, 2]
        for prep in (model.prepare(flagship_example()), repeated,
                     *map(model.prepare, edge_case_examples())):
            mask_rng = np.random.default_rng(3)
            masks = dropout_mask((len(prep.roots), model.hyper.input_dim),
                                 model.hyper.dropout_rate, mask_rng, dtype=model.dtype)
            reports = gradient_reports(model, [prep], masks)
            failed = [r for r in reports if not r.passed]
            assert not failed, f"gradient mismatch in {prep.roots}: {failed}"

    def test_gradients_cover_every_parameter(self):
        model = tiny_model(seed=2).to_check_precision()
        prep = model.prepare(flagship_example())
        grads = model.zero_grads()
        model.loss_and_grads([prep], grads=grads)
        touched = {name for name, g in grads.items() if np.any(g != 0.0)}
        untouched = set(model.store) - touched
        # Unused embedding rows aside, every tensor must receive gradient.
        assert untouched == set(), f"no gradient reached: {sorted(untouched)}"


def longer_example() -> EncodedExample:
    """Six source tokens and eight target actions: longer than the flagship
    example on both sides."""
    return EncodedExample(
        source_roots=["he", "visit", "the", "park", "open", "door"],
        source_features=[("NNP", "PERSON", "O"), ("VBD", "O", "O"), ("DT", "O", "O"),
                         ("NN", "O", "B"), ("VBD", "O", "O"), ("NN", "O", "O")],
        answer_span=(3, 3),
        target_actions=[Quest(WHEN), Quest(DO), Copy(0), Copy(1), Trans(TransformationType.ED),
                        Copy(2), Copy(3), Quest(QMARK)],
        reference_question=["when", "did", "he", "visit", "the", "park", "?"],
    )


def toy_batch():
    """The benchmark's toy shape: hidden 64, word 32, vocabularies built
    from the 64 overfit pairs, and the first 16 pairs as one batch."""
    morph = default_morphology()
    corpus = make_overfit_corpus()
    vocab = build_vocabs(corpus, morph)
    encoded = [encode_example(ex, vocab, morph) for ex in corpus]
    feats = [f for ex in encoded for f in ex.source_features]
    hyper = HyperParams(word_dim=32, answer_feat_dim=8, ner_feat_dim=8, pos_feat_dim=8,
                        hidden_size=64, dropout_rate=0.0)
    model = EncoderDecoder(hyper, vocab, build_tag_list(p for p, _n, _b in feats),
                           build_tag_list(n for _p, n, _b in feats), init_seed=42)
    return model, [model.prepare(ex) for ex in encoded[:16]]


class TestPaddedBatch:
    """Property: ``loss_and_grads`` runs a batch as one padded pass whose
    padding is inert, so an example's loss and gradient do not depend on
    its batchmates, and its working set stays small."""

    @staticmethod
    def _masks(model, preps):
        return [dropout_mask((len(p.roots), model.hyper.input_dim), model.hyper.dropout_rate,
                             np.random.default_rng(3 + i), dtype=model.dtype)
                for i, p in enumerate(preps)]

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_padded_batch_gradient(self, dot_heads):
        model = tiny_model(dot_heads=dot_heads, seed=11).to_check_precision()
        preps = [model.prepare(ex) for ex in (flagship_example(), longer_example(),
                                               edge_case_examples()[0])]
        assert len({len(p.roots) for p in preps}) == len({len(p.targets) for p in preps}) == 3
        reports = gradient_reports(model, preps, np.concatenate(self._masks(model, preps)))
        failed = [r for r in reports if not r.passed]
        assert not failed, f"gradient mismatch on a padded batch: {failed}"

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_padding_is_inert(self, dot_heads):
        """The flagship example's loss and gradient, alone and beside a
        shorter and a longer neighbour less that neighbour's own, agree to
        1e-12 of the largest entry involved."""
        model = tiny_model(dot_heads=dot_heads, seed=11).to_check_precision()
        flagship, shorter, longer = (model.prepare(ex) for ex in (
            flagship_example(), edge_case_examples()[0], longer_example()))
        # Each example keeps its own dropout mask wherever it sits.
        masks = dict(zip((flagship, shorter, longer),
                         self._masks(model, [flagship, shorter, longer])))

        def run(preps):
            grads = model.zero_grads()
            loss, _ = model.loss_and_grads(preps, grads=grads,
                                           masks=np.concatenate([masks[p] for p in preps]))
            return loss, grads

        loss_a, grads_a = run([flagship])
        for neighbour in (shorter, longer):
            loss_n, grads_n = run([neighbour])
            loss_pair, grads_pair = run([flagship, neighbour])
            assert loss_pair - loss_n == pytest.approx(loss_a, rel=1e-12)
            for name, want in grads_a.items():
                scale = max(np.abs(want).max(), np.abs(grads_n[name]).max())
                got = grads_pair[name] - grads_n[name]
                assert np.abs(got - want).max() <= 1e-12 * scale, name

    def test_padded_source_positions_get_zero_attention(self):
        model = tiny_model(seed=5)
        preps = [model.prepare(ex) for ex in (longer_example(), edge_case_examples()[0])]
        enc = model._encode(preps, None)
        walk = model._walk(enc, [np.full(4, SOS_ID), np.full(2, SOS_ID)])
        alpha = walk["alpha"]
        assert alpha.shape == (4, 2, 6)
        assert np.all(alpha[:, 1, 1:] == 0.0)
        np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, rtol=1e-6)

    def test_padded_source_positions_get_zero_dot_copy_mass(self):
        model = tiny_model(dot_heads=True, seed=5)
        preps = [model.prepare(ex) for ex in (longer_example(), edge_case_examples()[0])]
        enc = model._encode(preps, None)
        walk = model._walk(enc, [np.full(4, SOS_ID), np.full(2, SOS_ID)])
        p_copy = model._heads(enc, walk)["p_copy"]
        assert p_copy.shape == (4, 2, 6)
        assert np.all(p_copy[:, 1, 1:] == 0.0)
        np.testing.assert_allclose(p_copy.sum(axis=-1), 1.0, rtol=1e-6)

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_heads_run_once_per_batch(self, monkeypatch, dot_heads):
        """The switch and heads run once forward and once backward, on the
        (T_max, B, ·) stack of every step of the batch, padded ones too."""
        model = tiny_model(dot_heads=dot_heads)
        preps = [model.prepare(ex) for ex in (flagship_example(), longer_example(),
                                               edge_case_examples()[0])]
        calls = []
        for name in ("_heads", "_heads_backward"):
            def counted(enc, state, *args, _name=name, _method=getattr(model, name)):
                calls.append((_name, state["s"].shape))
                return _method(enc, state, *args)
            monkeypatch.setattr(model, name, counted)
        model.loss_and_grads(preps, grads=model.zero_grads())
        shape = (max(len(p.targets) for p in preps), 3, TINY.hidden_size)
        assert calls == [("_heads", shape), ("_heads_backward", shape)]

    def test_batch_steps_each_position_once(self, monkeypatch):
        """No per-example loop and no walk per encoder direction: B examples
        take n cell calls on (2, B, d_h) pairs of states for the longest
        source of n tokens, then T on (B, d_h) states for the longest
        target."""
        model = tiny_model()
        preps = [model.prepare(ex) for ex in (flagship_example(), longer_example(),
                                               edge_case_examples()[0])]
        calls = []
        cell = model._gru_cell

        def counted(key, a, h):
            calls.append((key, h.shape))
            return cell(key, a, h)

        monkeypatch.setattr(model, "_gru_cell", counted)
        model.loss_and_grads(preps, grads=model.zero_grads())
        d_h = TINY.hidden_size
        assert calls == [("enc", (2, 3, d_h))] * 6 + [("dec", (3, d_h))] * 9

    def test_working_set_of_a_toy_batch(self):
        """The tracemalloc peak of one training pass on 16 toy examples
        stays at or below 1.5 MB.  It reads 1.03 MB with the heads run once
        on all rows and their concatenated inputs dropped once read (0.97
        MB with the heads run per example); holding every step's attention
        pre-activations and the heads' concatenated inputs took 2.5 MB."""
        model, preps = toy_batch()
        grads = model.zero_grads()
        model.loss_and_grads(preps, grads=grads)
        tracemalloc.start()
        try:
            model.loss_and_grads(preps, grads=grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    def test_training_builds_no_outcome_layout(self, monkeypatch):
        """A training step reads its targets' routes from the prepared
        examples: it never builds a source's outcome columns."""
        model = tiny_model()
        preps = [model.prepare(ex) for ex in (flagship_example(), longer_example())]

        def refused(roots):
            raise AssertionError("outcome_columns called")

        monkeypatch.setattr(model, "outcome_columns", refused)
        loss, tokens = model.loss_and_grads(preps, grads=model.zero_grads(),
                                            rng=np.random.default_rng(1))
        assert math.isfinite(loss) and tokens == 14

    @pytest.mark.parametrize("check_precision", [False, True])
    def test_answer_vectors_are_the_span_means(self, check_precision):
        """Each example's ``v_answer`` is ``np.mean`` of its span's rows of
        ``H``, byte for byte, beside shorter and longer sources."""
        model = tiny_model(seed=5)
        model = model.to_check_precision() if check_precision else model
        preps = [model.prepare(ex) for ex in (replace(longer_example(), answer_span=(1, 4)),
                                               flagship_example(), edge_case_examples()[0],
                                               replace(longer_example(), answer_span=(0, 5)))]
        enc = model._encode(preps, None)
        for b, prep in enumerate(preps):
            left, right = prep.span
            want = np.mean(enc["H"][b, left : right + 1], axis=0)
            assert enc["v_answer"][b].dtype == want.dtype == model.dtype
            assert enc["v_answer"][b].tobytes() == want.tobytes()

    def test_batch_dropout_mask_is_the_per_example_draws(self, monkeypatch):
        """One draw for the batch's input rows gives each example's mask in
        batch order, and leaves the generator where the per-example draws
        leave it."""
        model = tiny_model(seed=5)
        preps = [model.prepare(ex) for ex in (longer_example(), flagship_example(),
                                               edge_case_examples()[0])]
        seen = []
        encode = model._encode

        def recorded(prepared, masks):
            seen.append(masks)
            return encode(prepared, masks)

        monkeypatch.setattr(model, "_encode", recorded)
        rng = np.random.default_rng(7)
        per_example = copy.deepcopy(rng)
        model.loss_and_grads(preps, grads=model.zero_grads(), rng=rng)
        want = np.concatenate([dropout_mask((len(p.roots), model.hyper.input_dim),
                                            model.hyper.dropout_rate, per_example,
                                            dtype=model.dtype) for p in preps])
        [got] = seen
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == per_example.bit_generator.state

    def test_dev_loss_runs_in_training_sized_batches(self, monkeypatch):
        model = tiny_model(seed=13).to_check_precision()
        prepared = [model.prepare(ex) for ex in tiny_corpus() + [longer_example(),
                                                                flagship_example()]]
        total, tokens = model.loss_and_grads(prepared)
        sizes = []
        loss_and_grads = model.loss_and_grads

        def recorded(batch, *args, **kwargs):
            sizes.append(len(batch))
            return loss_and_grads(batch, *args, **kwargs)

        monkeypatch.setattr(model, "loss_and_grads", recorded)
        assert evaluate_mean_loss(model, prepared, batch_size=4) == pytest.approx(
            total / tokens, rel=1e-12)
        assert sizes == [4, 4, 2]
        sizes.clear()
        train(model, prepared, TrainConfig(max_steps=2, batch_size=3, eval_every=1),
              dev_examples=prepared)
        assert sizes and max(sizes) == 3


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

    def test_gradient_buffers_are_allocated_once(self, monkeypatch):
        model = tiny_model(seed=21)
        prepared = [model.prepare(ex) for ex in tiny_corpus()]
        calls = []
        zero_grads = model.zero_grads

        def counted():
            calls.append(1)
            return zero_grads()

        monkeypatch.setattr(model, "zero_grads", counted)
        result = train(model, prepared, TrainConfig(max_steps=6, batch_size=4, seed=5))
        assert result.steps == 6
        assert len(calls) == 1

    def test_row_zeroing_leaves_no_gradient_between_steps(self, monkeypatch):
        """``train()`` zeroes only the dense gradients after a step, and
        ``emb/word``'s comes as a block of rows, yet every step's gradients
        are the bytes that the same batch and dropout draws give in fresh
        buffers: the dense tensors as they are, ``emb/word`` scattered
        from its ``(ids, values)`` block."""
        model = tiny_model(seed=21)
        prepared = [model.prepare(ex) for ex in tiny_corpus()]
        loss_and_grads = model.loss_and_grads
        row_sets = []

        def compared(batch, grads=None, rng=None, rows=None, **kwargs):
            fresh = model.store.zero_grads()
            loss_and_grads(batch, grads=fresh, rng=copy.deepcopy(rng))
            out = loss_and_grads(batch, grads=grads, rng=rng, rows=rows, **kwargs)
            if grads is not None:
                ids, values = rows["emb/word"]
                row_sets.append(ids.tolist())
                got = {**grads, "emb/word": scattered(grads["emb/word"].shape, ids, values)}
                for name, grad in got.items():
                    assert grad.tobytes() == fresh[name].tobytes(), name
            return out

        monkeypatch.setattr(model, "loss_and_grads", compared)
        train(model, prepared, TrainConfig(max_steps=6, batch_size=3, seed=5))
        assert len(row_sets) == 6
        assert len({tuple(r) for r in row_sets}) > 1  # the zeroed rows vary

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_row_set_is_exactly_the_rows_a_batch_reads(self, dot_heads):
        """``rows["emb/word"]`` is the sorted set of source words and
        decoder word inputs: it holds every row with gradient, and a row
        whose only read dropout zeroed is still in it."""
        model = tiny_model(dot_heads=dot_heads, seed=9)
        preps = [model.prepare(ex) for ex in (flagship_example(), tiny_corpus()[1])]
        read = {SOS_ID}
        for prep in preps:
            read.update(prep.word_ids)
            columns, cols = target_columns(model, prep)
            for col in cols[:-1].tolist():
                idx = int(columns.inputs[col])
                if idx < model.vocab.encoder_size:
                    read.add(idx)
        # Drop out the whole input row of the flagship's "park", a word that
        # no decoder step reads.
        park = model.vocab.encoder_id("park")
        masks = [np.ones((len(prep.roots), model.hyper.input_dim), model.dtype) for prep in preps]
        masks[0][2] = 0.0
        assert [prep.word_ids.count(park) for prep in preps] == [1, 0]
        grads, rows = model.zero_grads(), {}
        model.loss_and_grads(preps, grads=grads, masks=np.concatenate(masks), rows=rows)
        ids, values = rows["emb/word"]
        assert ids.tolist() == sorted(read)
        assert values.shape == (len(ids), model.hyper.word_dim)
        assert park in ids.tolist() and not values[ids.tolist().index(park)].any()
        nonzero = np.flatnonzero(values.any(axis=1))
        assert len(nonzero) == len(ids) - 1
        assert grads["emb/word"].tobytes() == bytes(grads["emb/word"].nbytes)

    def test_dense_word_gradient_is_never_written(self, monkeypatch):
        """In ``train()`` the ``emb/word`` view of the gradient store holds
        zero bytes at every ``Adam.step``, with dropout on and off: the
        table's gradient reaches the optimiser only as its block of rows,
        so the view's pages are never written."""
        adam_step, calls = Adam.step, []

        def checked(self, grads, *args, **kwargs):
            calls.append(grads["emb/word"].tobytes() == bytes(grads["emb/word"].nbytes))
            return adam_step(self, grads, *args, **kwargs)

        monkeypatch.setattr(Adam, "step", checked)
        for dropout in (0.0, 0.3):
            model = tiny_model(seed=21, hyper=replace(TINY, dropout_rate=dropout))
            prepared = [model.prepare(ex) for ex in tiny_corpus()]
            train(model, prepared, TrainConfig(max_steps=8, batch_size=3, seed=5))
        assert calls == [True] * 16

    @pytest.mark.parametrize("check_precision", [False, True])
    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_dense_word_gradient_is_the_scattered_block(self, dot_heads, check_precision):
        """A call without ``rows`` adds into ``grads["emb/word"]`` the bytes
        of scattering the ``(ids, values)`` block that a ``rows=`` call of
        the same batch and dropout draws gives, and every other gradient
        is the same bytes in both calls."""
        model = tiny_model(dot_heads=dot_heads, seed=9)
        model = model.to_check_precision() if check_precision else model
        batch = [model.prepare(ex) for ex in tiny_corpus()[:5]]
        rng = np.random.default_rng(4)
        dense, sparse, rows = model.zero_grads(), model.zero_grads(), {}
        model.loss_and_grads(batch, grads=dense, rng=copy.deepcopy(rng))
        model.loss_and_grads(batch, grads=sparse, rng=rng, rows=rows)
        ids, values = rows["emb/word"]
        assert values.dtype == model.dtype and values.any()
        assert sparse["emb/word"].tobytes() == bytes(sparse["emb/word"].nbytes)
        got = {**sparse, "emb/word": scattered(sparse["emb/word"].shape, ids, values)}
        for name, grad in got.items():
            assert grad.tobytes() == dense[name].tobytes(), name

    def test_grad_norms_are_the_optimizer_norms(self, monkeypatch):
        """``TrainResult.grad_norms`` keeps the pre-clip norm that every
        ``Adam.step`` returns, and the step log prints it and the clip."""
        returned = []
        adam_step = Adam.step

        def recorded(self, *args, **kwargs):
            returned.append(adam_step(self, *args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(Adam, "step", recorded)
        for clip_norm in (1e-3, 0.0):
            returned.clear()
            model = tiny_model(seed=21)
            prepared = [model.prepare(ex) for ex in tiny_corpus()]
            lines = []
            result = train(model, prepared, TrainConfig(max_steps=4, batch_size=4, seed=5,
                                                        eval_every=2, clip_norm=clip_norm),
                           log=lines.append)
            assert len(result.grad_norms) == result.steps == 4
            assert result.grad_norms == returned
            assert lines == [f"step {step}: train loss {result.train_losses[step - 1]:.4f}, "
                             f"grad norm {returned[step - 1]:.4f}"
                             + (", clipped" if clip_norm else "") for step in (2, 4)]

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


    def test_best_weights_restore_keeps_one_buffer(self):
        """The dev loss of held-out examples is best at the first of four
        evaluations, so the restore moves the weights back; they are the
        copy's bytes, in the model's one buffer."""
        model = tiny_model(seed=13)
        prepared = [model.prepare(ex) for ex in tiny_corpus()]
        dev = [model.prepare(ex) for ex in (longer_example(), repeated_root_example(),
                                            distinct_roots_example())]
        config = TrainConfig(max_steps=40, batch_size=4, learning_rate=0.05,
                             seed=1, eval_every=10)
        result = train(model, prepared, config, dev_examples=dev)
        assert result.eval_losses[0][1] == result.best_eval_loss < result.eval_losses[-1][1]
        assert result.best_weights.flat is not model.store.flat
        assert model.store.flat.tobytes() == result.best_weights.flat.tobytes()
        assert_one_buffer(model.store.items(), model.store.flat)
        assert evaluate_mean_loss(model, dev) == pytest.approx(result.best_eval_loss, rel=1e-6)

    def test_later_improvements_copy_into_the_first_copy(self, monkeypatch):
        """The best dev weights get a buffer at the first improvement only:
        over three improvements (dev losses scripted 3, 2, 2.5, 1, 1.5) the
        store is copied once, each later improvement is written into that
        copy, and it ends with the store's bytes at the best evaluation,
        which the restore writes back."""
        scripted, seen = iter([3.0, 2.0, 2.5, 1.0, 1.5]), []

        def scripted_loss(model, examples, batch_size):
            seen.append(model.store.flat.copy())
            return next(scripted)

        astype, copies = ParameterStore.astype, []

        def recorded(self, dtype):
            copies.append(astype(self, dtype))
            return copies[-1]

        monkeypatch.setattr(train_mod, "evaluate_mean_loss", scripted_loss)
        monkeypatch.setattr(ParameterStore, "astype", recorded)
        model = tiny_model(seed=13)
        prepared = [model.prepare(ex) for ex in tiny_corpus()]
        config = TrainConfig(max_steps=5, batch_size=4, seed=1, eval_every=1)
        result = train(model, prepared, config, dev_examples=prepared[:2])
        assert [loss for _step, loss in result.eval_losses] == [3.0, 2.0, 2.5, 1.0, 1.5]
        assert len(copies) == 1 and result.best_weights is copies[0]
        assert result.best_weights.flat is not model.store.flat
        assert result.best_weights.flat.tobytes() == seen[3].tobytes() != seen[4].tobytes()
        assert model.store.flat.tobytes() == seen[3].tobytes()

    def test_steps_equal_the_reference_update(self, monkeypatch):
        """150 steps of ``train()``, at a clip norm that never clips and at
        one that clips, give the losses, pre-clip norms, weights and Adam
        moments, byte for byte, of the same loop written out with scaled
        gradient dicts, the allocating norm and :func:`reference_step`
        (``emb/word`` updated on the batch's rows only)."""
        adam_step, optimizers = Adam.step, []

        def recorded(self, *args, **kwargs):
            optimizers.append(self)
            return adam_step(self, *args, **kwargs)

        monkeypatch.setattr(Adam, "step", recorded)
        for clip_norm in (5.0, 0.5):
            config = TrainConfig(max_steps=150, batch_size=4, seed=3, clip_norm=clip_norm,
                                 eval_every=1000)
            model, ref = tiny_model(seed=11), tiny_model(seed=11)
            result = train(model, [model.prepare(ex) for ex in tiny_corpus()], config)
            losses, norms, state = reference_training(ref, config)
            assert result.train_losses == losses
            assert result.grad_norms == norms
            assert (max(norms) > clip_norm) == (clip_norm == 0.5)
            m, v = moments_in_id_order(optimizers[-1])
            for key, tensors in (("w", model.store), ("m", m), ("v", v)):
                for name, arr in state[key].items():
                    assert tensors[name].tobytes() == arr.tobytes(), (key, name)


def scattered(shape, ids, values):
    """Zeros of ``shape`` with rows ``ids`` set to ``values``: the dense
    table of a row-sparse ``(ids, values)`` gradient."""
    table = np.zeros(shape, dtype=values.dtype)
    table[ids] = values
    return table


def reference_training(model, config):
    """``train()``'s steps on :func:`tiny_corpus`, written out with fresh
    gradient buffers copied into scaled dicts, the norm of those and
    :func:`reference_step`; returns the losses, the pre-clip norms and the
    final weights and moments."""
    prepared = [model.prepare(ex) for ex in tiny_corpus()]
    batches = _batches(len(prepared), config.batch_size, np.random.default_rng(config.seed))
    dropout_rng = np.random.default_rng(config.seed + 1)
    state = {"w": dict(model.store.items()),
             "m": {name: np.zeros_like(arr) for name, arr in model.store.items()},
             "v": {name: np.zeros_like(arr) for name, arr in model.store.items()}}
    losses, norms = [], []
    for t in range(1, config.max_steps + 1):
        batch = [prepared[i] for i in next(batches)]
        grads, rows = model.zero_grads(), {}
        loss, tokens = model.loss_and_grads(batch, grads=grads, rng=dropout_rng, rows=rows)
        ids, values = rows["emb/word"]
        scaled = {name: (values if name == "emb/word" else g) * np.float32(1.0 / tokens)
                  for name, g in grads.items()}
        norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in scaled.values())))
        clip = config.clip_norm / norm if 0 < config.clip_norm < norm else 1.0
        on_rows = {key: {**x, "emb/word": x["emb/word"][ids]} for key, x in state.items()}
        reference_step(on_rows, scaled, t, clip, lr=config.learning_rate)
        for key, x in state.items():
            x["emb/word"][ids] = on_rows[key]["emb/word"]
        losses.append(loss / tokens)
        norms.append(norm)
    return losses, norms, state


class TestDecoding:
    """Property: decoding respects the action grammar and beam contracts."""

    def _trained(self, dot_heads=False):
        model = tiny_model(dot_heads=dot_heads, seed=13, hyper=replace(TINY, dropout_rate=0.0))
        prepared = [model.prepare(ex) for ex in tiny_corpus()]
        config = TrainConfig(max_steps=150, batch_size=8, learning_rate=0.01,
                             seed=1, eval_every=50)
        train(model, prepared, config)
        return model, prepared

    def test_beam_one_equals_greedy(self):
        """A beam of one takes the most probable open outcome at every step
        (no <pad>, <sos> or <eos>; a tag only after a word), and returns a
        prefix of that walk: the whole of it, or the part before an <eos>
        that scored better."""
        model, prepared = self._trained()
        blocked = ("<pad>", "<sos>", "<eos>")
        for prep in prepared[:4]:
            result = beam_search(model, prep, beam_size=1)
            enc = model.encode(prep)
            columns = model.outcome_columns(prep.roots)
            n_words = len(columns.words)
            s, c = enc["s0"][None, :], np.zeros((1, TINY.hidden_size), dtype=model.dtype)
            walk = ()
            for _ in result.actions:
                spec = reference_input_spec(model, walk[-1], prep.roots) if walk else SOS_ID
                state = model.step(enc, s, c, np.array([spec]))
                mass = model.outcome_mass(state, columns)[0].copy()
                mass[[i for i, w in enumerate(columns.words) if w in blocked]] = -1.0
                if not walk or isinstance(walk[-1], Trans):
                    mass[n_words:] = -1.0
                walk += (columns.action(int(np.argmax(mass)), state["p_copy"][0]),)
                s, c = state["s"], state["c"]
            assert result.actions == walk

    @pytest.mark.parametrize("beam", [1, 4, 12])
    def test_actions_are_built_for_the_returned_hypothesis_only(self, monkeypatch, beam):
        """The search keeps back-pointers, not action tuples: it names an
        action once per action of the hypothesis it returns."""
        model, prepared = self._trained()
        calls = []
        action = OutcomeColumns.action

        def counted(columns, col, p_copy):
            calls.append(col)
            return action(columns, col, p_copy)

        monkeypatch.setattr(OutcomeColumns, "action", counted)
        lengths = []
        for prep in prepared:
            calls.clear()
            result = beam_search(model, prep, beam_size=beam)
            assert len(calls) == len(result.actions)
            lengths.append(len(result.actions))
        assert min(lengths) > 0

    def test_wider_beam_never_scores_worse(self):
        # In float32 the same actions can score ~1e-8 apart through a 12-row
        # and a 1-row step (BLAS blocks the two products differently), so
        # both searches run on the float64 twin.
        model, prepared = self._trained()
        model = model.to_check_precision()
        for prep in prepared[:4]:
            narrow = beam_search(model, prep, beam_size=1)
            wide = beam_search(model, prep, beam_size=12)
            assert wide.score >= narrow.score - 1e-9

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_early_stop_keeps_the_full_search_result(self, dot_heads):
        """The search stops once no live hypothesis can beat the best
        finished one, and returns what the reference, which runs every
        step, returns; on these trained models it stops early for every
        beam width."""
        model, prepared = self._trained(dot_heads)
        for twin in (model, model.to_check_precision()):
            for beam in (1, 4, 12):
                stopped = 0
                for limit in (16, 32):
                    for prep in prepared:
                        got = beam_search(twin, prep, beam_size=beam, max_len=limit)
                        want = reference_beam_search(twin, prep, beam_size=beam, max_len=limit)
                        assert (got.actions, got.finished) == (want.actions, want.finished)
                        assert got.score == pytest.approx(want.score, rel=1e-5)
                        stopped += got.steps < limit
                assert stopped > 0, (twin.dtype, beam)

    @pytest.mark.parametrize("beam", [1, 4])
    def test_stop_waits_for_a_confident_continuation(self, monkeypatch, beam):
        """A scripted model: ending at once scores log 0.7; "when" at 0.3,
        nine more at near certainty and then the end scores about
        log(0.3) / 11 and wins.  A stop that judged the live row by its
        mean log-mass so far would have ended the search at its second
        step with the empty question."""
        model = tiny_model()
        when, n_quest = model.vocab.quest_id("when"), model.vocab.quest_size
        prep = model.prepare(flagship_example())

        def quest_head(t):
            p = np.full(n_quest, 1e-6)
            if t == 0:
                p[EOS_ID], p[when] = 0.7, 0.3
            else:
                p[when if t < 10 else EOS_ID] = 1.0
            return (p / p.sum()).astype(model.dtype)

        switch = np.zeros(3, dtype=model.dtype)
        switch[SW_QUEST] = 1.0

        def step(enc, s, c, inputs):
            rows = s.shape[:-1]
            return {"s": s + 1, "c": c, "switch": np.broadcast_to(switch, rows + (3,)),
                    "p_copy": np.full(rows + (len(prep.roots),), 1 / len(prep.roots), dtype=model.dtype),
                    "p_quest": np.broadcast_to(quest_head(int(s.flat[0])), rows + (n_quest,)),
                    "p_trans": np.full(rows + (len(ALL_TYPES),), 1 / 9, dtype=model.dtype)}

        monkeypatch.setattr(model, "encode", lambda prep, masks=None: {
            "s0": np.zeros(TINY.hidden_size, dtype=model.dtype)})
        monkeypatch.setattr(model, "step", step)
        got = beam_search(model, prep, beam_size=beam, max_len=16)
        assert (got.actions, got.finished) == ((Quest(when),) * 10, True)
        assert got.score == pytest.approx(math.log(0.3) / 11, rel=1e-3)
        assert got == replace(reference_beam_search(model, prep, beam_size=beam, max_len=16),
                              steps=got.steps)
        assert got.steps == 12

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

    @pytest.mark.parametrize("beam,max_len", [(-1, 5), (0, 5), (2, 0)])
    def test_width_or_length_below_one_rejected(self, monkeypatch, beam, max_len):
        """Rejected before the encoder runs: through the API a beam of -1
        kept all but one candidate, and the live rows grew 1, 6, 95."""
        model = tiny_model(seed=31)
        prep = model.prepare(flagship_example())
        calls = []
        for name in ("encode", "step"):
            monkeypatch.setattr(model, name, lambda *args, name=name, **kw: calls.append(name))
        with pytest.raises(ValueError, match="at least 1"):
            beam_search(model, prep, beam_size=beam, max_len=max_len)
        assert calls == []

    @pytest.mark.parametrize("rows", [1, 12])
    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_step_state_rows_are_contiguous(self, dot_heads, rows):
        """Every entry of a step's state is C-contiguous, so a last-axis
        sum (``softmax``, the outcome mass) adds in row order; ``z`` and
        ``r`` are the two column halves of one ``[z | r]`` block."""
        model = tiny_model(dot_heads=dot_heads, seed=5)
        enc = model.encode(model.prepare(flagship_example()))
        s = np.repeat(enc["s0"][None, :], rows, axis=0)
        state = model.step(enc, s, np.zeros_like(s), np.full(rows, SOS_ID))
        arrays = {key: value for key, value in state.items()
                  if isinstance(value, np.ndarray) and key not in ("z", "r")}
        assert {"s", "c", "alpha", "switch", "p_copy", "p_quest", "p_trans"} <= set(arrays)
        for key, value in arrays.items():
            assert value.shape[0] == rows and value.flags.c_contiguous, key

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
    enc = model.encode(prep)
    c0 = np.zeros(model.hyper.hidden_size, dtype=model.dtype)
    beams = [_RefHyp(actions=(), log_sum=0.0, s=enc["s0"], c=c0, last_was_word=False)]
    finished = []

    for _ in range(limit):
        candidates = []
        for hyp in beams:
            if hyp.actions:
                spec = reference_input_spec(model, hyp.actions[-1], prep.roots)
            else:
                spec = SOS_ID
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

    @pytest.mark.parametrize("beam", [1, 4, 12, 32])
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
        # Registration order, which gradient norms sum in.
        assert list(loaded.store) == list(model.store)
        for name in model.store:
            np.testing.assert_array_equal(loaded.store[name], model.store[name])
        assert loaded.hyper == model.hyper
        assert loaded.pos_tags == model.pos_tags

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_fresh_and_loaded_models_are_one_buffer(self, tmp_path, dot_heads):
        model = tiny_model(dot_heads=dot_heads, seed=13)
        assert_one_buffer(model.store.items(), model.store.flat)
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        loaded = EncoderDecoder.load(path, tiny_vocab())
        assert_one_buffer(loaded.store.items(), loaded.store.flat)
        assert loaded.store.flat.tobytes() == model.store.flat.tobytes()
        grads = loaded.zero_grads()
        assert_one_buffer(grads.items(), grads.flat)

    def test_load_reads_into_the_buffer_without_a_copy(self, tmp_path):
        """Loading allocates the parameter buffer once and reads every
        tensor into it: the traced peak stays well under two buffers."""
        model = tiny_model(seed=13, hyper=replace(TINY, hidden_size=64, word_dim=64))
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        tracemalloc.start()
        try:
            loaded = EncoderDecoder.load(path, tiny_vocab())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.store.flat.tobytes() == model.store.flat.tobytes()
        assert model.store.flat.nbytes < peak < 1.5 * model.store.flat.nbytes

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_save_after_load_writes_the_same_bytes(self, tmp_path, dot_heads):
        model = tiny_model(dot_heads=dot_heads, seed=13)
        train(model, [model.prepare(ex) for ex in tiny_corpus()],
              TrainConfig(max_steps=5, batch_size=4, seed=2))
        first, again = str(tmp_path / "first.ckpt"), str(tmp_path / "again.ckpt")
        model.save(first, extra={"note": "unit"})
        EncoderDecoder.load(first, tiny_vocab()).save(again, extra={"note": "unit"})
        for suffix in ("", ".json"):
            with open(first + suffix, "rb") as a, open(again + suffix, "rb") as b:
                assert a.read() == b.read()

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

    def test_checkpoint_swapped_during_load_rejected(self, tmp_path, monkeypatch):
        """The sidecar is read once: when another checkpoint replaces both
        files after the sidecar's metadata built the model and before the
        pack is read, the checksum of the bytes read first fails."""
        path, other = str(tmp_path / "model.ckpt"), str(tmp_path / "other.ckpt")
        tiny_model(seed=1).save(path)
        tiny_model(seed=2).save(other)
        load_pack = model_mod.load_checkpoint

        def swapped(pack_path, **kwargs):
            for suffix in ("", ".json"):
                shutil.copyfile(other + suffix, path + suffix)
            return load_pack(pack_path, **kwargs)

        monkeypatch.setattr(model_mod, "load_checkpoint", swapped)
        with pytest.raises(ParseError, match=CHECKSUM_KEY):
            EncoderDecoder.load(path, tiny_vocab())

    def test_sidecar_written_before_checksums_still_loads(self, tmp_path):
        model = tiny_model(seed=13)
        path = str(tmp_path / "model.ckpt")
        model.save(path)
        with open(path + ".json", encoding="utf-8") as fh:
            meta = json.load(fh)
        del meta[CHECKSUM_KEY]
        meta["format"] = "wt-additive"
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        loaded = EncoderDecoder.load(path, tiny_vocab())
        for name in model.store:
            np.testing.assert_array_equal(loaded.store[name], model.store[name])
        # The format of a checksummed sidecar requires the checksum.
        meta["format"] = "wt-additive+sha256"
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        with pytest.raises(ParseError, match=CHECKSUM_KEY):
            EncoderDecoder.load(path, tiny_vocab())
        meta["format"] = "wt-dot"
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        with pytest.raises(ParseError, match="format"):
            EncoderDecoder.load(path, tiny_vocab())

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ParseError):
            HyperParams.from_dict({"word_dim": 8, "bogus": 1})

    @pytest.mark.parametrize("name,value", [
        ("beam_size", -1), ("beam_size", 0), ("max_decode_len", 0), ("source_cutoff", 0),
        ("hidden_size", 0), ("word_dim", -3), ("answer_feat_dim", 0), ("ner_feat_dim", 0),
        ("pos_feat_dim", 0), ("dropout_rate", 1.0), ("dropout_rate", -0.1),
        ("dropout_rate", float("nan")),
    ])
    def test_out_of_range_hyperparameter_rejected(self, name, value):
        with pytest.raises(ParseError, match=name):
            HyperParams.from_dict({name: value})

    def test_checkpoint_with_negative_beam_rejected(self, tmp_path):
        """Saved through the API, so its checksum is valid; a beam of -1
        would keep all but one candidate at every step."""
        path = str(tmp_path / "model.ckpt")
        tiny_model(seed=13, hyper=replace(TINY, beam_size=-1)).save(path)
        with pytest.raises(ParseError, match="beam_size"):
            EncoderDecoder.load(path, tiny_vocab())

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
        ("hyperparams", {"hidden_size": 9}),
        ("hyperparams", {"hidden_size": -1}),
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
