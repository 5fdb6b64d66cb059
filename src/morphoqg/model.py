"""Encoder-decoder question generator over copy / rewrite-tag / list-word actions.

The network reads a root-normalised source sentence plus per-token
part-of-speech, entity and answer-position features through a bidirectional
GRU, pools an answer vector over the marked span, and decodes a question as
a sequence of actions: copy a source position, emit a word from a small
question-word list, or attach a rewrite tag that re-inflects the word
before it.  At every step a three-way switch mixes the three action
distributions, and the probability of producing a given surface word
marginalises over every action that could have produced it (all copyable
positions holding that root plus, when the word is in the question-word
list, the list route).  An outcome's routes form one run in route order:
a word's source positions (:func:`morphoqg.codec.root_positions`), then
its list route; a tag's one route.  :meth:`EncoderDecoder.prepare` lays
out each target's run and :meth:`EncoderDecoder.outcome_columns` each
column's.  The one sum, :func:`_add_routes`, adds each run in float64 and
route order, level by level as :func:`_route_levels` derives the levels
from the run lengths: the bytes of a scatter-add.  Beam search ranks the
rows of :meth:`EncoderDecoder.outcome_mass`, all columns of a source; a
batch's loss sums its targets' runs, and its gradient seeds the switch and
heads of all steps at once.  An outcome also names the next decoder input
as one id into the stacked rows ``[emb/word; emb/trans]``: a word's
encoder id, whichever route emits it, or a tag's index after the encoder
vocabulary.  Training's teacher-forced inputs (kept by ``prepare``) and the
beam's next inputs (read from the chosen columns) are id arrays, embedded
by one gather.

The forward pass calls the array kernels of :mod:`morphoqg.tensor`
(sigmoid, softmax, two-piece maxout, dropout mask, and ``linear`` and
``affine`` for every weight product) and the backward pass is written out
by hand around their backward halves; there is no autodiff graph.  One GRU
cell, fed input projections taken beforehand, serves the encoder's tokens,
the decoder's teacher-forced steps and the beam's live hypotheses.
Training runs a batch as one padded pass: the encoder projects all tokens
of the batch for both directions at once and then walks both together,
step ``i`` taking token ``i`` forward and token ``n-1-i`` backward as one
(2, B, ·) pair of rows (the two GRUs' weights are (2, ·) views of the one
buffer), and the decoder's recurrent half (the GRU, then attention) walks the
teacher-forced steps as (T, B, ·) rows.  Each step pays the per-call cost
of numpy and BLAS once for both directions, which at small sizes is most of
its cost.  Padding is exact: a padded encoder step keeps its state, a
padded source position gets a ``-inf`` attention (and dot-head copy) logit,
and padded decoder steps come after the real ones and get no gradient.  A
batch whose sources are all one length, and every beam source, skips the
encoder's and the attention's masks, whose all-True form changes no bit.  The
switch and the heads run once on the walk's (T, B, ·) stacks, forward and
backward, padded steps seeded with zero, and so do the loss and its seeds.
Only the attention and the GRU carries walk the steps in reverse; they
recompute each step's attention pre-activations instead of keeping them and
store each step's gate gradients, so that every weight gradient is one
matrix product over the batch's rows; the encoder's pair stores the
backward direction's rows in token order, the order whose sums give the
bits of one walk per direction.  The input-row gradient goes into the
answer-position, entity and POS tables with one ``np.add.at`` per table
over the batch's rows in example-major order, the order that adds a
repeated id's rows.  The word rows, the decoder's and then the
encoder's, go by one ``np.add.at`` into a block of only the rows the batch
reads, which the optimiser's row-sparse ``emb/word`` update takes in place
of the table.  :meth:`EncoderDecoder.encode` is the batch of one, which
beam search uses; beam search runs the decoder
step on a (k, d_h) batch of all live hypotheses and mixes the three routes
into one probability row per hypothesis.  :mod:`morphoqg.checks` holds the
finite-difference gradient check of the complete loss and the
probability-mass check, which the test suite and ``selftest`` both run.

Two output-layer regimes are provided: the default additive one (attention
weights double as the copy distribution; deep maxout readouts for tags and
list words, where the list-word readout's answer-vector block is taken
once per source rather than per row and step) and a lighter dot-product
one in which every head scores by a dot product against the decoder
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import chain, compress
from typing import Iterable, Mapping, Sequence

import numpy as np

from .codec import (EOS_ID, SOS_ID, Copy, EncodedExample, Quest, TargetAction, Trans, Vocab,
                    check_answer_span, root_positions)
from .errors import (DivergenceError, EmptyInputError, IndexOutOfVocab, ParseError,
                     ShapeMismatch)
from .morphology import ALL_TYPES
from .tensor import (Array, ParameterStore, affine, affine_backward, check_sidecar,
                     dropout_mask, linear, load_checkpoint, maxout_affine,
                     maxout_affine_backward, read_sidecar, save_checkpoint, sigmoid, softmax,
                     softmax_backward)

# Switch-head logit order: list-word route, copy route, rewrite-tag route.
SW_QUEST = 0
SW_COPY = 1
SW_TRANS = 2

# The routes of the outcome mass, in route order: each source position's
# copy, each list word, each tag.  A route's mass is its switch weight times
# its head probability.
ROUTES = ((SW_COPY, "p_copy"), (SW_QUEST, "p_quest"), (SW_TRANS, "p_trans"))

# The step-state entries the mixing reads: the switch, then each head.
OUTPUTS = ("switch",) + tuple(head for _sw, head in ROUTES)

BIO_TAGS = ("<unk>", "O", "B", "I")

GRUS = ("enc_fwd", "enc_bwd", "dec")  # each GRU's parameter prefix

UNKNOWN_TAG = "<unk>"


def _rows(a: Array) -> Array:
    """``a`` as a 2-D stack of its last-axis rows."""
    return a.reshape(-1, a.shape[-1])


def _step_mask(inputs: Sequence[Array]) -> Array:
    """The (B, T) mask of a batch's teacher-forced steps: row ``b`` is True
    at the steps of ``inputs[b]``, T being the longest."""
    lengths = np.array([len(ids) for ids in inputs])
    return np.arange(lengths.max()) < lengths[:, None]


def _gru_stacks(tensors, prefix: str) -> tuple[Array, ...]:
    """A GRU's stacks ``[W_z; W_r; W_n]``, ``[U_z; U_r; U_n]``, ``[b_z; b_r; b_n]``.

    ``"enc"`` gives both encoder directions' stacks at once, as (2, ·)
    views whose first index is ``enc_fwd``, then ``enc_bwd``: the two GRUs
    have one spec and their tensors lie as two alike blocks one after the
    other (:func:`_store`), so each stack of the pair is one strided view."""
    if prefix != "enc":
        return tuple(tensors.stack(f"{prefix}/{k}_z", f"{prefix}/{k}_n") for k in "WUb")
    pair = tensors.stack("enc_fwd/W_z", "enc_bwd/b_n", (2, -1))
    stacks, start = [], 0
    for stack in _gru_stacks(tensors, "enc_fwd"):
        stacks.append(pair[:, start : start + stack.size].reshape((2,) + stack.shape))
        start += stack.size
    return tuple(stacks)


def _store(init_seed: int, specs) -> ParameterStore:
    """A store of ``specs`` laid out in registration order, but with each
    GRU's tensors kind by kind, so that each of its stacks is one stretch."""
    names = [name for name, _shape, _init in specs]
    for prefix in GRUS:
        at = names.index(f"{prefix}/W_z")
        names[at : at + 9] = [f"{prefix}/{k}_{g}" for k in "WUb" for g in "zrn"]
    return ParameterStore.draw(init_seed, specs, layout=names)


def _route_levels(counts: Array) -> tuple[Array, tuple[tuple[Array, Array], ...]]:
    """:func:`_add_routes`' ``first`` and ``levels`` for outcomes whose routes
    lie in contiguous runs, ``counts`` long: each run's start, and per
    further route index ``d`` the outcomes with one and that route."""
    first = np.cumsum(counts) - counts
    levels = []
    for depth in range(1, int(counts.max(initial=0))):
        deeper = (counts > depth).nonzero()[0]
        levels.append((deeper, first[deeper] + depth))
    return first, tuple(levels)


def _add_routes(routes: Array, first: Array,
                levels: Iterable[tuple[Array, Array]]) -> Array:
    """The one sum of the outcome mass: for each outcome, the float64 sum of
    its routes' masses in route order, over the last axis of ``routes``.

    ``first`` holds each outcome's first route, and each ``(outcomes,
    more)`` level adds one further route to the outcomes that have one.
    That is the float64 sum of ``np.add.at`` from zero, byte for byte,
    since ``0.0 + x`` is ``x`` for every mass (a product of two
    probabilities is never ``-0.0``)."""
    mass = routes.take(first, axis=-1).astype(np.float64)
    for outcomes, more in levels:
        mass[..., outcomes] = mass.take(outcomes, axis=-1) + routes.take(more, axis=-1)
    return mass


# The sizes a checkpoint's hyperparameters must give as 1 or more.
_AT_LEAST_ONE = ("word_dim", "answer_feat_dim", "ner_feat_dim", "pos_feat_dim", "hidden_size",
                 "source_cutoff", "beam_size", "max_decode_len")


@dataclass(frozen=True)
class HyperParams:
    """Model shape and training knobs with their full-scale defaults."""

    word_dim: int = 300
    answer_feat_dim: int = 32
    ner_feat_dim: int = 32
    pos_feat_dim: int = 32
    hidden_size: int = 512
    dropout_rate: float = 0.20
    learning_rate: float = 0.002
    batch_size: int = 32
    source_cutoff: int = 128
    beam_size: int = 12
    max_decode_len: int = 32
    dot_heads: bool = False

    @property
    def input_dim(self) -> int:
        """Width of one encoder input row: word plus the three feature embeddings."""
        return self.word_dim + self.answer_feat_dim + self.ner_feat_dim + self.pos_feat_dim

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "HyperParams":
        if not isinstance(data, Mapping):
            raise ParseError(f"hyperparameters must be a mapping, got {data!r}")
        known = {f.name: type(f.default) for f in fields(cls)}
        unknown = set(data) - set(known)
        if unknown:
            raise ParseError(f"unknown hyperparameter names: {sorted(unknown)}")
        for name, value in data.items():
            want = known[name]
            # bool is an int subclass, so it only passes where a bool is wanted.
            ok = (isinstance(value, bool) == (want is bool)
                  and isinstance(value, (int, float) if want is float else want))
            if not ok:
                raise ParseError(f"hyperparameter {name!r} must be {want.__name__}, "
                                 f"got {value!r}")
            if name in _AT_LEAST_ONE and value < 1:
                raise ParseError(f"hyperparameter {name!r} must be at least 1, got {value!r}")
            if name == "dropout_rate" and not 0.0 <= value < 1.0:  # also false for NaN
                raise ParseError(f"hyperparameter {name!r} must be in [0, 1), got {value!r}")
        return cls(**dict(data))  # type: ignore[arg-type]


def build_tag_list(tags: Iterable[str]) -> list[str]:
    """Closed tag inventory: an unknown slot followed by the sorted tags."""
    return [UNKNOWN_TAG] + sorted({t for t in tags if t != UNKNOWN_TAG})


def tag_index(tag_list: Sequence[str], tag: str) -> int:
    try:
        return tag_list.index(tag)
    except ValueError:
        return 0


@dataclass(frozen=True)
class PreparedExample:
    """An encoded example resolved to integer ids and target actions.

    Each target is also resolved to the run of routes that emit its word or
    tag (module docstring), ``routes`` holding the runs in order, a route
    being a (switch slot, index into that slot's head) pair.  ``inputs``
    holds the decoder input id of each teacher-forced step: ``<sos>``, then
    that of every target but the last.  These arrays derive from the fields
    above and the model's vocabulary, so they take no part in equality or
    hashing.
    """

    roots: tuple[str, ...]
    word_ids: tuple[int, ...]
    bio_ids: tuple[int, ...]
    ner_ids: tuple[int, ...]
    pos_ids: tuple[int, ...]
    span: tuple[int, int]
    targets: tuple[TargetAction, ...]  # the target actions, then Quest(EOS_ID)
    inputs: Array = field(compare=False, repr=False)        # (T,) intp
    route_counts: Array = field(compare=False, repr=False)  # routes of each target, (T,) intp
    routes: Array = field(compare=False, repr=False)        # (routes, 2) intp


@dataclass(frozen=True)
class OutcomeColumns:
    """Column layout of the outcome mass for one source sentence.

    The columns are ``[unique source roots in first-occurrence order | list
    words that are not source roots, by id | the tags in ALL_TYPES
    order]``.  A list word that is also a source root shares the root's
    column, so the copy and list routes merge there.  Each column also
    names the id of the decoder input that follows it: its word's encoder
    id, or ``vocab.encoder_size + t.index`` for tag ``t``.

    The routes are numbered in ROUTES order: each source position, each
    list word, each tag, and each column's routes form a run (module
    docstring): a root's positions, then its list route if it has one.
    ``first_routes`` and ``route_levels`` are :func:`_route_levels` of the
    run lengths mapped to route numbers, for :func:`_add_routes`.
    """

    words: tuple[str, ...]           # the word of each word column
    inputs: Array                    # decoder input id of each column, intp
    positions: tuple[Array, ...]     # source positions of each root column
    quest_ids: Array                 # list id of each list-only column, intp
    first_routes: Array              # first route of each column, intp
    route_levels: tuple[tuple[Array, Array], ...]  # (columns, routes) per further route

    def action(self, col: int, p_copy: Array):
        """The action column ``col`` stands for, given one row of copy
        probabilities: a root copies its most-attended position (the first
        on ties), a list-only word is that list word, the rest are tags."""
        n_roots = len(self.positions)
        if col < n_roots:
            pos = self.positions[col]
            return Copy(int(pos[np.argmax(p_copy[pos])]))
        if col < len(self.words):
            return Quest(int(self.quest_ids[col - n_roots]))
        return Trans(ALL_TYPES[col - len(self.words)])


class EncoderDecoder:
    """The question generator.  See the module docstring for the design."""

    def __init__(
        self,
        hyper: HyperParams,
        vocab: Vocab,
        pos_tags: Sequence[str],
        ner_tags: Sequence[str],
        init_seed: int = 42,
        store: ParameterStore | None = None,
    ) -> None:
        self.hyper = hyper
        self.vocab = vocab
        self.pos_tags = list(pos_tags)
        self.ner_tags = list(ner_tags)
        self.init_seed = init_seed
        if store is None:
            store = _store(init_seed, self._parameters(hyper, vocab, pos_tags, ner_tags))
        self.store = store
        self.dtype = store.flat.dtype.type
        self._gru = {key: _gru_stacks(store, key) for key in ("enc", "dec")}
        # Each GRU's [U_z; U_r] and U_n, the two products of a cell.
        d_h = hyper.hidden_size
        self._recurrent = {key: (U[..., : 2 * d_h, :], U[..., 2 * d_h :, :])
                           for key, (_W, U, _b) in self._gru.items()}
        # The list-word part of every OutcomeColumns: the words, the id of
        # each word, and the decoder input after each.
        quest = tuple(vocab.quest_vocab)
        self._list_words = (quest, {word: qid for qid, word in enumerate(quest)},
                            np.array([vocab.encoder_id(word) for word in quest], dtype=np.intp))

    # ------------------------------------------------------------------
    # Parameters.
    # ------------------------------------------------------------------

    @staticmethod
    def _parameters(hp: HyperParams, vocab: Vocab, pos_tags: Sequence[str],
                    ner_tags: Sequence[str]) -> list[tuple[str, tuple[int, ...], str]]:
        """Name, shape and init scheme of every tensor, in registration order.

        The order pins the seeded initial values and, through
        :func:`_store`, the store's layout and the order of every gradient
        norm; :meth:`load` checks a checkpoint against the same list.
        """
        d_w, d_h = hp.word_dim, hp.hidden_size
        d_in = hp.input_dim
        n_quest = vocab.quest_size
        n_types = len(ALL_TYPES)
        specs = [
            ("emb/word", (vocab.encoder_size, d_w), "uniform"),
            ("emb/bio", (len(BIO_TAGS), hp.answer_feat_dim), "uniform"),
            ("emb/ner", (len(ner_tags), hp.ner_feat_dim), "uniform"),
            ("emb/pos", (len(pos_tags), hp.pos_feat_dim), "uniform"),
            ("emb/trans", (n_types, d_w), "uniform"),
        ]
        for prefix, x_dim in zip(GRUS, (d_in, d_in, d_w + d_h)):
            for gate in ("z", "r", "n"):
                specs += [(f"{prefix}/W_{gate}", (d_h, x_dim), "scaled"),
                          (f"{prefix}/U_{gate}", (d_h, d_h), "uniform"),
                          (f"{prefix}/b_{gate}", (d_h,), "zeros")]
        specs += [
            ("init/W", (d_h, d_h), "scaled"),
            ("init/b", (d_h,), "zeros"),
            ("att/A", (d_h, d_h), "scaled"),
            ("att/B", (d_h, d_h), "scaled"),
            ("att/b", (d_h,), "zeros"),
            ("att/v", (d_h,), "scaled"),
        ]
        if hp.dot_heads:
            return specs + [
                ("dot/type_emb", (n_types, d_h), "uniform"),
                ("dot/quest_emb", (n_quest, d_h), "uniform"),
                ("dot/switch_W", (3, d_h), "scaled"),
                ("dot/switch_b", (3,), "zeros"),
            ]
        return specs + [
            ("g1/W", (2 * d_h, 2 * d_h), "scaled"),
            ("g1/b", (2 * d_h,), "zeros"),
            ("g1/Wo", (n_types, d_h), "scaled"),
            ("g1/bo", (n_types,), "zeros"),
            ("g2/W", (2 * d_h, 3 * d_h), "scaled"),
            ("g2/b", (2 * d_h,), "zeros"),
            ("g2/Wo", (n_quest, d_h), "scaled"),
            ("g2/bo", (n_quest,), "zeros"),
            ("switch/W", (3, 2 * d_h + d_w), "scaled"),
            ("switch/b", (3,), "zeros"),
        ]

    def zero_grads(self) -> ParameterStore:
        return self.store.zero_grads()

    def to_check_precision(self) -> "EncoderDecoder":
        """Twin model sharing shape/vocab but holding float64 weights."""
        return EncoderDecoder(
            self.hyper,
            self.vocab,
            self.pos_tags,
            self.ner_tags,
            init_seed=self.init_seed,
            store=self.store.astype(np.float64),
        )

    # ------------------------------------------------------------------
    # Example preparation.
    # ------------------------------------------------------------------

    def prepare(self, example: EncodedExample) -> PreparedExample:
        """Resolve ids, and each target's routes and next decoder input
        (see :class:`PreparedExample`).  A copy index outside the source or
        a list id outside the list raises :class:`IndexOutOfVocab`: either
        would name another outcome's route.  An empty source raises
        :class:`EmptyInputError` and an answer span outside the source
        :class:`ParseError`."""
        roots = tuple(example.source_roots)
        if not roots:
            raise EmptyInputError("source token sequence is empty")
        check_answer_span(example.answer_span, len(roots))
        word_ids = tuple(self.vocab.encoder_id(r) for r in roots)
        bio_ids, ner_ids, pos_ids = [], [], []
        for pos, ner, bio in example.source_features:
            bio_ids.append(tag_index(BIO_TAGS, bio))
            ner_ids.append(tag_index(self.ner_tags, ner))
            pos_ids.append(tag_index(self.pos_tags, pos))
        targets = tuple(example.target_actions) + (Quest(EOS_ID),)
        positions = root_positions(roots)
        qid_of = self._list_words[1]
        feeds, counts, routes = [SOS_ID], [], []
        for action in targets:
            if isinstance(action, Trans):
                feeds.append(self.vocab.encoder_size + action.type.index)
                counts.append(1)
                routes += (SW_TRANS, action.type.index)
                continue
            if isinstance(action, Copy):
                if not 0 <= action.index < len(roots):
                    raise IndexOutOfVocab(f"copy index {action.index} outside source "
                                          f"of {len(roots)} tokens")
                word = roots[action.index]
            else:
                word = self.vocab.quest_word(action.word_id)
            feeds.append(self.vocab.encoder_id(word))
            copies, qid = positions.get(word, ()), qid_of.get(word)
            counts.append(len(copies) + (qid is not None))
            for i in copies:
                routes += (SW_COPY, i)
            if qid is not None:
                routes += (SW_QUEST, qid)
        return PreparedExample(
            roots=roots,
            word_ids=word_ids,
            bio_ids=tuple(bio_ids),
            ner_ids=tuple(ner_ids),
            pos_ids=tuple(pos_ids),
            span=example.answer_span,
            targets=targets,
            inputs=np.array(feeds[:-1], dtype=np.intp),
            route_counts=np.array(counts, dtype=np.intp),
            routes=np.array(routes, dtype=np.intp).reshape(-1, 2),
        )

    # ------------------------------------------------------------------
    # Encoder.
    # ------------------------------------------------------------------

    @staticmethod
    def _input_ids(prepared: Sequence[PreparedExample]) -> tuple[tuple[str, Array], ...]:
        """The encoder input row layout: each token's row joins its word,
        answer-position, entity and POS embeddings, in this order.  Each
        table's ids are one intp array over the batch's tokens,
        example-major."""
        return tuple((name, np.fromiter(chain.from_iterable(getattr(prep, ids)
                                                            for prep in prepared), np.intp))
                     for name, ids in (("emb/word", "word_ids"), ("emb/bio", "bio_ids"),
                                       ("emb/ner", "ner_ids"), ("emb/pos", "pos_ids")))

    def _gru_cell(self, key: str, a: Array, h: Array):
        """The one GRU update, on input projections ``a = [a_z | a_r | a_n]``,
        one product with the stack ``W = [W_z; W_r; W_n]``, and a state ``h``:
        the decoder's one row or (k, ·) batch, or the encoder's (2, B, ·)
        pair of both directions' rows (:func:`_gru_stacks`).  Returns the
        new state, ``[z | r]`` and the candidate; ``[U_z; U_r]`` is one
        product."""
        U_zr, U_n = self._recurrent[key]
        d_h = h.shape[-1]
        zr = sigmoid(a[..., : 2 * d_h] + linear(U_zr, h))
        z, r = zr[..., :d_h], zr[..., d_h:]
        n = np.tanh(a[..., 2 * d_h :] + linear(U_n, r * h))
        return z * h + (1.0 - z) * n, zr, n

    def _gru_backward_steps(self, key: str, cache: dict):
        """The per-step backward of a GRU run whose cache holds each step's
        previous state ``h``, gates ``z`` and ``r`` and candidate ``n``,
        stacked step by step with any batch axes after the step axis.

        Returns ``step``.  ``step(i, dh, da)`` takes the gradient at the
        state after step ``i``, writes that step's gate pre-activation
        gradients ``[da_z | da_r | da_n]`` into ``da`` and returns the
        gradient at the previous state: the step's elementwise gate
        derivatives, then products with ``U_n`` and ``[U_z; U_r]``.
        """
        d_h = self.hyper.hidden_size
        U_zr, U_n = self._recurrent[key]

        def step(i: int, dh: Array, da: Array) -> Array:
            h, z, r, n = (cache[name][i] for name in "hzrn")
            da_z, da_r, da_n = da[..., :d_h], da[..., d_h : 2 * d_h], da[..., 2 * d_h :]
            np.multiply(dh, (1.0 - z) * (1.0 - n * n), out=da_n)
            drh = da_n @ U_n
            np.multiply(dh, (h - n) * z * (1.0 - z), out=da_z)
            np.multiply(drh, h * r * (1.0 - r), out=da_r)
            return dh * z + drh * r + da[..., : 2 * d_h] @ U_zr

        return step

    def _gru_weight_grads(self, prefix: str, D: Array, x: Array, h: Array, r: Array,
                          grads) -> None:
        """Add one GRU's weight gradients to its stacks in ``grads``, one
        product per stack (two for ``U``: ``U_n`` reads ``r * h``) over the
        rows of its gate gradients ``D``, against its input rows ``x``,
        previous states ``h`` and reset gates ``r``, row for row."""
        dW, dU, db = _gru_stacks(grads, prefix)
        k = 2 * self.hyper.hidden_size
        dW += D.T @ x
        dU[:k] += D[:, :k].T @ h
        dU[k:] += D[:, k:].T @ (r * h)
        db += D.sum(axis=0)

    def _encoder_walk(self, X: Array, valid: Array) -> tuple[Array, Array, dict]:
        """Run both encoder directions from a zero state over a padded
        (n, B, ·) batch ``X`` of input rows, ``valid[i, b]`` False where row
        ``b`` is padding at token ``i``.

        The directions walk together, on (2, B, ·) pairs of rows through
        the one :meth:`_gru_cell`: fused step ``i`` takes token ``i``
        forward and token ``n-1-i`` backward, so n cells serve a source of
        n tokens.  The input projections of both directions are one stacked
        product, the backward direction's rows in reversed token order
        (each row's projection has the bits it has in token order).  A
        padded row keeps its state, so the backward direction starts at
        each example's own last token.  The keep-state mask runs only when
        some row is padded: ``np.where`` of an all-True mask is the new
        state, so a batch without padding skips it with the same bits.

        Returns the token-major (n, B, d_h) sum of the two directions'
        states, the backward direction's state at token 0, and the cache of
        :meth:`_encoder_walk_backward`: the input rows, and each fused
        step's validity, previous states, gates and candidates, step-major.
        """
        n, B = valid.shape
        d_h = self.hyper.hidden_size
        padded = not valid.all()
        W, _U, b = self._gru["enc"]
        A = linear(W, np.stack((X, X[::-1])))
        A += b[:, None, None]
        # S[i] holds fused step i's previous states and S[i + 1] its new ones.
        step_valid = np.stack((valid, valid[::-1]), axis=1)[..., None]
        S = np.empty((n + 1, 2, B, d_h), dtype=self.dtype)
        S[0] = 0
        zr, cand = (np.empty((n, 2, B, width), dtype=self.dtype) for width in (2 * d_h, d_h))
        h = S[0]
        for i in range(n):
            new, zr[i], cand[i] = self._gru_cell("enc", A[:, i], h)
            h = S[i + 1] = np.where(step_valid[i], new, h) if padded else new
        # Token j's forward state is S[j + 1, 0], its backward one S[n - j, 1].
        return S[1:, 0] + S[n:0:-1, 1], S[n, 1].copy(), {
            "x": X, "valid": step_valid, "h": S[:-1], "z": zr[..., :d_h], "r": zr[..., d_h:],
            "n": cand}

    def _encoder_walk_backward(self, cache: dict, dS: Array, carry: Array, grads) -> Array:
        """Backward through :meth:`_encoder_walk`.

        ``dS[i]`` is the (B, d_h) gradient reaching token ``i``'s output
        from outside the recurrence, and ``carry`` the gradient at the
        backward direction's state at token 0.  Walks the fused steps in
        reverse, both directions at once through one step backward; a
        padded row carries its gradient through the step unchanged and
        gets zero gate gradients; as in the forward walk, those masks run
        only when some row is padded.  Each step's gate gradients are written
        to their tokens' rows, so both directions' rows lie in token order,
        the order whose sums give each weight gradient the bits of a walk
        per direction; so do the previous states and the reset gates
        taken for them.  Each part of ``cache`` is freed once read.  Adds
        the weight gradients, direction by direction: the products of both
        at once would allocate both results together, at hidden 512 enough
        to raise the peak resident memory of training by about 1%.  Returns
        the (n, B, ·) gradient at ``X``, one stacked product.
        """
        n, B, d_h = dS.shape
        valid = cache["valid"]
        padded = not valid.all()
        step = self._gru_backward_steps("enc", cache)
        DA = np.empty((2, n, B, 3 * d_h), dtype=self.dtype)
        da = np.empty((2, B, 3 * d_h), dtype=self.dtype)
        # The gradient at each direction's state, carried back step by step.
        back = np.zeros((2, B, d_h), dtype=self.dtype)
        back[1] = carry
        for i in range(n - 1, -1, -1):
            back[0] += dS[i]
            back[1] += dS[n - 1 - i]
            if padded:
                back = np.where(valid[i], step(i, np.where(valid[i], back, 0), da), back)
            else:
                back = step(i, back, da)
            DA[0, i], DA[1, n - 1 - i] = da
        del step, cache["z"], cache["n"]
        # Token j's previous states: S[j, 0] forward, S[n - 1 - j, 1] backward.
        h = np.stack((cache["h"][:, 0], cache["h"][::-1, 1]))
        del cache["h"]
        r = np.stack((cache["r"][:, 0], cache["r"][::-1, 1]))
        del cache["r"]
        D, x = DA.reshape(2, n * B, -1), _rows(cache.pop("x"))
        for d, prefix in enumerate(("enc_fwd", "enc_bwd")):
            self._gru_weight_grads(prefix, D[d], x, _rows(h[d]), _rows(r[d]), grads)
        dX = D @ self._gru["enc"][0]
        return (dX[0] + dX[1]).reshape(n, B, -1)

    def _encode(self, prepared: Sequence[PreparedExample], masks: Array | None) -> dict:
        """Run the bidirectional encoder (:meth:`_encoder_walk`) on a batch
        of sources padded to the longest.  ``masks``, when given, holds the
        dropout mask of every input row of the batch, example-major.

        Returns the example-major (B, n, d_h) outputs ``H`` and ``HA``, the
        (B, n) ``valid`` source mask and ``padded``, whether any of it is
        False, each example's answer vector
        ``v_answer`` and initial decoder state ``s0`` as (B, d_h) rows, and
        the backward cache.  In the additive design it also returns
        ``g2_answer``, g2's answer block ``v_answer @ W_g2[:, :d_h].T + b_g2``
        as (B, 2 d_h) rows: the part of g2's affine map that is the same at
        every step of a source, which :meth:`_heads` adds to the product
        of the rest, ``[s, c]``.

        The input rows are one gather per table, and ``v_answer`` one
        masked sum: each example's span rows are added in order from
        ``+0.0``, which with the division by the span length is
        ``np.mean`` of those rows byte for byte.
        """
        p = self.store
        lengths = np.array([len(prep.roots) for prep in prepared])
        if not lengths.all():
            raise ShapeMismatch("encode", (0,))
        n, B = int(lengths.max()), len(prepared)
        ids = self._input_ids(prepared)
        rows = np.concatenate([p[name][i] for name, i in ids], axis=1)
        valid = np.arange(n) < lengths[:, None]
        X = np.zeros((n, B, self.hyper.input_dim), dtype=self.dtype)
        X.swapaxes(0, 1)[valid] = rows if masks is None else rows * masks
        H, bwd0, cache = self._encoder_walk(X, valid.T)
        H = H.transpose(1, 0, 2).copy()
        left, right = np.array([prep.span for prep in prepared]).T
        span = (left[:, None] <= np.arange(n)) & (np.arange(n) <= right[:, None])
        v_answer = H.sum(axis=1, where=span[..., None])
        np.true_divide(v_answer, span.sum(axis=1, keepdims=True), out=v_answer, casting="unsafe")
        enc = {
            "ids": ids,
            "masks": masks,
            "span": span,
            "valid": valid,
            "padded": not valid.all(),
            "H": H,
            "HA": linear(p["att/A"], H),
            "v_answer": v_answer,
            "s0": np.tanh(affine(p["init/W"], p["init/b"], bwd0)),
            "bwd0": bwd0,
            "cache": cache,
        }
        if not self.hyper.dot_heads:
            d_h = self.hyper.hidden_size
            enc["g2_answer"] = affine(p["g2/W"][:, :d_h], p["g2/b"], v_answer)
        return enc

    def encode(self, prep: PreparedExample) -> dict:
        """Encode one source without dropout: the batch-of-one
        :meth:`_encode`, as that example's ``H``, ``HA``, ``valid``,
        ``v_answer`` and ``s0``, and in the additive design ``g2_answer``,
        with the batch's ``padded`` flag (False: one source has no
        padding)."""
        enc = self._encode([prep], None)
        keys = ("H", "HA", "valid", "v_answer", "s0") + (() if self.hyper.dot_heads
                                                         else ("g2_answer",))
        return {"padded": enc["padded"], **{key: enc[key][0] for key in keys}}

    def _encoder_backward(self, enc: dict, dH: Array, dHA: Array, dv_answer: Array,
                          ds0: Array, grads, word_rows: list) -> None:
        """Propagate the (B, n, ·) gradients at H and HA and the (B, ·) ones
        at v_answer and s0 back to the embeddings, and append the word ids
        and ``emb/word`` gradient rows of the valid tokens onto
        ``word_rows`` (:meth:`_word_gradient` adds them).  The walk's cache
        leaves ``enc`` as :meth:`_encoder_walk_backward` starts."""
        p = self.store
        grads["att/A"] += _rows(dHA).T @ _rows(enc["H"])
        dH += (_rows(dHA) @ p["att/A"]).reshape(dH.shape)
        span = enc["span"]
        # In the model dtype, as a span length is small enough to be exact there.
        length = span.sum(axis=1, keepdims=True).astype(dH.dtype)
        np.add(dH, (dv_answer / length)[:, None, :], out=dH, where=span[..., None])
        da0 = ds0 * (1.0 - enc["s0"] * enc["s0"])
        grads["init/W"] += da0.T @ enc["bwd0"]
        grads["init/b"] += da0.sum(axis=0)
        # The backward direction ends at token 0, whose state also feeds s0.
        dX = self._encoder_walk_backward(enc.pop("cache"), dH.transpose(1, 0, 2),
                                         da0 @ p["init/W"], grads)
        # Only the valid rows, example-major: np.add.at adds a repeated id's
        # rows one after another, in that order.
        dX = dX.swapaxes(0, 1)[enc["valid"]]
        if enc["masks"] is not None:
            dX = dX * enc["masks"]
        start = 0
        for name, ids in enc["ids"]:
            width = p[name].shape[1]
            if name == "emb/word":
                word_rows.append((ids, dX[:, start : start + width]))
            else:
                np.add.at(grads[name], ids, dX[:, start : start + width])
            start += width

    # ------------------------------------------------------------------
    # Decoder step.
    # ------------------------------------------------------------------

    def input_embedding(self, ids) -> Array:
        """The ``[emb/word; emb/trans]`` rows of decoder input ids: one row
        for a scalar id, (k, d_w) rows for k.  Neither table is copied."""
        word, trans = self.store["emb/word"], self.store["emb/trans"]
        ids = np.asarray(ids)
        return np.where((ids < len(word))[..., None], word.take(ids, axis=0, mode="clip"),
                        trans.take(ids - len(word), axis=0, mode="clip"))

    def step(self, enc: dict, s_prev: Array, c_prev: Array, ids) -> dict:
        """One decoder step: state update, attention, and all output heads.

        ``s_prev`` and ``c_prev`` are one state row with one input id, or
        (k, d_h) batches with k ids (:meth:`input_embedding`); every entry
        of the returned state then has a leading k axis.
        """
        return self._heads(enc, self._recurrence(enc, s_prev, c_prev, self.input_embedding(ids)))

    def _attention_q(self, enc: dict, s: Array) -> Array:
        """The attention pre-activations ``Q = tanh(HA + s @ B.T + b)``: for
        each state row, one (n, d_h) block against its source."""
        p = self.store
        Q = enc["HA"] + affine(p["att/B"], p["att/b"], s)[..., None, :]
        return np.tanh(Q, out=Q)

    def _recurrence(self, enc: dict, s_prev: Array, c_prev: Array, w: Array) -> dict:
        """The recurrent half of a step: one :meth:`_gru_cell` on the input
        projections of ``x = [w, c_prev]``, then attention.  ``enc`` is one
        source, which every state row attends (:meth:`encode`), or a batch
        of B sources with one state row each (:meth:`_encode`); a padded
        source position gets a ``-inf`` logit, so exactly zero weight.  The
        mask runs only when ``enc["padded"]``: ``np.where`` of an all-True
        mask is the logits themselves.
        Returns ``s``, ``c`` and ``alpha`` beside the input ``x`` and the
        gates ``z``, ``r`` and ``n`` that :meth:`_gru_backward_steps`
        reads.  ``Q`` is not kept: the backward pass recomputes it
        (:meth:`_attention_q`)."""
        p = self.store
        d_h = self.hyper.hidden_size
        x = np.concatenate([w, c_prev], axis=-1)
        W, _U, b = self._gru["dec"]
        s, zr, n = self._gru_cell("dec", affine(W, b, x), s_prev)
        logits = self._attention_q(enc, s) @ p["att/v"]
        alpha = softmax(np.where(enc["valid"], logits, -np.inf) if enc["padded"] else logits)
        H = enc["H"]
        c = alpha @ H if H.ndim == 2 else (alpha[:, None, :] @ H)[:, 0]
        return {"x": x, "z": zr[..., :d_h], "r": zr[..., d_h:], "n": n, "s": s, "alpha": alpha,
                "c": c}

    def _walk(self, enc: dict, inputs: Sequence[Array]) -> dict:
        """The recurrence over a batch's teacher-forced steps: step ``t``
        runs :meth:`_recurrence` on the (B, ·) rows of every example's
        ``t``-th input id, a zero row past an example's last step; the rows
        are one gather of all the ids.  Returns (T, B, ·) stacks of every
        entry of the step state, and of each step's previous state ``h``."""
        valid = _step_mask(inputs)
        B, T = valid.shape
        W = np.zeros((T, B, self.hyper.word_dim), dtype=self.dtype)
        W.swapaxes(0, 1)[valid] = self.input_embedding(np.concatenate(inputs))
        # One stack of T + 1 states: each step's previous state is the one before.
        states = np.empty((T + 1,) + enc["s0"].shape, dtype=self.dtype)
        states[0] = enc["s0"]
        walk = {"h": states[:-1], "s": states[1:]}
        c = np.zeros_like(enc["s0"])
        for t in range(T):
            state = self._recurrence(enc, states[t], c, W[t])
            for key, value in state.items():
                if key not in walk:
                    walk[key] = np.empty((T,) + value.shape, dtype=self.dtype)
                walk[key][t] = value
            c = state["c"]
        return walk

    def _heads(self, enc: dict, state: dict) -> dict:
        """The non-recurrent half of a step: adds the switch and the three
        heads to a :meth:`_recurrence` state, a beam's (k, ·) rows against
        one source or a batch's (T, B, ·) teacher-forced steps against B
        sources (:meth:`_walk`).  Each product takes all rows at once; g2's
        answer block comes from ``enc`` (:meth:`_encode`), one row per
        source, and is not multiplied again per row or step."""
        p = self.store
        s, c, H = state["s"], state["c"], enc["H"]
        if self.hyper.dot_heads:
            # Each row scores its own source; a padded position gets -inf.
            scores = (s @ H.T if H.ndim == 2
                      else (s.swapaxes(0, 1) @ H.swapaxes(1, 2)).swapaxes(0, 1))
            if enc["padded"]:
                scores = np.where(enc["valid"], scores, -np.inf)
            state.update(p_copy=softmax(scores),
                         p_trans=softmax(affine(p["dot/type_emb"], 0, s)),
                         p_quest=softmax(affine(p["dot/quest_emb"], 0, s)),
                         switch=softmax(affine(p["dot/switch_W"], p["dot/switch_b"], s)))
            return state
        # No concatenation is kept: the backward pass reads its blocks.
        w = state["x"][..., : self.hyper.word_dim]
        sc = np.concatenate([s, c], axis=-1)
        m1, max1 = maxout_affine(p["g1/W"], p["g1/b"], sc)
        m2, max2 = maxout_affine(p["g2/W"][:, self.hyper.hidden_size :], enc["g2_answer"], sc)
        state.update(p_copy=state["alpha"], p_trans=softmax(affine(p["g1/Wo"], p["g1/bo"], m1)),
                     p_quest=softmax(affine(p["g2/Wo"], p["g2/bo"], m2)),
                     switch=softmax(affine(p["switch/W"], p["switch/b"],
                                           np.concatenate([c, s, w], axis=-1))),
                     m1=m1, max1=max1, m2=m2, max2=max2)
        return state

    def _heads_backward(self, enc: dict, walk: dict, seeds: dict, grads) -> dict:
        """Backward through :meth:`_heads` on a batch's (T, B, ·) ``walk``.

        ``seeds`` holds the gradients at the switch and at each head, zero
        at padded steps (:meth:`_loss`).  Each head weight takes its
        gradient, and sends one to its input, as one product over all T·B
        rows per column block of the input, so no concatenation is kept;
        the entries only the heads read leave ``walk`` once read.  Returns
        the gradients at every step's ``s``, ``c``, input word ``w`` and
        attention weights ``alpha``, and at the batch's ``H`` and
        ``v_answer``, which the forward pass broadcast over the steps.
        """
        p = self.store
        d_h, d_w = self.hyper.hidden_size, self.hyper.word_dim
        T, B = walk["s"].shape[:2]
        d = {key: np.zeros_like(walk[key]) for key in ("s", "c", "alpha")}
        d.update(w=np.zeros_like(walk["x"][..., :d_w]), H=np.zeros_like(enc["H"]),
                 v_answer=np.zeros_like(enc["v_answer"]))
        S, C, W = _rows(walk["s"]), _rows(walk.pop("c")), _rows(walk["x"][..., :d_w])
        ds, dc, dw = (_rows(d[key]) for key in "scw")
        dlog = _rows(softmax_backward(walk.pop("switch"), seeds["switch"]))
        if self.hyper.dot_heads:
            affine_backward(p["dot/switch_W"], grads["dot/switch_W"], dlog, ((S, ds),))
            grads["dot/switch_b"] += dlog.sum(axis=0)
            for head, table in (("p_quest", "dot/quest_emb"), ("p_trans", "dot/type_emb")):
                dlog = _rows(softmax_backward(walk.pop(head), seeds[head]))
                affine_backward(p[table], grads[table], dlog, ((S, ds),))
            # The copy head scores each example's steps against its own H.
            dlog = softmax_backward(walk.pop("p_copy"), seeds["p_copy"]).swapaxes(0, 1)
            d["H"] += dlog.swapaxes(1, 2) @ walk["s"].swapaxes(0, 1)
            d["s"] += (dlog @ enc["H"]).swapaxes(0, 1)
            return d
        # The switch reads [c, s, w], g2 [v_answer, s, c] and g1 [s, c].
        affine_backward(p["switch/W"], grads["switch/W"], dlog, ((C, dc), (S, ds), (W, dw)))
        grads["switch/b"] += dlog.sum(axis=0)
        for g, head, k in (("g2", "p_quest", "2"), ("g1", "p_trans", "1")):
            dlog = _rows(softmax_backward(walk.pop(head), seeds[head]))
            grads[f"{g}/Wo"] += dlog.T @ _rows(walk.pop("m" + k))
            grads[f"{g}/bo"] += dlog.sum(axis=0)
            da = maxout_affine_backward(_rows(walk.pop("max" + k)), dlog @ p[f"{g}/Wo"])
            grads[f"{g}/b"] += da.sum(axis=0)
            if g == "g2":  # an example's v_answer is the same at every step
                affine_backward(p["g2/W"], grads["g2/W"], da.reshape(T, B, -1).sum(axis=0),
                                ((enc["v_answer"], d["v_answer"]),))
            affine_backward(p[f"{g}/W"], grads[f"{g}/W"], da, ((S, ds), (C, dc)),
                            start=d_h if g == "g2" else 0)
        d["alpha"] = seeds["p_copy"]  # in the additive regime the copy distribution IS alpha
        return d

    def _recurrence_backward(self, enc: dict, walk: dict, inputs: Sequence[Array], d: dict,
                             grads, word_rows: list) -> tuple[Array, Array]:
        """Backward through a batch's teacher-forced walk (:meth:`_walk`).

        ``inputs`` are each example's input id arrays, and ``d`` holds the
        gradients the heads sent to every step's ``s``, ``c``, ``w`` and
        ``alpha`` (zero at padded steps) and to ``H``.  Only the attention
        and the GRU carry walk the steps, in reverse, on (B, ·) rows; each
        step's ``Q`` is recomputed from ``HA`` and ``s``, bit for bit as
        the forward pass had it.  Each weight then gets one matrix product
        over all T·B rows.  The input rows, example-major and padded steps
        left out, go into ``emb/trans``, and the word inputs' ids and rows
        are appended onto ``word_rows`` (:meth:`_word_gradient` adds them).
        Returns the gradients at ``HA`` and at ``s0``; the one at ``H`` is
        added to ``d["H"]``.
        """
        p = self.store
        d_h, d_w = self.hyper.hidden_size, self.hyper.word_dim
        H, S, alpha, v = enc["H"], walk["s"], walk["alpha"], p["att/v"]
        T = len(S)
        dC = d["c"]  # becomes each step's whole gradient at c
        dQ_sum = np.empty_like(d["s"])
        dHA = np.zeros_like(H)
        dv = np.zeros_like(S[0])
        gru_step = self._gru_backward_steps("dec", walk)
        DA = np.empty(S.shape[:-1] + (3 * d_h,), dtype=self.dtype)
        W_c = self._gru["dec"][0][:, d_w:]
        ds_carry = np.zeros_like(S[0])
        dc_carry = np.zeros_like(S[0])
        # c_t = alpha_t @ H feeds step t+1's GRU input, and alpha_t comes
        # from s_t through Q_t = tanh(HA + s_t @ B.T + b).
        for t in range(T - 1, -1, -1):
            dc = dC[t] = dC[t] + dc_carry
            Q = self._attention_q(enc, S[t])
            de = softmax_backward(alpha[t], d["alpha"][t] + (H @ dc[:, :, None])[..., 0])
            dv += (de[:, None, :] @ Q)[:, 0]
            Q *= Q
            dQ_dpre = np.subtract(1.0, Q, out=Q)
            dQ_sum[t] = dq_sum = v * (de[:, None, :] @ dQ_dpre)[:, 0]
            dQ_dpre *= de[..., None]
            dHA += dQ_dpre
            ds_carry = gru_step(t, d["s"][t] + ds_carry + dq_sum @ p["att/B"], DA[t])
            dc_carry = DA[t] @ W_c
        del gru_step, Q, dQ_dpre, walk["z"], walk["n"]
        D = _rows(DA)
        self._gru_weight_grads("dec", D, _rows(walk["x"]), _rows(walk["h"]), _rows(walk["r"]),
                               grads)
        dW_in = d["w"]
        dW_in += (D @ self._gru["dec"][0][:, :d_w]).reshape(dW_in.shape)
        del D, DA, walk["x"], walk["r"]
        dHA *= v
        d["H"] += np.matmul(alpha.transpose(1, 2, 0), dC.transpose(1, 0, 2))
        grads["att/v"] += dv.sum(axis=0)
        grads["att/B"] += _rows(dQ_sum).T @ _rows(S)
        grads["att/b"] += _rows(dQ_sum).sum(axis=0)
        rows = dW_in.swapaxes(0, 1)[_step_mask(inputs)]
        ids = np.concatenate(inputs)
        n_words = len(p["emb/word"])
        is_word = ids < n_words
        np.add.at(grads["emb/trans"], ids[~is_word] - n_words, rows[~is_word])
        word_rows.append((ids[is_word], rows[is_word]))
        return dHA, ds_carry

    def _word_gradient(self, word_rows: list) -> tuple[Array, Array]:
        """The ``emb/word`` gradient of a batch as ``(ids, values)``: the
        sorted unique ids of the rows it reads and a (len(ids), d_w) block
        of their gradient rows.  ``word_rows`` holds (ids, rows) pairs, the
        decoder's word inputs and then the encoder's valid tokens, each
        example-major; one ``np.add.at`` adds them into the block from zero
        in that order, which is the order, and so the bytes, of adding
        them into the whole table.  Not ``np.unique``: numpy 2 imports
        numpy.ma on its first call, 1.3 MB of resident memory."""
        at = np.concatenate([ids for ids, _rows in word_rows])
        ids = np.sort(at)
        ids = ids[np.diff(ids, prepend=-1) != 0]
        values = np.zeros((len(ids), self.hyper.word_dim), dtype=self.dtype)
        np.add.at(values, np.searchsorted(ids, at),
                  np.concatenate([rows for _ids, rows in word_rows]))
        return ids, values

    # ------------------------------------------------------------------
    # Loss.
    # ------------------------------------------------------------------

    def _loss(self, prepared: Sequence[PreparedExample], walk: dict,
              seeds: dict | None) -> float:
        """The batch's summed loss: minus the log of each target's outcome
        mass, which :func:`_add_routes` sums over the routes that emit the
        target (:class:`PreparedExample`), each route's mass being the
        switch weight times the head probability at the target's step of
        the (T, B, ·) ``walk``.  The targets go example-major; each
        example's step losses are added by Python's ``sum``, and the
        examples' sums in batch order.

        With ``seeds``, zero arrays shaped like the walk's switch and heads,
        writes the gradients of the loss at every target's step, with
        ``dP = -1 / mass``: at a head, ``dP`` times the switch weight at
        each of the target's routes; at the switch, ``dP`` times the summed
        head probability of the target's routes of each slot.  A copy sum
        runs over the example's own width of ``p_copy``, the hits kept and
        the rest zero: numpy's pairwise sum groups a padded row's terms
        differently, which changes the bits once three or more positions
        hold the word.
        """
        steps = np.array([len(prep.targets) for prep in prepared])
        counts = np.concatenate([prep.route_counts for prep in prepared])
        slot, index = np.concatenate([prep.routes for prep in prepared]).T
        # Each target's step t and example b, example-major, then each route's.
        first_target = np.cumsum(steps) - steps
        t_of = np.arange(len(counts)) - np.repeat(first_target, steps)
        b_of = np.repeat(np.arange(len(prepared)), steps)
        route_target = np.repeat(np.arange(len(counts)), counts)
        route_t, route_b = t_of[route_target], b_of[route_target]
        switch = walk["switch"][route_t, route_b, slot]
        probs = np.empty(len(slot), dtype=self.dtype)
        kinds = {sw: (head, slot == sw) for sw, head in ROUTES}
        for head, kind in kinds.values():
            probs[kind] = walk[head][route_t[kind], route_b[kind], index[kind]]
        mass = _add_routes(switch * probs, *_route_levels(counts))
        bad = ~(np.isfinite(mass) & (mass > 0.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise DivergenceError(f"target probability {float(mass[k])!r} at decoder step "
                                  f"{int(t_of[k]) + 1} is not a positive finite number")
        losses = [-math.log(prob) for prob in mass.tolist()]
        total = 0.0
        for start, stop in zip(first_target.tolist(), (first_target + steps).tolist()):
            total += sum(losses[start:stop])
        if seeds is None:
            return total
        dP = (-1.0 / mass).astype(self.dtype)
        value = dP[route_target] * switch
        # Each target's summed head probability of its routes of each slot.
        hit = np.zeros((len(counts), 3), dtype=self.dtype)
        for sw, (head, kind) in kinds.items():
            seeds[head][route_t[kind], route_b[kind], index[kind]] = value[kind]
            if sw != SW_COPY:  # one route at most, so its probability is the sum
                hit[route_target[kind], sw] = probs[kind]
        copy = kinds[SW_COPY][1]
        p_copy = walk["p_copy"][t_of, b_of]
        copied = np.zeros(p_copy.shape, dtype=bool)
        copied[route_target[copy], index[copy]] = True
        widths = np.repeat([len(prep.roots) for prep in prepared], steps)
        for n in set(widths.tolist()):
            same = (widths == n).nonzero()[0]
            hit[same, SW_COPY] = np.where(copied[same, :n], p_copy[same, :n], 0).sum(axis=-1)
        seeds["switch"][t_of, b_of] = dP[:, None] * hit
        return total

    def loss_and_grads(
        self,
        prepared: Sequence[PreparedExample],
        grads: ParameterStore | None = None,
        masks: Array | None = None,
        rng: np.random.Generator | None = None,
        rows: dict[str, tuple[Array, Array]] | None = None,
    ) -> tuple[float, int]:
        """Total negative log-likelihood and token count over the examples.

        The examples run as one padded batch: the encoder and the decoder
        recurrence step all of them as (B, ·) rows, and the switch and
        heads, forward and backward, run once on all (T, B, ·) steps, and
        so do the loss and its gradient seeds (:meth:`_loss`), from the
        routes and decoder inputs that :meth:`prepare` resolved; no outcome
        layout is built.  Gradients are added to ``grads``, when given, a
        :meth:`zero_grads` buffer (else ``TypeError``).  ``masks``, when
        given (grad-check freezing), is the dropout mask of the batch's
        input rows, each example's rows in batch order; else masks are
        sampled from ``rng`` (training): one draw for the batch's rows,
        which is each example's draw in batch order, else dropout is off
        (evaluation).

        The ``emb/word`` gradient is one block (:meth:`_word_gradient`):
        the sorted unique ids of the rows the batch reads, source words and
        decoder inputs, which hold all of the gradient that table gets, and
        their gradient rows; a row is there even when dropout zeroed its
        gradient.  With ``rows`` (training), ``rows["emb/word"]`` is set to
        that ``(ids, values)`` pair, for :meth:`morphoqg.tensor.Adam.step`,
        and ``grads["emb/word"]`` is not written, so its pages stay
        untouched; without it (grad checks), the block is added into
        ``grads["emb/word"]`` at ``ids``.
        """
        if grads is not None:
            self.store.check_grads(grads, "loss_and_grads")
        # A zero rate draws nothing, so its all-ones masks are left out.
        if masks is None and rng is not None and self.hyper.dropout_rate != 0.0:
            masks = dropout_mask((sum(len(prep.roots) for prep in prepared), self.hyper.input_dim),
                                 self.hyper.dropout_rate, rng, dtype=self.dtype)
        enc = self._encode(prepared, masks)
        inputs = [prep.inputs for prep in prepared]
        walk = self._walk(enc, inputs)
        self._heads(enc, walk)
        seeds = None if grads is None else {key: np.zeros_like(walk[key]) for key in OUTPUTS}
        total = self._loss(prepared, walk, seeds)
        tokens = sum(len(prep.targets) for prep in prepared)
        if seeds is None:
            return total, tokens
        d = self._heads_backward(enc, walk, seeds, grads)
        del seeds
        word_rows: list = []
        dHA, ds0 = self._recurrence_backward(enc, walk, inputs, d, grads, word_rows)
        dH, dv_answer = d["H"], d["v_answer"]
        del walk, d
        self._encoder_backward(enc, dH, dHA, dv_answer, ds0, grads, word_rows)
        ids, values = self._word_gradient(word_rows)
        if rows is None:
            grads["emb/word"][ids] += values
        else:
            rows["emb/word"] = (ids, values)
        return total, tokens

    # ------------------------------------------------------------------
    # Outcome mass: the one mixing of the three routes, used by training,
    # decoding and the probability-mass checks.
    # ------------------------------------------------------------------

    def outcome_columns(self, roots: Sequence[str]) -> OutcomeColumns:
        """Column layout of the outcome mass for one source; see
        :class:`OutcomeColumns`."""
        n_copy = len(roots)
        positions = root_positions(roots)
        words, qid_of, word_inputs = self._list_words
        # Each root column's run, as :meth:`prepare` lays out a target's: its
        # positions, then its list route if the root is a list word.
        runs, counts, shared = [], [], []
        for root, pos in positions.items():
            runs += pos
            qid = qid_of.get(root)
            if qid is not None:
                runs.append(n_copy + qid)
                shared.append(qid)
            counts.append(len(pos) + (qid is not None))
        first, levels = _route_levels(np.array(counts, dtype=np.intp))
        runs = np.array(runs, dtype=np.intp)
        keep = np.ones(len(words), dtype=bool)  # the list-only columns
        keep[shared] = False
        quest_ids = keep.nonzero()[0]
        root_inputs = np.array([self.vocab.encoder_id(root) for root in positions], dtype=np.intp)
        return OutcomeColumns(
            words=tuple(positions) + tuple(compress(words, keep.tolist())),
            inputs=np.concatenate([root_inputs, word_inputs[keep],
                                   self.vocab.encoder_size + np.arange(len(ALL_TYPES))]),
            positions=tuple(runs[start : start + len(pos)]
                            for start, pos in zip(first.tolist(), positions.values())),
            quest_ids=quest_ids,
            first_routes=np.concatenate([
                runs[first], n_copy + quest_ids,
                np.arange(n_copy + len(words), n_copy + len(words) + len(ALL_TYPES))]),
            route_levels=tuple((cols, runs[at]) for cols, at in levels),
        )

    def outcome_mass(self, state: dict, columns: OutcomeColumns) -> Array:
        """Float64 probability of every surface outcome, shape (k, columns)
        for a batched state or (columns,) for one row.

        Every route's mass is the switch weight times the head probability,
        a product taken in the model dtype; each column adds its routes' mass
        in float64 and in route order, so a word adds the copy mass of each
        source position holding it and then its list-word mass.  Each unit
        of switch mass lands in exactly one column, so a row sums to 1 up to
        rounding.  The sum is :func:`_add_routes` over the columns'
        ``first_routes`` and ``route_levels``, the one that training's loss
        takes over its targets' routes.
        """
        switch = state["switch"]
        routes = np.concatenate([switch[..., sw, None] * state[head] for sw, head in ROUTES],
                                axis=-1)
        return _add_routes(routes, columns.first_routes, columns.route_levels)

    def outcome_distribution(self, state: dict, roots: Sequence[str]):
        """Dict view of one row of :meth:`outcome_mass`.

        Returns ``(word_probs, word_actions, tag_probs)``: word
        probabilities marginalise the copy and list routes, each word maps
        to the action decoding would emit for it (see
        :meth:`OutcomeColumns.action`), and tags keep their own outcome
        space.  The three dictionaries' values sum to 1 up to rounding.
        """
        columns = self.outcome_columns(roots)
        row = self.outcome_mass(state, columns).tolist()
        n_words = len(columns.words)
        word_probs = dict(zip(columns.words, row[:n_words]))
        word_actions = {word: columns.action(col, state["p_copy"])
                        for col, word in enumerate(columns.words)}
        tag_probs = dict(zip(ALL_TYPES, row[n_words:]))
        return word_probs, word_actions, tag_probs

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------

    @staticmethod
    def _sidecar_format(hyper: HyperParams) -> str:
        """The sidecar's "format": the head design, and since checkpoints
        carry a checksum, "+sha256".  A sidecar whose format lacks it was
        written before, and is the only kind loaded without the check."""
        return ("wt-dot" if hyper.dot_heads else "wt-additive") + "+sha256"

    def sidecar(self, extra: Mapping[str, object] | None = None) -> dict:
        meta = {
            "format": self._sidecar_format(self.hyper),
            "hyperparams": self.hyper.to_dict(),
            "init_seed": self.init_seed,
            "vocab_sha256": self.vocab.content_hashes(),
            "pos_tags": self.pos_tags,
            "ner_tags": self.ner_tags,
        }
        if extra:
            meta.update(extra)
        return meta

    def save(self, path: str, extra: Mapping[str, object] | None = None) -> None:
        save_checkpoint(path, self.store, sidecar=self.sidecar(extra))

    @classmethod
    def load(cls, path: str, vocab: Vocab) -> "EncoderDecoder":
        # One read: the checksum is checked on the bytes whose metadata built the model.
        meta, sidecar = read_sidecar(path)
        if "hyperparams" not in meta:
            raise ParseError(f"checkpoint sidecar for {path} has no 'hyperparams'")
        hyper = HyperParams.from_dict(meta["hyperparams"])
        checked = cls._sidecar_format(hyper)
        if meta.get("format") not in (checked, checked.removesuffix("+sha256")):
            raise ParseError(f"checkpoint sidecar for {path}: 'format' must be "
                             f"{checked!r} for its hyperparameters, got {meta.get('format')!r}")
        for key in ("pos_tags", "ner_tags"):
            tags = meta.get(key)
            if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
                raise ParseError(f"checkpoint sidecar for {path}: {key!r} must be "
                                 f"a list of strings, got {tags!r}")
        init_seed = meta.get("init_seed", 0)
        if isinstance(init_seed, bool) or not isinstance(init_seed, int):
            raise ParseError(f"checkpoint sidecar for {path}: 'init_seed' must be "
                             f"an integer, got {init_seed!r}")
        if meta.get("vocab_sha256") != vocab.content_hashes():
            raise ParseError("checkpoint was built with a different vocabulary")
        specs = cls._parameters(hyper, vocab, meta["pos_tags"], meta["ner_tags"])
        store = _store(init_seed, [(name, shape, "empty") for name, shape, _ in specs])
        model = cls(hyper, vocab, pos_tags=meta["pos_tags"],
                    ner_tags=meta["ner_tags"], init_seed=init_seed, store=store)
        weights = load_checkpoint(path, into=store)
        for name, shape, _init in specs:
            arr = weights.get(name)
            if arr is None:
                raise ParseError(f"checkpoint {path} has no tensor {name!r}")
            if arr.shape != shape:
                raise ParseError(f"checkpoint tensor {name!r} has shape {arr.shape}, but "
                                 f"the sidecar's hyperparameters and tags give {shape}")
            store[name] = arr  # a no-op for a tensor read into its view
        if len(weights) > len(store):
            raise ParseError(f"checkpoint {path} has tensors the model lacks: "
                             f"{sorted(set(weights) - set(store))}")
        check_sidecar(sidecar, path, weights, required=meta["format"] == checked)
        return model
