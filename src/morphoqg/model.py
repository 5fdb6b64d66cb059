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
list, the list route).  That mixing has one implementation,
:meth:`EncoderDecoder.outcome_mass`: training reads each target's column
of it and seeds the backward pass through the same route-to-column map,
and beam search ranks its rows.

The forward pass calls the array kernels of :mod:`morphoqg.tensor`
(sigmoid, softmax, two-piece maxout, dropout mask) and the backward pass
is written out by hand around their backward halves; there is no autodiff
graph.  One GRU cell, fed input projections taken beforehand, serves the
encoder's tokens, the decoder's teacher-forced steps and the beam's live
hypotheses; each encoder GRU projects all tokens of its source before the
recurrence.  A decoder step
has a recurrent half (the GRU, then attention) and a non-recurrent half
(the switch and the heads).  In training only the recurrent half walks an
example's teacher-forced steps; the heads and the mixing run once on the
(T, ·) stack of the walk, and the backward pass takes them back the same
way.  Only the attention and the GRU carries walk the steps in reverse,
and they store each step's gate gradients, so that every weight gradient
is one matrix product per sequence.  The input-row gradient goes into the word,
answer-position, entity and POS tables with one ``np.add.at`` per table.
Beam search runs the decoder step on a (k, d_h) batch of all live
hypotheses and mixes the three routes into one probability row per
hypothesis.  ``grad_check`` validates the complete loss gradient against
central finite differences, in the test suite and in ``selftest``.

Two output-layer regimes are provided: the default additive one (attention
weights double as the copy distribution; deep maxout readouts for tags and
list words) and a lighter dot-product one in which every head scores by a
dot product against the decoder state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .codec import EOS_ID, SOS_ID, Copy, EncodedExample, Quest, TargetAction, Trans, Vocab
from .errors import DivergenceError, ParseError, ShapeMismatch
from .morphology import ALL_TYPES
from .tensor import (Array, ParameterStore, check_checkpoint, dropout_mask, load_checkpoint,
                     load_sidecar, maxout_affine, maxout_affine_backward, save_checkpoint,
                     sigmoid, softmax, softmax_backward)

# Switch-head logit order: list-word route, copy route, rewrite-tag route.
SW_QUEST = 0
SW_COPY = 1
SW_TRANS = 2

# The routes of the outcome mass, in route order: each source position's
# copy, each list word, each tag.  A route's mass is its switch weight times
# its head probability.
ROUTES = ((SW_COPY, "p_copy"), (SW_QUEST, "p_quest"), (SW_TRANS, "p_trans"))

BIO_TAGS = ("<unk>", "O", "B", "I")

UNKNOWN_TAG = "<unk>"


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
    """An encoded example resolved to integer ids, decoder inputs and targets."""

    roots: tuple[str, ...]
    word_ids: tuple[int, ...]
    bio_ids: tuple[int, ...]
    ner_ids: tuple[int, ...]
    pos_ids: tuple[int, ...]
    span: tuple[int, int]
    input_specs: tuple[tuple[str, int], ...]  # ("word", enc_id) | ("trans", idx)
    targets: tuple[TargetAction, ...]  # the target actions, then Quest(EOS_ID)
    reference: str = ""


@dataclass(frozen=True)
class OutcomeColumns:
    """Column layout of the outcome mass for one source sentence.

    The columns are ``[unique source roots in first-occurrence order | list
    words that are not source roots, by id | the tags in ALL_TYPES
    order]``.  A list word that is also a source root shares the root's
    column, so the copy and list routes merge there.
    """

    words: tuple[str, ...]           # the word of each word column
    positions: tuple[Array, ...]     # source positions of each root column
    quest_ids: tuple[int, ...]       # list id of each list-only column
    route_col: Array                 # column of each route, in ROUTES order

    def action(self, col: int, p_copy: Array):
        """The action column ``col`` stands for, given one row of copy
        probabilities: a root copies its most-attended position (the first
        on ties), a list-only word is that list word, the rest are tags."""
        n_roots = len(self.positions)
        if col < n_roots:
            pos = self.positions[col]
            return Copy(int(pos[np.argmax(p_copy[pos])]))
        if col < len(self.words):
            return Quest(self.quest_ids[col - n_roots])
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
            store = ParameterStore(init_seed=init_seed)
            for name, shape, init in self._parameters():
                store.add(name, shape, init=init)
        self.store = store
        self.dtype = store.dtype

    # ------------------------------------------------------------------
    # Parameters.
    # ------------------------------------------------------------------

    def _parameters(self) -> list[tuple[str, tuple[int, ...], str]]:
        """Name, shape and init scheme of every tensor, in registration order.

        The order pins the seeded initial values and the order of every
        gradient dict; :meth:`load` checks a checkpoint against the same list.
        """
        hp = self.hyper
        d_w, d_h = hp.word_dim, hp.hidden_size
        d_in = self._input_dim()
        n_quest = self.vocab.quest_size
        n_types = len(ALL_TYPES)
        specs = [
            ("emb/word", (self.vocab.encoder_size, d_w), "uniform"),
            ("emb/bio", (len(BIO_TAGS), hp.answer_feat_dim), "uniform"),
            ("emb/ner", (len(self.ner_tags), hp.ner_feat_dim), "uniform"),
            ("emb/pos", (len(self.pos_tags), hp.pos_feat_dim), "uniform"),
            ("emb/trans", (n_types, d_w), "uniform"),
        ]
        for prefix, x_dim in (
            ("enc_fwd", d_in),
            ("enc_bwd", d_in),
            ("dec", d_w + d_h),
        ):
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

    def zero_grads(self) -> dict[str, Array]:
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

    def input_spec_for_action(self, action, roots: Sequence[str]) -> tuple[str, int]:
        """Decoder-input embedding choice for the action just emitted."""
        if isinstance(action, Copy):
            return ("word", self.vocab.encoder_id(roots[action.index]))
        if isinstance(action, Quest):
            word = self.vocab.quest_word(action.word_id)
            return ("word", self.vocab.encoder_id(word))
        if isinstance(action, Trans):
            return ("trans", action.type.index)
        raise ParseError(f"unknown action: {action!r}")

    def prepare(self, example: EncodedExample) -> PreparedExample:
        roots = tuple(example.source_roots)
        word_ids = tuple(self.vocab.encoder_id(r) for r in roots)
        bio_ids, ner_ids, pos_ids = [], [], []
        for pos, ner, bio in example.source_features:
            bio_ids.append(tag_index(BIO_TAGS, bio))
            ner_ids.append(tag_index(self.ner_tags, ner))
            pos_ids.append(tag_index(self.pos_tags, pos))
        targets = tuple(example.target_actions) + (Quest(EOS_ID),)
        specs: list[tuple[str, int]] = [("word", SOS_ID)]
        for action in targets[:-1]:
            specs.append(self.input_spec_for_action(action, roots))
        return PreparedExample(
            roots=roots,
            word_ids=word_ids,
            bio_ids=tuple(bio_ids),
            ner_ids=tuple(ner_ids),
            pos_ids=tuple(pos_ids),
            span=example.answer_span,
            input_specs=tuple(specs),
            targets=targets,
            reference=" ".join(example.reference_question),
        )

    # ------------------------------------------------------------------
    # Encoder.
    # ------------------------------------------------------------------

    def _input_dim(self) -> int:
        """Width of one encoder input row: word plus the three feature embeddings."""
        hp = self.hyper
        return hp.word_dim + hp.answer_feat_dim + hp.ner_feat_dim + hp.pos_feat_dim

    @staticmethod
    def _input_ids(prep: PreparedExample) -> tuple[tuple[str, list[int]], ...]:
        """The encoder input row layout: each token's row joins its word,
        answer-position, entity and POS embeddings, in this order.  The ids
        are lists, because a tuple index would read as a multi-axis index."""
        return (("emb/word", list(prep.word_ids)), ("emb/bio", list(prep.bio_ids)),
                ("emb/ner", list(prep.ner_ids)), ("emb/pos", list(prep.pos_ids)))

    def _gru_inputs(self, prefix: str, X: Array) -> Array:
        """The input projections ``[a_z | a_r | a_n] = X @ W_g.T + b_g`` of a
        row or of stacked rows, one matrix product per gate."""
        p = self.store
        return np.concatenate([X @ p[f"{prefix}/W_{g}"].T + p[f"{prefix}/b_{g}"]
                               for g in "zrn"], axis=-1)

    def _gru_cell(self, prefix: str, a: Array, h: Array):
        """The one GRU update, on input projections ``a`` (see :meth:`_gru_inputs`)
        and a state ``h`` of one row or a (k, ·) batch.  Returns the new state,
        ``[z | r]``, ``r * h`` and the candidate.  Each recurrent weight is its
        own product: a stacked ``[U_z; U_r]`` would be copied on every call."""
        p = self.store
        d_h = h.shape[-1]
        zr = sigmoid(a[..., : 2 * d_h] + np.concatenate(
            [h @ p[f"{prefix}/U_z"].T, h @ p[f"{prefix}/U_r"].T], axis=-1))
        z, r = zr[..., :d_h], zr[..., d_h:]
        rh = r * h
        n = np.tanh(a[..., 2 * d_h :] + rh @ p[f"{prefix}/U_n"].T)
        return z * h + (1.0 - z) * n, zr, rh, n

    def _gru_sequence(self, prefix: str, X: Array, order: range) -> tuple[Array, dict]:
        """Run one GRU from a zero state over the rows of ``X`` in ``order``:
        the input projections of all rows, then one :meth:`_gru_cell` per row.
        Row ``i`` of the returned (n, d_h) states, and of each stacked cache
        entry (input, previous state, gates, ``r * h``, candidate), belongs to
        ``X[i]``; the cache keeps ``order`` for the backward walk."""
        n, d_h = len(X), self.hyper.hidden_size
        A = self._gru_inputs(prefix, X)
        prev, zr, rh, cand, states = (np.empty((n, width), dtype=self.dtype)
                                      for width in (d_h, 2 * d_h, d_h, d_h, d_h))
        h = np.zeros(d_h, dtype=self.dtype)
        for i in order:
            prev[i] = h
            h, zr[i], rh[i], cand[i] = self._gru_cell(prefix, A[i], h)
            states[i] = h
        return states, {"x": X, "h": prev, "z": zr[:, :d_h], "r": zr[:, d_h:], "rh": rh,
                        "n": cand, "order": order}

    def _gru_backward_steps(self, prefix: str, cache: dict):
        """The per-step backward of a GRU run whose cache rows are stacked
        as :meth:`_gru_sequence` keeps them.

        Returns ``(DA, step)``.  ``step(i, dh)`` takes the gradient at the
        state after row ``i``, writes that row's gate pre-activation
        gradients ``[da_z | da_r | da_n]`` into ``DA[i]`` and returns the
        gradient at the previous state.  The elementwise gate derivatives of
        all rows are taken up front, so a step is three products with the
        recurrent weights.
        """
        p = self.store
        d_h = self.hyper.hidden_size
        U_z, U_r, U_n = (p[f"{prefix}/U_{g}"] for g in "zrn")
        h, z, r, n = cache["h"], cache["z"], cache["r"], cache["n"]
        k_z = (h - n) * z * (1.0 - z)
        k_r = h * r * (1.0 - r)
        k_n = (1.0 - z) * (1.0 - n * n)
        DA = np.empty((len(h), 3 * d_h), dtype=self.dtype)

        def step(i: int, dh: Array) -> Array:
            da_z, da_r, da_n = DA[i, :d_h], DA[i, d_h : 2 * d_h], DA[i, 2 * d_h :]
            np.multiply(dh, k_n[i], out=da_n)
            drh = da_n @ U_n
            np.multiply(dh, k_z[i], out=da_z)
            np.multiply(drh, k_r[i], out=da_r)
            return dh * z[i] + drh * r[i] + da_z @ U_z + da_r @ U_r

        return DA, step

    def _gru_weight_grads(self, prefix: str, DA: Array, cache: dict, grads,
                          x_cols: slice = slice(None)) -> Array:
        """Add a GRU run's weight gradients, one matrix product per tensor,
        from the stacked gate gradients ``DA`` of all its steps; returns the
        gradient at the ``x_cols`` columns of its inputs."""
        p = self.store
        D = dict(zip("zrn", np.split(DA, 3, axis=1)))
        for g in "zrn":
            grads[f"{prefix}/W_{g}"] += D[g].T @ cache["x"]
            grads[f"{prefix}/U_{g}"] += D[g].T @ cache["rh" if g == "n" else "h"]
            grads[f"{prefix}/b_{g}"] += D[g].sum(axis=0)
        return sum(D[g] @ p[f"{prefix}/W_{g}"][:, x_cols] for g in "zrn")

    def _gru_sequence_backward(self, prefix: str, cache: dict, dS: Array, carry: Array,
                               grads) -> Array:
        """Backward through :meth:`_gru_sequence`.

        ``dS[i]`` is the gradient reaching the state after row ``i`` from
        outside the recurrence, and ``carry`` the gradient at the last state
        of the run.  Walks the rows in reverse order, then adds the weight
        gradients; returns the gradient at ``X``.
        """
        DA, step = self._gru_backward_steps(prefix, cache)
        for i in reversed(cache["order"]):
            carry = step(i, dS[i] + carry)
        return self._gru_weight_grads(prefix, DA, cache, grads)

    def encode(self, prep: PreparedExample, masks: Array | None = None) -> dict:
        """Run the bidirectional encoder; returns state plus backward caches."""
        p = self.store
        n = len(prep.roots)
        if n == 0:
            raise ShapeMismatch("encode", (0,))
        X = np.concatenate([p[name][ids] for name, ids in self._input_ids(prep)], axis=1)
        if masks is not None:
            X = X * masks
        fwd_states, fwd_cache = self._gru_sequence("enc_fwd", X, range(n))
        bwd_states, bwd_cache = self._gru_sequence("enc_bwd", X, range(n - 1, -1, -1))
        H = fwd_states + bwd_states
        l, r = prep.span
        v_answer = np.mean(H[l : r + 1], axis=0)
        a0 = p["init/W"] @ bwd_states[0] + p["init/b"]
        s0 = np.tanh(a0)
        return {
            "prep": prep,
            "masks": masks,
            "H": H,
            "HA": H @ p["att/A"].T,
            "v_answer": v_answer,
            "s0": s0,
            "bwd0": bwd_states[0],
            "fwd_cache": fwd_cache,
            "bwd_cache": bwd_cache,
        }

    def _encoder_backward(self, enc: dict, dH: Array, dHA: Array, dv_answer: Array,
                          ds0: Array, grads) -> None:
        """Propagate the gradients at H, HA, v_answer and s0 back to the embeddings."""
        p = self.store
        prep: PreparedExample = enc["prep"]
        grads["att/A"] += dHA.T @ enc["H"]
        dH = dH + dHA @ p["att/A"]
        l, r = prep.span
        dH[l : r + 1] += dv_answer / (r - l + 1)
        da0 = ds0 * (1.0 - enc["s0"] * enc["s0"])
        grads["init/W"] += np.outer(da0, enc["bwd0"])
        grads["init/b"] += da0
        # The backward-direction GRU ends at token 0, whose state also feeds s0.
        dX = (self._gru_sequence_backward("enc_fwd", enc["fwd_cache"], dH,
                                          np.zeros_like(da0), grads)
              + self._gru_sequence_backward("enc_bwd", enc["bwd_cache"], dH,
                                            p["init/W"].T @ da0, grads))
        masks = enc["masks"]
        if masks is not None:
            dX = dX * masks
        # np.add.at adds a repeated id's rows one after another, in token order.
        start = 0
        for name, ids in self._input_ids(prep):
            width = p[name].shape[1]
            np.add.at(grads[name], ids, dX[:, start : start + width])
            start += width

    # ------------------------------------------------------------------
    # Decoder step.
    # ------------------------------------------------------------------

    def input_embedding(self, spec) -> Array:
        """Decoder input row for one spec, or stacked rows for a list of specs."""
        if isinstance(spec, list):
            return np.stack([self.input_embedding(one) for one in spec])
        kind, idx = spec
        table = self.store["emb/word"] if kind == "word" else self.store["emb/trans"]
        return table[idx]

    def step(self, enc: dict, s_prev: Array, c_prev: Array, input_spec) -> dict:
        """One decoder step: state update, attention, and all output heads.

        ``s_prev`` and ``c_prev`` are one state row with one
        ``("word" | "trans", id)`` spec, or (k, d_h) batches with a list of
        k specs; every entry of the returned state then has a leading k axis.
        """
        return self._heads(enc, self._recurrence(enc, s_prev, c_prev,
                                                 self.input_embedding(input_spec)))

    def _recurrence(self, enc: dict, s_prev: Array, c_prev: Array, w: Array) -> dict:
        """The recurrent half of a step: one :meth:`_gru_cell` on the input
        projections of ``x = [w, c_prev]``, then attention.  Returns ``s``,
        ``c``, ``alpha`` and ``Q`` beside the GRU cache under
        :meth:`_gru_sequence`'s keys."""
        p = self.store
        d_h = self.hyper.hidden_size
        x = np.concatenate([w, c_prev], axis=-1)
        s, zr, rh, n = self._gru_cell("dec", self._gru_inputs("dec", x), s_prev)
        Q = np.tanh(enc["HA"] + (s @ p["att/B"].T + p["att/b"])[..., None, :])
        alpha = softmax(Q @ p["att/v"])
        return {"x": x, "h": s_prev, "z": zr[..., :d_h], "r": zr[..., d_h:], "rh": rh,
                "n": n, "s": s, "Q": Q, "alpha": alpha, "c": alpha @ enc["H"]}

    def _heads(self, enc: dict, state: dict) -> dict:
        """The non-recurrent half of a step: adds the switch and the three
        heads to a :meth:`_recurrence` state with any leading batch axis,
        a beam's (k, ·) rows or an example's (T, ·) teacher-forced steps."""
        p = self.store
        s, c, H = state["s"], state["c"], enc["H"]
        if self.hyper.dot_heads:
            state.update(p_copy=softmax(s @ H.T), p_trans=softmax(s @ p["dot/type_emb"].T),
                         p_quest=softmax(s @ p["dot/quest_emb"].T),
                         switch=softmax(s @ p["dot/switch_W"].T + p["dot/switch_b"]))
            return state
        w = state["x"][..., : self.hyper.word_dim]
        u1 = np.concatenate([s, c], axis=-1)
        m1, max1 = maxout_affine(p["g1/W"], p["g1/b"], u1)
        v_answer = np.broadcast_to(enc["v_answer"], s.shape)
        u2 = np.concatenate([v_answer, s, c], axis=-1)
        m2, max2 = maxout_affine(p["g2/W"], p["g2/b"], u2)
        u3 = np.concatenate([c, s, w], axis=-1)
        state.update(p_copy=state["alpha"], p_trans=softmax(m1 @ p["g1/Wo"].T + p["g1/bo"]),
                     p_quest=softmax(m2 @ p["g2/Wo"].T + p["g2/bo"]),
                     switch=softmax(u3 @ p["switch/W"].T + p["switch/b"]),
                     u1=u1, m1=m1, max1=max1, u2=u2, m2=m2, max2=max2, u3=u3)
        return state

    def _decoder_backward(self, enc: dict, steps: dict, d_switch: Array,
                          d_heads: Sequence[Array | None], grads) -> tuple[Array, ...]:
        """Backward through the T teacher-forced decoder steps of one example.

        ``steps`` is the forward pass's (T, ·) stack, decoder GRU cache
        included; ``d_switch`` and ``d_heads`` are :meth:`_route_grads`'
        gradients at the switch and at each head.  As in the forward pass,
        the switch and the heads take all steps as one batch, and only the
        attention and the GRU carry walk them, in reverse.  Each weight then
        gets one matrix product over the steps.  Returns the gradients at
        the encoder outputs ``H``, ``HA`` and ``v_answer`` and at ``s0``.
        """
        p = self.store
        d_h, d_w = self.hyper.hidden_size, self.hyper.word_dim
        H, S = enc["H"], steps["s"]
        T = len(S)
        # Gradients from the switch and heads at each step's s, c, input word
        # and attention weights, before the recurrence adds its share.
        dS = np.zeros((T, d_h), dtype=self.dtype)
        dC = np.zeros((T, d_h), dtype=self.dtype)
        dW_in = np.zeros((T, d_w), dtype=self.dtype)
        dAlpha = np.zeros(steps["alpha"].shape, dtype=self.dtype)
        dH = np.zeros_like(H)
        dv_answer = np.zeros(d_h, dtype=self.dtype)
        d_copy, d_quest, d_trans = d_heads

        if self.hyper.dot_heads:
            dlog = softmax_backward(steps["switch"], d_switch)
            grads["dot/switch_W"] += dlog.T @ S
            grads["dot/switch_b"] += dlog.sum(axis=0)
            dS += dlog @ p["dot/switch_W"]
            # Each head scores s against the rows of a matrix; copy uses H.
            for probs, d_probs, rows, d_rows in (
                    ("p_quest", d_quest, p["dot/quest_emb"], grads["dot/quest_emb"]),
                    ("p_trans", d_trans, p["dot/type_emb"], grads["dot/type_emb"]),
                    ("p_copy", d_copy, H, dH)):
                if d_probs is not None:
                    dlog = softmax_backward(steps[probs], d_probs)
                    d_rows += dlog.T @ S
                    dS += dlog @ rows
        else:
            dlog = softmax_backward(steps["switch"], d_switch)
            grads["switch/W"] += dlog.T @ steps["u3"]
            grads["switch/b"] += dlog.sum(axis=0)
            du3 = dlog @ p["switch/W"]  # u3 = [c, s, w]
            dC += du3[:, :d_h]
            dS += du3[:, d_h : 2 * d_h]
            dW_in += du3[:, 2 * d_h :]
            for g, probs, d_probs, k in (("g2", "p_quest", d_quest, "2"),
                                         ("g1", "p_trans", d_trans, "1")):
                if d_probs is None:
                    continue
                dlog = softmax_backward(steps[probs], d_probs)
                grads[f"{g}/Wo"] += dlog.T @ steps["m" + k]
                grads[f"{g}/bo"] += dlog.sum(axis=0)
                da = maxout_affine_backward(steps["max" + k], dlog @ p[f"{g}/Wo"])
                grads[f"{g}/W"] += da.T @ steps["u" + k]
                grads[f"{g}/b"] += da.sum(axis=0)
                du = da @ p[f"{g}/W"]  # u2 = [v_answer, s, c], u1 = [s, c]
                if g == "g2":
                    dv_answer += du[:, :d_h].sum(axis=0)
                dS += du[:, -2 * d_h : -d_h]
                dC += du[:, -d_h:]
            if d_copy is not None:
                # In the additive regime the copy distribution IS alpha.
                dAlpha += d_copy

        # The recurrence: c_t = alpha_t @ H feeds step t+1's GRU input, and
        # alpha_t comes from s_t through Q_t = tanh(HA + s_t @ B.T + b).
        alpha, Q, v = steps["alpha"], steps["Q"], p["att/v"]
        dQ_dpre = 1.0 - Q * Q
        dC_all = np.empty((T, d_h), dtype=self.dtype)
        dE = np.empty(alpha.shape, dtype=self.dtype)
        dQ_sum = np.empty((T, d_h), dtype=self.dtype)
        DA, gru_step = self._gru_backward_steps("dec", steps)
        W_c = [p[f"dec/W_{g}"][:, d_w:] for g in "zrn"]
        ds_carry = np.zeros(d_h, dtype=self.dtype)
        dc_carry = np.zeros(d_h, dtype=self.dtype)
        for t in range(T - 1, -1, -1):
            dC_all[t] = dc = dC[t] + dc_carry
            dE[t] = de = softmax_backward(alpha[t], dAlpha[t] + H @ dc)
            dQ_sum[t] = dq_sum = v * (de @ dQ_dpre[t])
            ds_carry = gru_step(t, dS[t] + ds_carry + dq_sum @ p["att/B"])
            dc_carry = sum(da @ W for da, W in zip(np.split(DA[t], 3), W_c))
        dH += alpha.T @ dC_all
        dHA = v * np.einsum("tn,tnd->nd", dE, dQ_dpre)
        grads["att/v"] += np.einsum("tnd,tn->d", Q, dE)
        grads["att/B"] += dQ_sum.T @ S
        grads["att/b"] += dQ_sum.sum(axis=0)
        dW_in += self._gru_weight_grads("dec", DA, steps, grads, x_cols=slice(None, d_w))
        specs = enc["prep"].input_specs
        is_word = np.array([kind == "word" for kind, _ in specs])
        ids = np.array([idx for _, idx in specs], dtype=np.intp)
        np.add.at(grads["emb/word"], ids[is_word], dW_in[is_word])
        np.add.at(grads["emb/trans"], ids[~is_word], dW_in[~is_word])
        return dH, dHA, dv_answer, ds_carry

    # ------------------------------------------------------------------
    # Loss.
    # ------------------------------------------------------------------

    def _target_columns(self, prep: PreparedExample, columns: OutcomeColumns) -> Array:
        """The outcome column of each target action: the column of the route
        that emits it (a copied position, a list id or a tag)."""
        n_roots, n_quest = len(prep.roots), self.vocab.quest_size
        routes = [a.index if isinstance(a, Copy)
                  else n_roots + a.word_id if isinstance(a, Quest)
                  else n_roots + n_quest + a.type.index for a in prep.targets]
        return columns.route_col[routes]

    def _route_grads(self, steps: dict, hits: Array, dP: Array) -> tuple[Array, list]:
        """Gradients of ``dP[t]`` times the summed mass of the routes marked
        in ``hits[t]``, at the switch and at each head of every step ``t``
        of ``steps``.  Returns the (T, 3) switch gradients and, in ROUTES
        order, each head's (T, n) gradients, or None for a head with no
        marked route at any step."""
        d_switch = np.zeros(steps["switch"].shape, dtype=self.dtype)
        d_heads = []
        start = 0
        for sw, head in ROUTES:
            probs = steps[head]
            sel = hits[:, start : start + probs.shape[-1]]
            start += probs.shape[-1]
            d_switch[:, sw] = dP * np.where(sel, probs, 0).sum(axis=-1)
            d_heads.append(np.where(sel, (dP * steps["switch"][:, sw])[:, None], 0)
                           if sel.any() else None)
        return d_switch, d_heads

    def loss_and_grads(
        self,
        prepared: Sequence[PreparedExample],
        grads: dict[str, Array] | None = None,
        masks_list: Sequence[Array | None] | None = None,
        rng: np.random.Generator | None = None,
    ) -> tuple[float, int]:
        """Total negative log-likelihood and token count over the examples.

        When ``grads`` is given, parameter gradients of the summed loss are
        accumulated into it.  Dropout masks come from ``masks_list`` when
        provided (grad-check freezing), else are sampled from ``rng``
        (training), else dropout is off (evaluation).
        """
        total = 0.0
        tokens = 0
        for idx, prep in enumerate(prepared):
            if masks_list is not None:
                masks = masks_list[idx]
            elif rng is not None:
                masks = dropout_mask((len(prep.roots), self._input_dim()),
                                     self.hyper.dropout_rate, rng, dtype=self.dtype)
            else:
                masks = None
            enc = self.encode(prep, masks)
            columns = self.outcome_columns(prep.roots)
            target_cols = self._target_columns(prep, columns)
            # Only the recurrence walks the teacher-forced steps; the heads
            # and the mixing take all T steps as one (T, ·) batch.
            s = enc["s0"]
            c = np.zeros(self.hyper.hidden_size, dtype=self.dtype)
            walk = []
            for w in self.input_embedding(list(prep.input_specs)):
                walk.append(self._recurrence(enc, s, c, w))
                s, c = walk[-1]["s"], walk[-1]["c"]
            steps = self._heads(enc, {key: np.array([state[key] for state in walk])
                                      for key in walk[0]})
            probs = self.outcome_mass(steps, columns)[np.arange(len(walk)), target_cols]
            step_losses = []
            for t, prob in enumerate(probs.tolist()):
                if not (math.isfinite(prob) and prob > 0.0):
                    raise DivergenceError(
                        f"target probability {prob!r} at decoder step "
                        f"{t + 1} is not a positive finite number")
                step_losses.append(-math.log(prob))
            total += sum(step_losses)
            tokens += len(step_losses)
            if grads is None:
                continue
            d_switch, d_heads = self._route_grads(
                steps, columns.route_col == target_cols[:, None],
                (-1.0 / probs).astype(self.dtype))
            self._encoder_backward(
                enc, *self._decoder_backward(enc, steps, d_switch, d_heads, grads), grads)
        return total, tokens

    # ------------------------------------------------------------------
    # Outcome mass: the one mixing of the three routes, used by training,
    # decoding and the probability-mass checks.
    # ------------------------------------------------------------------

    def outcome_columns(self, roots: Sequence[str]) -> OutcomeColumns:
        """Column layout of the outcome mass for one source; see
        :class:`OutcomeColumns`."""
        col_of: dict[str, int] = {}
        positions: list[list[int]] = []
        for i, root in enumerate(roots):
            if root not in col_of:
                col_of[root] = len(positions)
                positions.append([])
            positions[col_of[root]].append(i)
        quest_ids = []
        for qid, word in enumerate(self.vocab.quest_vocab):
            if word not in col_of:
                col_of[word] = len(col_of)
                quest_ids.append(qid)
        route_col = [col_of[root] for root in roots]
        route_col += [col_of[word] for word in self.vocab.quest_vocab]
        route_col += range(len(col_of), len(col_of) + len(ALL_TYPES))
        return OutcomeColumns(
            words=tuple(col_of),
            positions=tuple(np.array(pos, dtype=np.intp) for pos in positions),
            quest_ids=tuple(quest_ids),
            route_col=np.array(route_col, dtype=np.intp),
        )

    def outcome_mass(self, state: dict, columns: OutcomeColumns) -> Array:
        """Float64 probability of every surface outcome, shape (k, columns)
        for a batched state or (columns,) for one row.

        Every route's mass is the switch weight times the head probability,
        a product taken in the model dtype; each column adds its routes' mass
        in float64 and in route order, so a word adds the copy mass of each
        source position holding it and then its list-word mass.  Each unit
        of switch mass lands in exactly one column, so a row sums to 1 up to
        rounding.
        """
        switch = state["switch"]
        routes = np.concatenate([switch[..., sw, None] * state[head] for sw, head in ROUTES],
                                axis=-1).astype(np.float64)
        # Column-major, so the scatter-add indexes the first axis.
        mass = np.zeros((len(columns.words) + len(ALL_TYPES),) + switch.shape[:-1])
        np.add.at(mass, columns.route_col, routes.T)
        return mass.T

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
        save_checkpoint(path, dict(self.store.items()), sidecar=self.sidecar(extra))

    @classmethod
    def load(cls, path: str, vocab: Vocab) -> "EncoderDecoder":
        meta = load_sidecar(path)
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
        store = ParameterStore(init_seed=init_seed)
        model = cls(hyper, vocab, pos_tags=meta["pos_tags"],
                    ner_tags=meta["ner_tags"], init_seed=init_seed, store=store)
        weights = load_checkpoint(path)
        for name, shape, _init in model._parameters():
            arr = weights.get(name)
            if arr is None:
                raise ParseError(f"checkpoint {path} has no tensor {name!r}")
            if arr.shape != shape:
                raise ParseError(f"checkpoint tensor {name!r} has shape {arr.shape}, but "
                                 f"the sidecar's hyperparameters and tags give {shape}")
            store.add_value(name, arr)
        if len(weights) > len(store):
            raise ParseError(f"checkpoint {path} has tensors the model lacks: "
                             f"{sorted(set(weights) - set(store.names()))}")
        check_checkpoint(path, weights, required=meta["format"] == checked)
        return model
