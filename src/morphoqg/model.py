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
list, the list route).

The forward pass calls the array kernels of :mod:`morphoqg.tensor`
(sigmoid, softmax, two-piece maxout, dropout mask) and the backward pass
is written out by hand around their backward halves; there is no autodiff
graph.  Training runs the decoder step on single state rows; beam search
runs the same step on a (k, d_h) batch of all live hypotheses and mixes
the three routes into one probability row per hypothesis
(:meth:`EncoderDecoder.outcome_mass`).  ``grad_check`` validates the complete loss gradient against
central finite differences, in the test suite and in ``selftest``.

Two output-layer regimes are provided: the default additive one (attention
weights double as the copy distribution; deep maxout readouts for tags and
list words) and a lighter dot-product one in which every head scores by a
dot product against the decoder state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .codec import EOS_ID, SOS_ID, Copy, EncodedExample, Quest, Trans, Vocab
from .errors import DivergenceError, ParseError, ShapeMismatch
from .morphology import ALL_TYPES
from .tensor import (Array, ParameterStore, dropout_mask, load_checkpoint, load_sidecar,
                     maxout_affine, maxout_affine_backward, save_checkpoint, sigmoid,
                     softmax, softmax_backward)

# Switch-head logit order: list-word route, copy route, rewrite-tag route.
SW_QUEST = 0
SW_COPY = 1
SW_TRANS = 2

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

    def scaled(self, **overrides) -> "HyperParams":
        return replace(self, **overrides)


def build_tag_list(tags: Iterable[str]) -> list[str]:
    """Closed tag inventory: an unknown slot followed by the sorted tags."""
    return [UNKNOWN_TAG] + sorted({t for t in tags if t != UNKNOWN_TAG})


def tag_index(tag_list: Sequence[str], tag: str) -> int:
    try:
        return tag_list.index(tag)
    except ValueError:
        return 0


@dataclass(frozen=True)
class StepTarget:
    """Supervision for one decoder step.

    ``kind`` is "word" or "tag".  For word targets, ``copy_positions``
    lists every source index whose root equals the word and ``quest_id``
    is the word's list id when the list genuinely contains it (None
    otherwise) — together they define the marginalised probability.
    """

    kind: str
    word: str = ""
    copy_positions: tuple[int, ...] = ()
    quest_id: int | None = None
    tag_idx: int = -1


@dataclass(frozen=True)
class PreparedExample:
    """An encoded example resolved to integer ids and per-step supervision."""

    roots: tuple[str, ...]
    word_ids: tuple[int, ...]
    bio_ids: tuple[int, ...]
    ner_ids: tuple[int, ...]
    pos_ids: tuple[int, ...]
    span: tuple[int, int]
    input_specs: tuple[tuple[str, int], ...]  # ("word", enc_id) | ("trans", idx)
    targets: tuple[StepTarget, ...]
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
    route_col: Array                 # column of each source position, then each list id

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
            self._register(store)
        self.store = store
        self.dtype = store.dtype

    # ------------------------------------------------------------------
    # Parameters.
    # ------------------------------------------------------------------

    def _register(self, store: ParameterStore) -> None:
        hp = self.hyper
        d_w, d_h = hp.word_dim, hp.hidden_size
        d_in = self._input_dim()
        n_enc = self.vocab.encoder_size
        n_quest = self.vocab.quest_size
        n_types = len(ALL_TYPES)

        store.add("emb/word", (n_enc, d_w), init="uniform")
        store.add("emb/bio", (len(BIO_TAGS), hp.answer_feat_dim), init="uniform")
        store.add("emb/ner", (len(self.ner_tags), hp.ner_feat_dim), init="uniform")
        store.add("emb/pos", (len(self.pos_tags), hp.pos_feat_dim), init="uniform")
        store.add("emb/trans", (n_types, d_w), init="uniform")

        for prefix, x_dim in (
            ("enc_fwd", d_in),
            ("enc_bwd", d_in),
            ("dec", d_w + d_h),
        ):
            for gate in ("z", "r", "n"):
                store.add(f"{prefix}/W_{gate}", (d_h, x_dim), init="scaled")
                store.add(f"{prefix}/U_{gate}", (d_h, d_h), init="uniform")
                store.add(f"{prefix}/b_{gate}", (d_h,), init="zeros")

        store.add("init/W", (d_h, d_h), init="scaled")
        store.add("init/b", (d_h,), init="zeros")

        store.add("att/A", (d_h, d_h), init="scaled")
        store.add("att/B", (d_h, d_h), init="scaled")
        store.add("att/b", (d_h,), init="zeros")
        store.add("att/v", (d_h,), init="scaled")

        if hp.dot_heads:
            store.add("dot/type_emb", (n_types, d_h), init="uniform")
            store.add("dot/quest_emb", (n_quest, d_h), init="uniform")
            store.add("dot/switch_W", (3, d_h), init="scaled")
            store.add("dot/switch_b", (3,), init="zeros")
        else:
            store.add("g1/W", (2 * d_h, 2 * d_h), init="scaled")
            store.add("g1/b", (2 * d_h,), init="zeros")
            store.add("g1/Wo", (n_types, d_h), init="scaled")
            store.add("g1/bo", (n_types,), init="zeros")
            store.add("g2/W", (2 * d_h, 3 * d_h), init="scaled")
            store.add("g2/b", (2 * d_h,), init="zeros")
            store.add("g2/Wo", (n_quest, d_h), init="scaled")
            store.add("g2/bo", (n_quest,), init="zeros")
            store.add("switch/W", (3, 2 * d_h + d_w), init="scaled")
            store.add("switch/b", (3,), init="zeros")

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

    def target_for_action(self, action, roots: Sequence[str]) -> StepTarget:
        if isinstance(action, Trans):
            return StepTarget(kind="tag", tag_idx=action.type.index)
        if isinstance(action, Copy):
            word = roots[action.index]
        elif isinstance(action, Quest):
            word = self.vocab.quest_word(action.word_id)
        else:
            raise ParseError(f"unknown action: {action!r}")
        positions = tuple(i for i, r in enumerate(roots) if r == word)
        resolved = self.vocab.quest_id(word) if self.vocab.has_quest_word(word) else None
        if isinstance(action, Quest):
            # The list route is always open for a list action, including the
            # unknown-word bucket.
            resolved = action.word_id
        return StepTarget(kind="word", word=word, copy_positions=positions,
                          quest_id=resolved)

    def prepare(self, example: EncodedExample) -> PreparedExample:
        roots = tuple(example.source_roots)
        word_ids = tuple(self.vocab.encoder_id(r) for r in roots)
        bio_ids, ner_ids, pos_ids = [], [], []
        for pos, ner, bio in example.source_features:
            bio_ids.append(tag_index(BIO_TAGS, bio))
            ner_ids.append(tag_index(self.ner_tags, ner))
            pos_ids.append(tag_index(self.pos_tags, pos))
        actions = list(example.target_actions) + [Quest(EOS_ID)]
        specs: list[tuple[str, int]] = [("word", SOS_ID)]
        for action in actions[:-1]:
            specs.append(self.input_spec_for_action(action, roots))
        targets = [self.target_for_action(a, roots) for a in actions]
        return PreparedExample(
            roots=roots,
            word_ids=word_ids,
            bio_ids=tuple(bio_ids),
            ner_ids=tuple(ner_ids),
            pos_ids=tuple(pos_ids),
            span=example.answer_span,
            input_specs=tuple(specs),
            targets=tuple(targets),
            reference=" ".join(example.reference_question),
        )

    # ------------------------------------------------------------------
    # Encoder.
    # ------------------------------------------------------------------

    def _input_dim(self) -> int:
        """Width of one encoder input row: word plus the three feature embeddings."""
        hp = self.hyper
        return hp.word_dim + hp.answer_feat_dim + hp.ner_feat_dim + hp.pos_feat_dim

    def _gru_forward(self, prefix: str, x: Array, h: Array):
        """One GRU update for a row ``x``, ``h`` or a (k, ·) batch of rows."""
        p = self.store
        az = x @ p[f"{prefix}/W_z"].T + h @ p[f"{prefix}/U_z"].T + p[f"{prefix}/b_z"]
        ar = x @ p[f"{prefix}/W_r"].T + h @ p[f"{prefix}/U_r"].T + p[f"{prefix}/b_r"]
        z = sigmoid(az)
        r = sigmoid(ar)
        rh = r * h
        an = x @ p[f"{prefix}/W_n"].T + rh @ p[f"{prefix}/U_n"].T + p[f"{prefix}/b_n"]
        n = np.tanh(an)
        h_new = z * h + (1.0 - z) * n
        cache = (x, h, z, r, rh, n)
        return h_new, cache

    def _gru_backward(self, prefix: str, dh_new: Array, cache, grads) -> tuple[Array, Array]:
        p = self.store
        x, h, z, r, rh, n = cache
        dz = dh_new * (h - n)
        dn = dh_new * (1.0 - z)
        dh = dh_new * z
        dan = dn * (1.0 - n * n)
        grads[f"{prefix}/W_n"] += np.outer(dan, x)
        grads[f"{prefix}/U_n"] += np.outer(dan, rh)
        grads[f"{prefix}/b_n"] += dan
        dx = p[f"{prefix}/W_n"].T @ dan
        drh = p[f"{prefix}/U_n"].T @ dan
        dr = drh * h
        dh += drh * r
        daz = dz * z * (1.0 - z)
        dar = dr * r * (1.0 - r)
        grads[f"{prefix}/W_z"] += np.outer(daz, x)
        grads[f"{prefix}/U_z"] += np.outer(daz, h)
        grads[f"{prefix}/b_z"] += daz
        dx += p[f"{prefix}/W_z"].T @ daz
        dh += p[f"{prefix}/U_z"].T @ daz
        grads[f"{prefix}/W_r"] += np.outer(dar, x)
        grads[f"{prefix}/U_r"] += np.outer(dar, h)
        grads[f"{prefix}/b_r"] += dar
        dx += p[f"{prefix}/W_r"].T @ dar
        dh += p[f"{prefix}/U_r"].T @ dar
        return dx, dh

    def encode(self, prep: PreparedExample, masks: Array | None = None) -> dict:
        """Run the bidirectional encoder; returns state plus backward caches."""
        p = self.store
        n = len(prep.roots)
        if n == 0:
            raise ShapeMismatch("encode", (0,))
        d_h = self.hyper.hidden_size
        X = np.empty((n, self._input_dim()), dtype=self.dtype)
        for i in range(n):
            X[i] = np.concatenate([
                p["emb/word"][prep.word_ids[i]],
                p["emb/bio"][prep.bio_ids[i]],
                p["emb/ner"][prep.ner_ids[i]],
                p["emb/pos"][prep.pos_ids[i]],
            ])
        if masks is not None:
            X = X * masks
        zero = np.zeros(d_h, dtype=self.dtype)
        fwd_states = np.empty((n, d_h), dtype=self.dtype)
        fwd_caches = []
        h = zero
        for i in range(n):
            h, cache = self._gru_forward("enc_fwd", X[i], h)
            fwd_states[i] = h
            fwd_caches.append(cache)
        bwd_states = np.empty((n, d_h), dtype=self.dtype)
        bwd_caches: list = [None] * n
        h = zero
        for i in range(n - 1, -1, -1):
            h, cache = self._gru_forward("enc_bwd", X[i], h)
            bwd_states[i] = h
            bwd_caches[i] = cache
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
            "fwd_caches": fwd_caches,
            "bwd_caches": bwd_caches,
            "dH": None,
            "dHA": None,
            "dv_answer": None,
            "ds0": None,
        }

    def _encoder_backward(self, enc: dict, grads) -> None:
        """Propagate accumulated dH / dv_answer / ds0 back to the embeddings."""
        p = self.store
        prep: PreparedExample = enc["prep"]
        n = len(prep.roots)
        dH = enc["dH"] if enc["dH"] is not None else np.zeros_like(enc["H"])
        dHA = enc["dHA"]
        if dHA is not None:
            grads["att/A"] += dHA.T @ enc["H"]
            dH = dH + dHA @ p["att/A"]
        if enc["dv_answer"] is not None:
            l, r = prep.span
            span_len = r - l + 1
            dH[l : r + 1] += enc["dv_answer"] / span_len
        dbwd0 = np.zeros(self.hyper.hidden_size, dtype=self.dtype)
        if enc["ds0"] is not None:
            da0 = enc["ds0"] * (1.0 - enc["s0"] * enc["s0"])
            grads["init/W"] += np.outer(da0, enc["bwd0"])
            grads["init/b"] += da0
            dbwd0 += p["init/W"].T @ da0
        dX = np.zeros((n, self._input_dim()), dtype=self.dtype)
        # Forward-direction GRU: reverse through time.
        carry = np.zeros(self.hyper.hidden_size, dtype=self.dtype)
        for i in range(n - 1, -1, -1):
            dx, carry = self._gru_backward("enc_fwd", dH[i] + carry,
                                           enc["fwd_caches"][i], grads)
            dX[i] += dx
        # Backward-direction GRU ran over tokens n-1..0, so its reverse pass
        # walks 0..n-1; its final state (at token 0) also feeds s0.
        carry = dbwd0
        for i in range(n):
            dx, carry = self._gru_backward("enc_bwd", dH[i] + carry,
                                           enc["bwd_caches"][i], grads)
            dX[i] += dx
        masks = enc["masks"]
        if masks is not None:
            dX = dX * masks
        hp = self.hyper
        ofs_bio = hp.word_dim
        ofs_ner = ofs_bio + hp.answer_feat_dim
        ofs_pos = ofs_ner + hp.ner_feat_dim
        for i in range(n):
            grads["emb/word"][prep.word_ids[i]] += dX[i, :ofs_bio]
            grads["emb/bio"][prep.bio_ids[i]] += dX[i, ofs_bio:ofs_ner]
            grads["emb/ner"][prep.ner_ids[i]] += dX[i, ofs_ner:ofs_pos]
            grads["emb/pos"][prep.pos_ids[i]] += dX[i, ofs_pos:]

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
        p = self.store
        w = self.input_embedding(input_spec)
        d_in = np.concatenate([w, c_prev], axis=-1)
        s, gru_cache = self._gru_forward("dec", d_in, s_prev)
        H = enc["H"]
        Q = np.tanh(enc["HA"] + (s @ p["att/B"].T + p["att/b"])[..., None, :])
        alpha = softmax(Q @ p["att/v"])
        c = alpha @ H
        state = {
            "input_spec": input_spec,
            "w": w,
            "gru_cache": gru_cache,
            "s": s,
            "Q": Q,
            "alpha": alpha,
            "c": c,
        }
        if self.hyper.dot_heads:
            state.update({
                "p_copy": softmax(s @ H.T),
                "p_trans": softmax(s @ p["dot/type_emb"].T),
                "p_quest": softmax(s @ p["dot/quest_emb"].T),
                "switch": softmax(s @ p["dot/switch_W"].T + p["dot/switch_b"]),
            })
        else:
            u1 = np.concatenate([s, c], axis=-1)
            m1, max1 = maxout_affine(p["g1/W"], p["g1/b"], u1)
            v_answer = np.broadcast_to(enc["v_answer"], s.shape)
            u2 = np.concatenate([v_answer, s, c], axis=-1)
            m2, max2 = maxout_affine(p["g2/W"], p["g2/b"], u2)
            u3 = np.concatenate([c, s, w], axis=-1)
            state.update({
                "p_copy": alpha,
                "p_trans": softmax(m1 @ p["g1/Wo"].T + p["g1/bo"]),
                "p_quest": softmax(m2 @ p["g2/Wo"].T + p["g2/bo"]),
                "switch": softmax(u3 @ p["switch/W"].T + p["switch/b"]),
                "u1": u1, "m1": m1, "max1": max1,
                "u2": u2, "m2": m2, "max2": max2,
                "u3": u3,
            })
        return state

    def _step_backward(self, enc: dict, state: dict,
                       d_alpha_direct: Array | None,
                       d_p_copy: Array | None,
                       d_p_trans: Array | None,
                       d_p_quest: Array | None,
                       d_switch: Array | None,
                       ds_carry: Array,
                       dc_carry: Array,
                       grads) -> tuple[Array, Array]:
        """Backward through one decoder step.

        Returns (ds_prev, dc_prev): gradients for the previous state and the
        previous context vector (the latter entered this step's GRU input).
        """
        p = self.store
        H = enc["H"]
        s = state["s"]
        alpha = state["alpha"]
        ds = ds_carry.copy()
        dc = dc_carry.copy()
        dw = np.zeros_like(state["w"])
        dalpha = np.zeros_like(alpha)
        if d_alpha_direct is not None:
            dalpha += d_alpha_direct

        if self.hyper.dot_heads:
            if d_switch is not None:
                dlog = softmax_backward(state["switch"], d_switch)
                grads["dot/switch_W"] += np.outer(dlog, s)
                grads["dot/switch_b"] += dlog
                ds += p["dot/switch_W"].T @ dlog
            if d_p_quest is not None:
                dlog = softmax_backward(state["p_quest"], d_p_quest)
                grads["dot/quest_emb"] += np.outer(dlog, s)
                ds += p["dot/quest_emb"].T @ dlog
            if d_p_trans is not None:
                dlog = softmax_backward(state["p_trans"], d_p_trans)
                grads["dot/type_emb"] += np.outer(dlog, s)
                ds += p["dot/type_emb"].T @ dlog
            if d_p_copy is not None:
                dlog = softmax_backward(state["p_copy"], d_p_copy)
                self._add_dH(enc, np.outer(dlog, s))
                ds += H.T @ dlog
        else:
            d_h = self.hyper.hidden_size
            if d_switch is not None:
                dlog = softmax_backward(state["switch"], d_switch)
                grads["switch/W"] += np.outer(dlog, state["u3"])
                grads["switch/b"] += dlog
                du3 = p["switch/W"].T @ dlog
                dc += du3[:d_h]
                ds += du3[d_h : 2 * d_h]
                dw += du3[2 * d_h :]
            if d_p_quest is not None:
                dlog = softmax_backward(state["p_quest"], d_p_quest)
                grads["g2/Wo"] += np.outer(dlog, state["m2"])
                grads["g2/bo"] += dlog
                dm = p["g2/Wo"].T @ dlog
                da = maxout_affine_backward(state["max2"], dm)
                grads["g2/W"] += np.outer(da, state["u2"])
                grads["g2/b"] += da
                du2 = p["g2/W"].T @ da
                self._add_dv(enc, du2[:d_h])
                ds += du2[d_h : 2 * d_h]
                dc += du2[2 * d_h :]
            if d_p_trans is not None:
                dlog = softmax_backward(state["p_trans"], d_p_trans)
                grads["g1/Wo"] += np.outer(dlog, state["m1"])
                grads["g1/bo"] += dlog
                dm = p["g1/Wo"].T @ dlog
                da = maxout_affine_backward(state["max1"], dm)
                grads["g1/W"] += np.outer(da, state["u1"])
                grads["g1/b"] += da
                du1 = p["g1/W"].T @ da
                ds += du1[:d_h]
                dc += du1[d_h:]
            if d_p_copy is not None:
                # In the additive regime the copy distribution IS alpha.
                dalpha += d_p_copy

        # Context vector: c = H^T alpha.
        dalpha += H @ dc
        self._add_dH(enc, np.outer(alpha, dc))
        # Attention softmax and scoring.
        de = softmax_backward(alpha, dalpha)
        Q = state["Q"]
        dQ = np.outer(de, p["att/v"]) * (1.0 - Q * Q)
        grads["att/v"] += Q.T @ de
        self._add_dHA(enc, dQ)
        dq_sum = dQ.sum(axis=0)
        grads["att/B"] += np.outer(dq_sum, s)
        grads["att/b"] += dq_sum
        ds += p["att/B"].T @ dq_sum
        # Decoder GRU.
        dd_in, ds_prev = self._gru_backward("dec", ds, state["gru_cache"], grads)
        d_w_dim = self.hyper.word_dim
        dw += dd_in[:d_w_dim]
        dc_prev = dd_in[d_w_dim:]
        kind, idx = state["input_spec"]
        table = "emb/word" if kind == "word" else "emb/trans"
        grads[table][idx] += dw
        return ds_prev, dc_prev

    def _add_dH(self, enc: dict, delta: Array) -> None:
        if enc["dH"] is None:
            enc["dH"] = np.zeros_like(enc["H"])
        enc["dH"] += delta

    def _add_dHA(self, enc: dict, delta: Array) -> None:
        if enc["dHA"] is None:
            enc["dHA"] = np.zeros_like(enc["HA"])
        enc["dHA"] += delta

    def _add_dv(self, enc: dict, delta: Array) -> None:
        if enc["dv_answer"] is None:
            enc["dv_answer"] = np.zeros_like(enc["v_answer"])
        enc["dv_answer"] += delta

    # ------------------------------------------------------------------
    # Loss.
    # ------------------------------------------------------------------

    def target_probability(self, state: dict, target: StepTarget) -> float:
        """Marginalised probability of the supervised outcome at one step."""
        switch = state["switch"]
        if target.kind == "tag":
            return float(switch[SW_TRANS] * state["p_trans"][target.tag_idx])
        prob = 0.0
        if target.copy_positions:
            copy_mass = float(np.sum(state["p_copy"][list(target.copy_positions)]))
            prob += float(switch[SW_COPY]) * copy_mass
        if target.quest_id is not None:
            prob += float(switch[SW_QUEST]) * float(state["p_quest"][target.quest_id])
        return prob

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
            s = enc["s0"]
            c = np.zeros(self.hyper.hidden_size, dtype=self.dtype)
            states = []
            probs = []
            for spec, target in zip(prep.input_specs, prep.targets):
                state = self.step(enc, s, c, spec)
                states.append(state)
                prob = self.target_probability(state, target)
                if not (math.isfinite(prob) and prob > 0.0):
                    raise DivergenceError(
                        f"target probability {prob!r} at decoder step "
                        f"{len(states)} is not a positive finite number")
                probs.append(prob)
                s, c = state["s"], state["c"]
            step_losses = [-math.log(p) for p in probs]
            total += sum(step_losses)
            tokens += len(step_losses)
            if grads is None:
                continue
            ds_carry = np.zeros(self.hyper.hidden_size, dtype=self.dtype)
            dc_carry = np.zeros(self.hyper.hidden_size, dtype=self.dtype)
            for t in range(len(states) - 1, -1, -1):
                state = states[t]
                target = prep.targets[t]
                dP = self.dtype(-1.0 / probs[t])
                switch = state["switch"]
                d_alpha_direct = None
                d_p_copy = None
                d_p_trans = None
                d_p_quest = None
                d_switch = np.zeros(3, dtype=self.dtype)
                if target.kind == "tag":
                    d_switch[SW_TRANS] = dP * state["p_trans"][target.tag_idx]
                    d_p_trans = np.zeros_like(state["p_trans"])
                    d_p_trans[target.tag_idx] = dP * switch[SW_TRANS]
                else:
                    if target.copy_positions:
                        pos = list(target.copy_positions)
                        copy_mass = float(np.sum(state["p_copy"][pos]))
                        d_switch[SW_COPY] = dP * copy_mass
                        d_copy_vec = np.zeros_like(state["p_copy"])
                        d_copy_vec[pos] = dP * switch[SW_COPY]
                        if self.hyper.dot_heads:
                            d_p_copy = d_copy_vec
                        else:
                            d_alpha_direct = d_copy_vec
                    if target.quest_id is not None:
                        d_switch[SW_QUEST] = dP * state["p_quest"][target.quest_id]
                        d_p_quest = np.zeros_like(state["p_quest"])
                        d_p_quest[target.quest_id] = dP * switch[SW_QUEST]
                ds_carry, dc_carry = self._step_backward(
                    enc, state, d_alpha_direct, d_p_copy, d_p_trans, d_p_quest,
                    d_switch, ds_carry, dc_carry, grads,
                )
            enc["ds0"] = ds_carry
            self._encoder_backward(enc, grads)
        return total, tokens

    def loss_only(self, prepared: Sequence[PreparedExample],
                  masks_list: Sequence[Array | None] | None = None) -> float:
        loss, _ = self.loss_and_grads(prepared, grads=None, masks_list=masks_list)
        return loss

    # ------------------------------------------------------------------
    # Outcome mass: the one mixing of the three routes, used by decoding
    # and the probability-mass checks.
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
        return OutcomeColumns(
            words=tuple(col_of),
            positions=tuple(np.array(pos, dtype=np.intp) for pos in positions),
            quest_ids=tuple(quest_ids),
            route_col=np.array(route_col, dtype=np.intp),
        )

    def outcome_mass(self, state: dict, columns: OutcomeColumns) -> Array:
        """Float64 probability of every surface outcome, shape (k, columns)
        for a batched state or (columns,) for one row.

        A word's mass adds, in float64 and in this order, the copy mass of
        each source position holding it and then its list-word mass; every
        route's mass is the switch weight times the head probability, a
        product taken in the model dtype.  Each unit of switch mass lands
        in exactly one column, so a row sums to 1 up to rounding.
        """
        switch = state["switch"]
        routes = np.concatenate([switch[..., SW_COPY, None] * state["p_copy"],
                                 switch[..., SW_QUEST, None] * state["p_quest"]],
                                axis=-1).astype(np.float64)
        n_words = len(columns.words)
        # Column-major, so the scatter-add indexes the first axis.
        mass = np.zeros((n_words + len(ALL_TYPES),) + switch.shape[:-1])
        np.add.at(mass, columns.route_col, routes.T)
        mass[n_words:] = (switch[..., SW_TRANS, None] * state["p_trans"]).T
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

    def sidecar(self, extra: Mapping[str, object] | None = None) -> dict:
        meta = {
            "format": "wt-dot" if self.hyper.dot_heads else "wt-additive",
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
        model = cls(hyper, vocab, pos_tags=meta["pos_tags"],
                    ner_tags=meta["ner_tags"], init_seed=init_seed)
        weights = load_checkpoint(path)
        if set(weights) != set(model.store.names()):
            raise ParseError("checkpoint tensors do not match the model shape")
        for name, arr in weights.items():
            if arr.shape != model.store[name].shape:
                raise ShapeMismatch("load", arr.shape, model.store[name].shape)
            model.store[name] = arr
        return model
