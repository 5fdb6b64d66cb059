"""Golden checkpoints: decoding bytes pinned across changes to the model.

``tests/data/golden`` holds one small trained checkpoint per head design,
with its sidecar, the vocabularies, a 12-record corpus and the questions
that ``morphoqg generate`` wrote for it at beams 1, 4, 12 and 64 when the
checkpoint was made (``tests/data/golden/README.md`` gives the recipe).
Beam 64 is wider than a hidden-16 model's candidates at the first step,
so it runs the search both with and without its partition cut.
Any change to the forward pass that moves a float32 bit a decision rests
on shows here as a changed question.  A change that moves forward bits
on purpose regenerates these files and says so.

The encoder's bytes are pinned too: the recipe's ``encode --split`` must
write the train and dev files whose SHA-256 ``tests/data/golden/encode.sha256``
holds.  Training bits are pinned as well: the same recipe's models,
trained once with dropout and once with a clip norm that clips, must end
on the weights whose SHA-256 ``tests/data/golden/train.sha256`` holds, as
``store.flat`` and as the checkpoint's bytes.  A change that moves
encoded or training bits on purpose updates those hashes and says so.
"""

import hashlib
from pathlib import Path

import pytest

from morphoqg import cli
from morphoqg.codec import Vocab, dump_corpus_jsonl
from morphoqg.model import EncoderDecoder
from morphoqg.toydata import make_corpus

GOLDEN = Path(__file__).parent / "data" / "golden"

# The golden recipe's training flags (tests/data/golden/README.md), and the
# two variants whose final weights are pinned.
TRAIN_FLAGS = ("--steps", "30", "--learning-rate", "0.01", "--hidden", "16", "--word-dim", "8",
               "--feat-dim", "4", "--batch-size", "4", "--eval-every", "5", "--quiet")
TRAIN_VARIANTS = {"dropout": ("--dropout", "0.3"),
                  "clip": ("--dropout", "0", "--clip-norm", "0.5")}


@pytest.mark.parametrize("beam", [1, 4, 12, 64])
@pytest.mark.parametrize("heads", ["additive", "dot"])
def test_golden_checkpoint_decodes_its_questions(tmp_path, heads, beam):
    out = tmp_path / "questions.txt"
    code = cli.main(["generate", "--input", str(GOLDEN / "corpus.jsonl"),
                     "--model", str(GOLDEN / f"{heads}.ckpt"),
                     "--encoder-vocab", str(GOLDEN / "enc.vocab"),
                     "--quest-vocab", str(GOLDEN / "q.vocab"),
                     "--out", str(out), "--timing-out", str(tmp_path / "timing.json"),
                     "--beam", str(beam)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{heads}.b{beam}.txt").read_bytes()


def test_golden_questions_differ_by_beam_and_design():
    """The pinned files are not all one text, so they can see a change in
    the beam's ranking as well as in the greedy path."""
    texts = {path.read_bytes() for path in GOLDEN.glob("*.b*.txt")}
    assert len(texts) >= 4


def pinned_hashes(name: str = "train.sha256") -> dict[str, str]:
    """A ``sha256sum -c`` file in ``tests/data/golden``: name to hex digest."""
    lines = (GOLDEN / name).read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


@pytest.fixture(scope="module")
def encoded(tmp_path_factory):
    """The golden recipe's encoded train and dev splits, from its vocabularies."""
    root = tmp_path_factory.mktemp("golden-train")
    dump_corpus_jsonl(make_corpus(40, seed=1), str(root / "train_corpus.jsonl"))
    assert cli.main(["encode", "--input", str(root / "train_corpus.jsonl"),
                     "--out", str(root / "encoded.jsonl"), "--split", "0.8,0.2",
                     "--encoder-vocab", str(GOLDEN / "enc.vocab"),
                     "--quest-vocab", str(GOLDEN / "q.vocab")]) == 0
    return root


def test_encoding_writes_pinned_bytes(encoded):
    pinned = pinned_hashes("encode.sha256")
    assert sorted(pinned) == ["encoded.dev.jsonl", "encoded.train.jsonl"]
    for name, digest in pinned.items():
        assert hashlib.sha256((encoded / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("variant", sorted(TRAIN_VARIANTS))
@pytest.mark.parametrize("heads", ["additive", "dot"])
def test_training_ends_on_pinned_weights(encoded, heads, variant):
    path = encoded / f"{heads}.{variant}.ckpt"
    code = cli.main(["train", "--input", str(encoded / "encoded.train.jsonl"),
                     "--dev", str(encoded / "encoded.dev.jsonl"),
                     "--encoder-vocab", str(GOLDEN / "enc.vocab"),
                     "--quest-vocab", str(GOLDEN / "q.vocab"), "--model-out", str(path),
                     *TRAIN_FLAGS, *TRAIN_VARIANTS[variant],
                     *(["--dot-heads"] if heads == "dot" else [])])
    assert code == 0
    model = EncoderDecoder.load(str(path), Vocab.load(str(GOLDEN / "enc.vocab"),
                                                      str(GOLDEN / "q.vocab")))
    pinned = pinned_hashes()
    assert hashlib.sha256(model.store.flat.tobytes()).hexdigest() == pinned[f"{path.stem}.flat"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned[path.name]
