"""Golden checkpoints: decoding bytes pinned across changes to the model.

``tests/data/golden`` holds one small trained checkpoint per head design,
with its sidecar, the vocabularies, a 12-record corpus and the questions
that ``morphoqg generate`` wrote for it at beams 1, 4 and 12 when the
checkpoint was made (``tests/data/golden/README.md`` gives the recipe).
Any change to the forward pass that moves a float32 bit a decision rests
on shows here as a changed question.  A change that moves forward bits
on purpose regenerates these files and says so.
"""

from pathlib import Path

import pytest

from morphoqg import cli

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("beam", [1, 4, 12])
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
