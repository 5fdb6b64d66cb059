"""Tests for the command-line front end.

Contract under test: fixed exit codes (0 ok, 1 usage, 2 data, 3 runtime),
byte-identical outputs for encode/build-vocab/train/generate under a
fixed seed, config-file defaults that command-line flags override, and
$MORPHOQG_DATA-relative path resolution.

Commands run in-process through ``cli.main`` so exit codes and streams
can be asserted without subprocesses.
"""

import dataclasses
import inspect
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morphoqg import cli
from morphoqg.bench import bench_decode
from morphoqg.codec import (Vocab, build_vocabs, dump_corpus_jsonl, encode_example,
                            load_corpus_jsonl, load_encoded_jsonl, realize)
from morphoqg.errors import FileError
from morphoqg.model import EncoderDecoder, HyperParams
from morphoqg.morphology import POS_TAG_TO_TYPE, TRANS_TAGS, default_morphology
from morphoqg.toydata import make_corpus
from morphoqg.train import TrainConfig
from test_model import reference_beam_search

SUBCOMMANDS = ("analyze-vocab", "encode", "decode", "build-vocab", "train",
               "generate", "score", "bench", "selftest")


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A toy corpus plus vocab and encoded files built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    dump_corpus_jsonl(make_corpus(30, seed=1), str(corpus))
    assert run("build-vocab", "--input", str(corpus),
               "--encoder-out", str(root / "enc.vocab"),
               "--quest-out", str(root / "q.vocab")) == 0
    assert run("encode", "--input", str(corpus),
               "--out", str(root / "encoded.jsonl"),
               "--encoder-vocab", str(root / "enc.vocab"),
               "--quest-vocab", str(root / "q.vocab")) == 0
    return root


@pytest.fixture(scope="module")
def trained(workdir):
    """A tiny checkpoint trained through the CLI (few steps, small dims)."""
    args = ("train", "--input", str(workdir / "encoded.jsonl"),
            "--encoder-vocab", str(workdir / "enc.vocab"),
            "--quest-vocab", str(workdir / "q.vocab"),
            "--model-out", str(workdir / "model.ckpt"),
            "--steps", "12", "--hidden", "8", "--word-dim", "8",
            "--feat-dim", "3", "--batch-size", "8", "--eval-every", "6",
            "--quiet")
    assert run(*args) == 0
    return workdir / "model.ckpt", args


@pytest.fixture(scope="module", params=["", "--dot-heads"])
def fitted(workdir, request):
    """A checkpoint of each head design trained long enough for its
    questions to end well before the length limit."""
    path = workdir / f"fitted{request.param}.ckpt"
    assert run("train", "--input", str(workdir / "encoded.jsonl"),
               "--encoder-vocab", str(workdir / "enc.vocab"),
               "--quest-vocab", str(workdir / "q.vocab"),
               "--model-out", str(path), "--steps", "60", "--hidden", "16",
               "--word-dim", "8", "--feat-dim", "3", "--batch-size", "8",
               "--learning-rate", "0.01", "--dropout", "0", "--eval-every", "60",
               "--quiet", *([request.param] if request.param else [])) == 0
    return path


class TestUsage:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help_exits_zero(self, name, capsys):
        assert run(name, "--help") == 0
        assert "--help" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        assert run("--help") == 0
        out = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in out

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run() == 1
        assert "SUBCOMMAND" in capsys.readouterr().err

    def test_unknown_flag_named_in_message(self, capsys):
        assert run("selftest", "--frobnicate") == 1
        assert "--frobnicate" in capsys.readouterr().err

    def test_bad_flag_value_named_in_message(self, workdir, capsys):
        assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                   "--out", "x", "--cutoff", "minus-three") == 1
        assert "--cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize("ratios", ["0.5", "0.5,0.6", "1,2,3,4", "a,b"])
    def test_bad_split_is_usage_error(self, workdir, ratios, capsys):
        assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                   "--out", "x", "--split", ratios) == 1
        assert "--split" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["1.0", "1.5", "-0.1", "nan"])
    def test_bad_dropout_is_usage_error(self, workdir, tmp_path, rate, capsys):
        assert run("train", "--input", str(workdir / "encoded.jsonl"),
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab"),
                   "--model-out", str(tmp_path / "m.ckpt"),
                   "--steps", "1", "--hidden", "8", "--word-dim", "8",
                   "--feat-dim", "3", "--quiet", "--dropout", rate) == 1
        assert "--dropout" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--learning-rate", "0"), ("--learning-rate", "-1"),
        ("--learning-rate", "nan"), ("--learning-rate", "inf"),
        ("--clip-norm", "-1"), ("--clip-norm", "nan"), ("--clip-norm", "inf"),
    ])
    def test_bad_optimiser_value_is_usage_error(self, workdir, tmp_path, flag, value,
                                                capsys):
        assert run("train", "--input", str(workdir / "encoded.jsonl"),
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab"),
                   "--model-out", str(tmp_path / "m.ckpt"),
                   "--steps", "1", "--hidden", "8", "--word-dim", "8",
                   "--feat-dim", "3", "--quiet", f"{flag}={value}") == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("flag,extra", [
        ("--beam", ("--beam", "0")),
        ("--beam", ("--beam", "-3")),
        ("--beam", ("--beam", "2.5")),
        ("--quest-size", ("--quest-size", "3")),
        ("--warmup", ("--warmup", "-1")),
        ("--vocab-size", ("--vocab-size", "3", "--beam", "2")),
    ])
    def test_bad_bench_value_is_usage_error(self, tmp_path, flag, extra, capsys):
        assert run("bench", "--hidden", "8", "--source-window", "8",
                   "--quest-size", "16", "--steps", "1",
                   "--out", str(tmp_path / "bench.json"), *extra) == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "bench.json").exists()

    def test_zero_clip_norm_means_no_clipping(self, workdir, tmp_path):
        assert run("train", "--input", str(workdir / "encoded.jsonl"),
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab"),
                   "--model-out", str(tmp_path / "m.ckpt"),
                   "--steps", "1", "--hidden", "8", "--word-dim", "8",
                   "--feat-dim", "3", "--quiet", "--clip-norm", "0") == 0

    def test_vocab_flags_must_come_together(self, workdir, capsys):
        assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                   "--out", str(workdir / "half.jsonl"),
                   "--encoder-vocab", str(workdir / "enc.vocab")) == 1
        assert "--quest-vocab" in capsys.readouterr().err


def parsed_defaults(name, *required):
    """The parsed arguments of subcommand ``name`` given only ``required``."""
    parser, _ = cli._build_parser()
    return vars(parser.parse_args([name, *required]))


def signature_defaults(func, *names):
    params = inspect.signature(func).parameters
    return {name: params[name].default for name in names}


class TestFlagDefaults:
    """Property: a flag's default is the default of what it sets, read from
    the dataclass or function that defines it."""

    def test_train_flags_default_to_hyperparams_and_train_config(self):
        args = parsed_defaults("train", "--input", "e", "--encoder-vocab", "v",
                               "--quest-vocab", "q", "--model-out", "m")
        # The mapping of cmd_train.
        assert HyperParams(
            word_dim=args["word_dim"], answer_feat_dim=args["feat_dim"],
            ner_feat_dim=args["feat_dim"], pos_feat_dim=args["feat_dim"],
            hidden_size=args["hidden"], dropout_rate=args["dropout"],
            learning_rate=args["learning_rate"], batch_size=args["batch_size"],
            source_cutoff=args["cutoff"], beam_size=args["beam"],
            max_decode_len=args["max_decode_len"], dot_heads=args["dot_heads"],
        ) == HyperParams()
        assert TrainConfig(
            max_steps=args["steps"], batch_size=args["batch_size"],
            learning_rate=args["learning_rate"], clip_norm=args["clip_norm"],
            seed=args["seed"], eval_every=args["eval_every"],
        ) == TrainConfig()

    def test_bench_flags_default_to_bench_decode(self):
        args = parsed_defaults("bench")
        want = signature_defaults(bench_decode, "hidden", "vocab_size", "source_window",
                                  "quest_size", "beam", "steps", "warmup")
        assert {name: args[name] for name in want} == want

    def test_encode_and_build_vocab_flags_default_to_the_codec(self):
        args = parsed_defaults("encode", "--input", "c", "--out", "o")
        want = signature_defaults(encode_example, "cutoff", "truncate")
        assert {name: args[name] for name in want} == want
        args = parsed_defaults("build-vocab", "--input", "c", "--encoder-out", "v",
                               "--quest-out", "q")
        want = signature_defaults(build_vocabs, "encoder_cap", "quest_cap")
        assert {name: args[name] for name in want} == want


class TestExitCodes:
    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        assert run("score", "--candidates", str(tmp_path / "nope.txt"),
                   "--references", str(tmp_path / "nope.txt")) == 2
        assert "data error" in capsys.readouterr().err

    def test_length_mismatch_is_data_error(self, tmp_path):
        (tmp_path / "c.txt").write_text("one\ntwo\n")
        (tmp_path / "r.txt").write_text("one\n")
        assert run("score", "--candidates", str(tmp_path / "c.txt"),
                   "--references", str(tmp_path / "r.txt")) == 2

    def test_cutoff_violation_is_data_error(self, workdir, tmp_path):
        assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                   "--out", str(tmp_path / "x.jsonl"), "--cutoff", "3") == 2

    @pytest.mark.parametrize("content", [None, b"<pad>\n\xff\xfe\n"])
    def test_unreadable_vocab_is_data_error(self, workdir, tmp_path, content,
                                            capsys):
        vocab = tmp_path / "bad.vocab"
        if content is not None:
            vocab.write_bytes(content)
        assert run("decode", "--input", str(workdir / "encoded.jsonl"),
                   "--encoder-vocab", str(vocab),
                   "--quest-vocab", str(workdir / "q.vocab")) == 2
        err = capsys.readouterr().err
        assert "bad.vocab" in err and "Traceback" not in err

    def test_unwritable_vocab_is_data_error(self, workdir, tmp_path, capsys):
        assert run("build-vocab", "--input", str(workdir / "corpus.jsonl"),
                   "--encoder-out", str(tmp_path / "no-dir" / "e.vocab"),
                   "--quest-out", str(tmp_path / "q.vocab")) == 2
        err = capsys.readouterr().err
        assert "e.vocab" in err and "Traceback" not in err

    def test_missing_input_is_data_error(self, workdir, tmp_path, capsys):
        assert run("decode", "--input", str(tmp_path / "missing.jsonl"),
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab")) == 2
        err = capsys.readouterr().err
        assert "missing.jsonl" in err and "Traceback" not in err

    def test_unwritable_out_is_data_error(self, workdir, tmp_path, capsys):
        assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                   "--out", str(tmp_path / "no-dir" / "x.jsonl")) == 2
        err = capsys.readouterr().err
        assert "x.jsonl" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["decode", "generate", "score",
                                         "analyze-vocab", "config"])
    def test_non_utf8_input_is_data_error(self, workdir, trained, tmp_path, command,
                                          capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"tokens": ["\xff"]}\n')
        vocabs = ["--encoder-vocab", str(workdir / "enc.vocab"),
                  "--quest-vocab", str(workdir / "q.vocab")]
        argv = {
            "decode": ["decode", "--input", str(bad), *vocabs],
            "generate": ["generate", "--input", str(bad), *vocabs,
                         "--model", str(trained[0]), "--out", str(tmp_path / "q.txt")],
            "score": ["score", "--candidates", str(bad),
                      "--references", str(workdir / "enc.vocab")],
            "analyze-vocab": ["analyze-vocab", str(bad)],
            "config": ["analyze-vocab", str(workdir / "enc.vocab"),
                       "--config", str(bad)],
        }[command]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "bad.jsonl" in err and "Traceback" not in err

    @pytest.mark.parametrize("command,key,index,value", [
        ("build-vocab", "tokens", 1, 7),
        ("encode", "tokens", 1, None),
        ("generate", "question_pos", 1, ["VBD"]),
        ("build-vocab", "tokens", 1, "\ud800"),
        ("decode", "source_roots", 1, 3),
        ("train", "actions", None, [{"kind": "copy", "index": 99}]),
        ("train", "pos", None, ["NNP"]),
        ("train", "answer_span", None, [2, 9]),
        ("build-vocab", "answer_start", None, 0.9),
        ("encode", "answer_end", None, "0"),
        ("train", "answer_span", None, [True, 1.99]),
        ("train", "actions", 1, {"kind": "copy", "index": "1"}),
        ("decode", "actions", 0, {"kind": "quest", "id": 10.0}),
        ("build-vocab", "tokens", 1, "a\nb"),
        ("build-vocab", "question", 1, "a\u2028b"),
    ], ids=["build-vocab-int-token", "encode-null-token", "generate-list-pos",
            "build-vocab-unencodable-token", "decode-int-root", "train-copy-index",
            "train-short-pos", "train-span", "build-vocab-float-start",
            "encode-string-end", "train-bool-float-span", "train-string-copy-index",
            "decode-float-word-id", "build-vocab-newline-token",
            "build-vocab-line-separator-question"])
    def test_bad_record_is_data_error(self, workdir, trained, tmp_path, command,
                                      key, index, value, capsys):
        """The second record of the input has ``value`` in field ``key``
        (at ``index`` of it, when that is given)."""
        corpus_input = command in ("build-vocab", "encode", "generate")
        source = workdir / ("corpus.jsonl" if corpus_input else "encoded.jsonl")
        lines = source.read_text(encoding="utf-8").splitlines()[:3]
        obj = json.loads(lines[1])
        if index is None:
            obj[key] = value
        else:
            obj[key][index] = value
        lines[1] = json.dumps(obj)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        vocabs = ["--encoder-vocab", str(workdir / "enc.vocab"),
                  "--quest-vocab", str(workdir / "q.vocab")]
        argv = {
            "build-vocab": ["--encoder-out", str(tmp_path / "e.vocab"),
                            "--quest-out", str(tmp_path / "q.vocab")],
            "encode": ["--out", str(tmp_path / "x.jsonl")],
            "generate": [*vocabs, "--model", str(trained[0]),
                         "--out", str(tmp_path / "q.txt")],
            "decode": [*vocabs, "--out", str(tmp_path / "q.txt")],
            "train": [*vocabs, "--model-out", str(tmp_path / "m.ckpt"),
                      "--steps", "1", "--hidden", "8", "--word-dim", "8",
                      "--feat-dim", "3", "--quiet"],
        }[command]
        assert run(command, "--input", str(bad), *argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if value == "\ud800":
            pass  # refused when the vocabulary is written, not on one line
        elif isinstance(value, str) and key in ("tokens", "question"):
            assert repr(value) in err  # refused when the vocabulary is built
        else:
            assert "line 2" in err and key in err

    @pytest.mark.parametrize("hidden", [9, -1])
    def test_sidecar_shape_mismatch_is_data_error(self, workdir, trained, tmp_path,
                                                  hidden, capsys):
        """A sidecar whose hidden size does not fit the tensor pack; one
        below 1 is refused by name before the pack is read."""
        model = tmp_path / "model.ckpt"
        model.write_bytes(trained[0].read_bytes())
        meta = json.loads(trained[0].with_suffix(".ckpt.json").read_text(encoding="utf-8"))
        meta["hyperparams"]["hidden_size"] = hidden
        (tmp_path / "model.ckpt.json").write_text(json.dumps(meta), encoding="utf-8")
        assert run("generate", "--input", str(workdir / "corpus.jsonl"),
                   "--model", str(model),
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab"),
                   "--out", str(tmp_path / "q.txt")) == 2
        err = capsys.readouterr().err
        named = "'enc_fwd/W_z'" if hidden > 0 else "'hidden_size'"
        assert named in err and "Traceback" not in err

    def test_out_of_vocab_action_is_runtime_error(self, workdir, tmp_path,
                                                  capsys):
        lines = (workdir / "encoded.jsonl").read_text().splitlines()
        obj = json.loads(lines[0])
        obj["actions"][0] = {"kind": "quest", "id": 99999}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(obj) + "\n")
        assert run("decode", "--input", str(bad),
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab")) == 3
        assert "runtime error" in capsys.readouterr().err


class TestEncodePipeline:
    def test_decode_recovers_reference_questions(self, workdir, capsys):
        assert run("decode", "--input", str(workdir / "encoded.jsonl"),
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab")) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = [" ".join(ex.question) for ex in make_corpus(30, seed=1)]
        assert lines == expected

    def test_encode_reruns_are_byte_identical(self, workdir, tmp_path):
        out = tmp_path / "again.jsonl"
        for _ in range(2):
            assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                       "--out", str(out),
                       "--encoder-vocab", str(workdir / "enc.vocab"),
                       "--quest-vocab", str(workdir / "q.vocab")) == 0
            if not hasattr(self, "_first"):
                self._first = out.read_bytes()
        assert out.read_bytes() == self._first
        assert out.read_bytes() == (workdir / "encoded.jsonl").read_bytes()

    def test_parallel_encode_matches_serial(self, workdir, tmp_path):
        out = tmp_path / "jobs.jsonl"
        assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                   "--out", str(out), "--jobs", "3",
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab")) == 0
        assert out.read_bytes() == (workdir / "encoded.jsonl").read_bytes()

    def test_encode_builds_vocab_when_not_given(self, workdir, tmp_path):
        out = tmp_path / "self.jsonl"
        assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                   "--out", str(out)) == 0
        assert len(load_encoded_jsonl(str(out))) == 30

    def test_build_vocab_rerun_is_byte_identical(self, workdir, tmp_path):
        assert run("build-vocab", "--input", str(workdir / "corpus.jsonl"),
                   "--encoder-out", str(tmp_path / "e.vocab"),
                   "--quest-out", str(tmp_path / "q.vocab")) == 0
        assert ((tmp_path / "e.vocab").read_bytes()
                == (workdir / "enc.vocab").read_bytes())
        assert ((tmp_path / "q.vocab").read_bytes()
                == (workdir / "q.vocab").read_bytes())

    def test_split_partitions_the_corpus(self, workdir, tmp_path):
        out = tmp_path / "part.jsonl"
        assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                   "--out", str(out), "--split", "0.8,0.1,0.1",
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab")) == 0
        parts = {name: load_encoded_jsonl(str(tmp_path / f"part.{name}.jsonl"))
                 for name in ("train", "dev", "test")}
        assert [len(parts[n]) for n in ("train", "dev", "test")] == [24, 3, 3]
        pooled = sorted(" ".join(ex.reference_question)
                        for group in parts.values() for ex in group)
        full = sorted(" ".join(ex.reference_question)
                      for ex in load_encoded_jsonl(str(workdir / "encoded.jsonl")))
        assert pooled == full

    def test_split_is_seeded(self, workdir, tmp_path):
        outs = []
        for seed, name in (("5", "a"), ("5", "b"), ("9", "c")):
            out = tmp_path / f"{name}.jsonl"
            assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                       "--out", str(out), "--split", "0.5,0.5",
                       "--seed", seed,
                       "--encoder-vocab", str(workdir / "enc.vocab"),
                       "--quest-vocab", str(workdir / "q.vocab")) == 0
            outs.append((tmp_path / f"{name}.train.jsonl").read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]


class TestTrainGenerate:
    def test_checkpoint_and_sidecar_written(self, trained):
        model, _args = trained
        assert model.exists()
        sidecar = json.loads((model.parent / "model.ckpt.json").read_text())
        assert sidecar["train_steps"] == 12
        assert sidecar["final_train_loss"] > 0.0
        assert "best_eval_loss" not in sidecar

    @pytest.mark.parametrize("dot_heads", [False, True])
    def test_train_rerun_is_byte_identical(self, trained, tmp_path, dot_heads):
        model, args = trained
        if dot_heads:
            model = tmp_path / "dot.ckpt"
            args = [a if a != str(trained[0]) else str(model) for a in args]
            args.append("--dot-heads")
            assert run(*args) == 0
            assert model.read_bytes() != trained[0].read_bytes()
        redo = [a if a != str(model) else str(tmp_path / "redo.ckpt")
                for a in args]
        assert run(*redo) == 0
        assert (tmp_path / "redo.ckpt").read_bytes() == model.read_bytes()
        assert (tmp_path / "redo.ckpt.json").read_bytes() == \
            model.with_suffix(".ckpt.json").read_bytes()

    def test_generate_writes_questions_and_timing(self, workdir, fitted, tmp_path):
        """On a model whose questions end, so that the rerun also covers
        ``<eos>`` and the early stop."""
        out = tmp_path / "questions.txt"
        argv = ("generate", "--input", str(workdir / "corpus.jsonl"),
                "--model", str(fitted),
                "--encoder-vocab", str(workdir / "enc.vocab"),
                "--quest-vocab", str(workdir / "q.vocab"),
                "--out", str(out), "--beam", "2")
        assert run(*argv) == 0
        questions = out.read_text().splitlines()
        assert len(questions) == 30
        timing = json.loads((tmp_path / "questions.txt.timing.json").read_text())
        assert timing["examples"] == 30
        assert timing["beam"] == 2
        assert timing["mean_s_per_word"] > 0.0
        assert timing["stopped_early_share"] > 0.0
        assert timing["mean_beam_steps"] < timing["max_decode_len"]
        first = out.read_bytes()
        assert run(*argv) == 0
        assert out.read_bytes() == first

    @pytest.mark.parametrize("beam", [1, 4, 12])
    def test_generate_writes_the_full_search_questions(self, workdir, fitted, tmp_path,
                                                       beam):
        """The search stops early, yet the question file has the bytes of
        a search that runs every step (the reference); the timing file
        counts the steps run."""
        model_path = fitted
        out = tmp_path / "questions.txt"
        assert run("generate", "--input", str(workdir / "corpus.jsonl"),
                   "--model", str(model_path),
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab"),
                   "--out", str(out), "--beam", str(beam)) == 0
        vocab = Vocab.load(str(workdir / "enc.vocab"), str(workdir / "q.vocab"))
        model = EncoderDecoder.load(str(model_path), vocab)
        morph = default_morphology()
        want = []
        for raw in load_corpus_jsonl(str(workdir / "corpus.jsonl")):
            prep = model.prepare(encode_example(raw, vocab, morph, truncate=True,
                                                cutoff=model.hyper.source_cutoff))
            actions = reference_beam_search(model, prep, beam_size=beam).actions
            want.append(realize(list(actions), list(prep.roots), vocab, morph) + "\n")
        assert out.read_text() == "".join(want)
        timing = json.loads((tmp_path / "questions.txt.timing.json").read_text())
        limit = model.hyper.max_decode_len
        assert timing["max_decode_len"] == limit
        assert 1.0 <= timing["mean_beam_steps"] <= limit
        assert 0.0 < timing["stopped_early_share"] <= 1.0
        assert timing["mean_beam_steps"] < limit


class TestCheckpointIntegrity:
    """Property: a checkpoint whose pack or sidecar is not what ``train``
    wrote ends ``generate`` in exit 2, never a traceback."""

    NAMES = ("model.ckpt", "model.ckpt.json")

    @staticmethod
    def _generate(workdir, tmp_path):
        return run("generate", "--input", str(workdir / "corpus.jsonl"),
                   "--model", str(tmp_path / "model.ckpt"),
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab"),
                   "--out", str(tmp_path / "q.txt"))

    def test_new_pack_with_previous_sidecar_is_data_error(self, workdir, trained, tmp_path,
                                                          monkeypatch, capsys):
        """A crash between the pack's rename and the sidecar's leaves the
        new pack next to the previous sidecar."""
        for name in self.NAMES:
            (tmp_path / name).write_bytes((trained[0].parent / name).read_bytes())
        path = str(tmp_path / "model.ckpt")
        model = EncoderDecoder.load(path, Vocab.load(str(workdir / "enc.vocab"),
                                                     str(workdir / "q.vocab")))
        model.store["init/b"] = model.store["init/b"] + 1.0
        replace = os.replace

        def crash_before_sidecar(src, dst):
            if dst.endswith(".json"):
                raise OSError("crash")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_before_sidecar)
        with pytest.raises(FileError):
            model.save(path)
        monkeypatch.undo()
        assert (tmp_path / "model.ckpt").read_bytes() != trained[0].read_bytes()
        assert self._generate(workdir, tmp_path) == 2
        err = capsys.readouterr().err
        assert "checkpoint_sha256" in err and "Traceback" not in err

    def test_out_of_range_hyperparameter_is_data_error(self, workdir, trained, tmp_path,
                                                       capsys):
        """Saved through the API with a beam of -1, so its checksum is valid."""
        model = EncoderDecoder.load(str(trained[0]), Vocab.load(str(workdir / "enc.vocab"),
                                                                str(workdir / "q.vocab")))
        model.hyper = dataclasses.replace(model.hyper, beam_size=-1)
        model.save(str(tmp_path / "model.ckpt"))
        assert self._generate(workdir, tmp_path) == 2
        assert "beam_size" in capsys.readouterr().err

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_changed_or_truncated_bytes_are_data_errors(self, workdir, trained, tmp_path,
                                                        capsys, data):
        files = {name: (trained[0].parent / name).read_bytes() for name in self.NAMES}
        name = data.draw(st.sampled_from(self.NAMES), label="file")
        raw = files[name]
        at = data.draw(st.integers(0, len(raw) - 1), label="at")
        if data.draw(st.booleans(), label="truncate"):
            files[name] = raw[:at]
        else:
            flipped = raw[at] ^ data.draw(st.integers(1, 255), label="xor")
            files[name] = raw[:at] + bytes([flipped]) + raw[at + 1 :]
        for each, content in files.items():
            (tmp_path / each).write_bytes(content)
        assert self._generate(workdir, tmp_path) == 2
        assert "Traceback" not in capsys.readouterr().err


class TestConfigFile:
    def test_general_and_subcommand_sections_apply(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.ini"
        # cutoff 6 truncates the 7-token sources but keeps every answer span
        cfg.write_text("[general]\nseed = 5\n\n[encode]\ncutoff = 6\n"
                       "truncate = true\n")
        out = tmp_path / "cfg.jsonl"
        assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                   "--out", str(out), "--config", str(cfg),
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab")) == 0
        encoded = load_encoded_jsonl(str(out))
        assert all(len(ex.source_roots) == 6 for ex in encoded)

    def test_flag_overrides_config(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[encode]\ncutoff = 3\n")
        # Without the flag the config cutoff rejects the 7-token sources;
        # an explicit --cutoff must win over the config value.
        assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                   "--out", str(tmp_path / "a.jsonl"),
                   "--config", str(cfg)) == 2
        assert run("encode", "--input", str(workdir / "corpus.jsonl"),
                   "--out", str(tmp_path / "b.jsonl"),
                   "--config", str(cfg), "--cutoff", "128") == 0

    def test_config_supplies_required_flags(self, tmp_path, capsys):
        (tmp_path / "c.txt").write_text("what did he visit ?\n")
        (tmp_path / "r.txt").write_text("what did he visit ?\n")
        (tmp_path / "other.txt").write_text("where is it ?\n")
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[score]\ncandidates = {tmp_path / 'other.txt'}\n"
                       f"references = {tmp_path / 'r.txt'}\n")
        assert run("score", "--config", str(cfg)) == 0
        assert json.loads(capsys.readouterr().out)["rouge_l"] < 1.0
        # An explicit flag still wins over the config value.
        assert run("score", "--config", str(cfg),
                   "--candidates", str(tmp_path / "c.txt")) == 0
        assert json.loads(capsys.readouterr().out)["rouge_l"] == pytest.approx(1.0)

    def test_unknown_section_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[frobnicate]\nx = 1\n")
        assert run("selftest", "--config", str(cfg)) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_unknown_key_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[score]\nwibble = 1\n")
        assert run("score", "--candidates", "c", "--references", "r",
                   "--config", str(cfg)) == 2
        assert "wibble" in capsys.readouterr().err

    def test_bad_config_value_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[bench]\nsteps = lots\n")
        assert run("bench", "--config", str(cfg)) == 2
        assert "lots" in capsys.readouterr().err

    def test_bad_config_dropout_is_data_error(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[train]\ndropout = 1.5\n")
        assert run("train", "--input", str(workdir / "encoded.jsonl"),
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab"),
                   "--model-out", str(tmp_path / "m.ckpt"),
                   "--steps", "1", "--hidden", "8", "--word-dim", "8",
                   "--feat-dim", "3", "--quiet", "--config", str(cfg)) == 2
        assert "dropout" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["learning-rate = nan", "clip-norm = -1"])
    def test_bad_config_optimiser_value_is_data_error(self, workdir, tmp_path, line,
                                                      capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[train]\n{line}\n")
        assert run("train", "--input", str(workdir / "encoded.jsonl"),
                   "--encoder-vocab", str(workdir / "enc.vocab"),
                   "--quest-vocab", str(workdir / "q.vocab"),
                   "--model-out", str(tmp_path / "m.ckpt"),
                   "--steps", "1", "--hidden", "8", "--word-dim", "8",
                   "--feat-dim", "3", "--quiet", "--config", str(cfg)) == 2
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_missing_config_file_is_data_error(self, tmp_path):
        assert run("selftest", "--config", str(tmp_path / "nope.ini")) == 2


class TestDataEnv:
    def test_relative_paths_resolve_against_env(self, workdir, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setenv(cli.DATA_ENV, str(workdir))
        assert run("decode", "--input", "encoded.jsonl",
                   "--encoder-vocab", "enc.vocab",
                   "--quest-vocab", "q.vocab") == 0
        assert len(capsys.readouterr().out.splitlines()) == 30

    def test_output_paths_resolve_against_env(self, workdir, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv(cli.DATA_ENV, str(tmp_path))
        (tmp_path / "wl.txt").write_text("walked\nwalk\n")
        assert run("analyze-vocab", "wl.txt", "--out", "report.json") == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["inflected_count"] == 1

    def test_absolute_paths_ignore_env(self, workdir, monkeypatch, capsys):
        monkeypatch.setenv(cli.DATA_ENV, "/nonexistent")
        assert run("analyze-vocab", str(workdir / "enc.vocab")) == 0


class TestReportsAndBench:
    def test_score_report_structure(self, tmp_path, capsys):
        (tmp_path / "c.txt").write_text("what did he visit ?\n")
        (tmp_path / "r.txt").write_text("what did he visit ?\n")
        assert run("score", "--candidates", str(tmp_path / "c.txt"),
                   "--references", str(tmp_path / "r.txt")) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bleu"]["bleu-4"] == pytest.approx(100.0)
        assert report["rouge_l"] == pytest.approx(1.0)

    def test_bench_report(self, capsys):
        assert run("bench", "--hidden", "16", "--vocab-size", "200",
                   "--beam", "2", "--source-window", "8", "--quest-size", "16",
                   "--steps", "3", "--warmup", "1") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["speedup_ratio"] > 0.0
        assert report["steps"] == 3
        assert report["three_action"]["support"]["quest"] == 16
        assert report["baseline"]["support"]["quest"] == 200
        assert report["three_action"]["per_question_median_s"] > 0.0


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run("selftest") == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == len(cli._SELFTEST_CHECKS)
        assert "[FAIL]" not in out

    def test_selftest_failure_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "_SELFTEST_CHECKS",
            (("doomed", lambda seed: (False, "injected failure")),))
        assert run("selftest") == 3
        assert "[FAIL] doomed" in capsys.readouterr().out


# -- fuzzing: random file contents through the whole CLI ------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=6)
# Mostly well-formed items, so that records get past the first check.  A
# lone surrogate can arrive through a JSON escape and cannot be written as
# UTF-8.
_WORD = st.sampled_from(["walked", "walk", "dogs", "the", "?", "", "B", "I", "O",
                         "NN", "VBD", "NNS", "\ud800", 7, None, ["NN"]])


def _mangled(draw, record):
    """``record``, half the time with one field replaced by an arbitrary JSON value."""
    key = draw(st.sampled_from([None] * len(record) + list(record)))
    if key is not None:
        record[key] = draw(_JSON)
    return record


@st.composite
def _corpus_record(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    words, question = (st.lists(_WORD, min_size=k, max_size=k) for k in (n, m))
    start = draw(st.integers(-1, n))
    return _mangled(draw, {
        "tokens": draw(words), "pos": draw(words), "ner": draw(words),
        "answer_start": start, "answer_end": draw(st.integers(start - 1, n)),
        "question": draw(question), "question_pos": draw(question)})


# A word of Unicode letters, marks and digits plus an inflection suffix,
# under a POS tag that names an inflection, so that every word of the
# record reaches the morphology's rule search.  Half the stems are of
# uncased letters only (``中文s``), which no rule may take as a root.
_UNICODE_WORD = st.builds(
    lambda stem, suffix: stem + suffix,
    st.text(alphabet=st.characters(categories=("L", "M", "Nd")), min_size=1, max_size=6)
    | st.text(alphabet=st.characters(categories=("Lo",)), min_size=2, max_size=4),
    st.sampled_from(["", "s", "es", "ies", "ed", "d", "ing", "er", "est"]))
_INFLECTION_TAG = st.sampled_from(sorted(POS_TAG_TO_TYPE))


@st.composite
def _unicode_corpus_record(draw):
    """A well-formed corpus record of Unicode words under inflection tags;
    the question reuses source words half the time, so that it copies."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    tokens = draw(st.lists(_UNICODE_WORD, min_size=n, max_size=n))
    start = draw(st.integers(0, n - 1))
    word = _UNICODE_WORD | st.sampled_from(tokens)
    return {"tokens": tokens, "pos": draw(st.lists(_INFLECTION_TAG, min_size=n, max_size=n)),
            "ner": ["O"] * n, "answer_start": start, "answer_end": draw(st.integers(start, n - 1)),
            "question": draw(st.lists(word, min_size=m, max_size=m)),
            "question_pos": draw(st.lists(_INFLECTION_TAG, min_size=m, max_size=m))}


@st.composite
def _encoded_record(draw):
    n = draw(st.integers(1, 4))
    words = st.lists(_WORD, min_size=n, max_size=n)
    left = draw(st.integers(-1, n))
    right = draw(st.integers(left - 1, n))
    # Half the time the span's own marks, so that records get past that check.
    marks = ["B" if i == left else "I" if left < i <= right else "O" for i in range(n)]
    action = st.fixed_dictionaries({
        "kind": st.sampled_from(["copy", "quest", "trans", "jump"]),
        "index": st.integers(-1, n), "id": st.integers(-1, 40),
        "tag": st.sampled_from(TRANS_TAGS + ("##x",))})
    return _mangled(draw, {
        "source_roots": draw(words), "pos": draw(words), "ner": draw(words),
        "answer_bio": draw(st.just(marks) | words), "answer_span": [left, right],
        "actions": draw(st.lists(action | _WORD, max_size=4)),
        "reference_question": draw(st.lists(_WORD, max_size=3))})


def _jsonl(record):
    return st.lists(record | _JSON, min_size=1, max_size=3).map(
        lambda objs: "".join(json.dumps(o) + "\n" for o in objs).encode("utf-8"))


_BYTES = st.binary(max_size=64) | st.text(max_size=64).map(str.encode)
_CONFIG = st.lists(st.tuples(
    st.sampled_from(["general", "analyze-vocab", "train", "frobnicate"]),
    st.sampled_from(["seed", "top", "steps", "dropout", "quiet", "wibble"]),
    st.text(max_size=6)), max_size=3).map(
        lambda rows: "".join(f"[{s}]\n{k} = {v}\n" for s, k, v in rows).encode("utf-8"))
_INPUTS = {
    "score": _BYTES,
    "analyze-vocab": _BYTES,
    "config": _BYTES | _CONFIG,
    "build-vocab": _BYTES | _jsonl(_corpus_record() | _unicode_corpus_record()),
    "encode": _BYTES | _jsonl(_corpus_record() | _unicode_corpus_record()),
    "decode": _BYTES | _jsonl(_encoded_record()),
    "train": _BYTES | _jsonl(_encoded_record()),
}


# Commands whose every input is data: a malformed record exits 2, and no
# word, whatever its script, ends in a runtime error.
_DATA_ONLY = ("build-vocab", "encode")


class TestFuzz:
    """Property: whatever a text input holds, ``main`` returns an exit code
    in 0..3 and never raises; ``encode`` and ``build-vocab`` exit 0 or 2.
    ``decode`` may exit 3: a list id outside the list is a runtime error
    (``test_out_of_vocab_action_is_runtime_error``)."""

    @pytest.mark.parametrize("command", list(_INPUTS))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_main_never_raises(self, workdir, tmp_path, command, data):
        fuzzed = tmp_path / "input"
        fuzzed.write_bytes(data.draw(_INPUTS[command], label="input"))
        out = str(tmp_path / "out")
        vocabs = ["--encoder-vocab", str(workdir / "enc.vocab"),
                  "--quest-vocab", str(workdir / "q.vocab")]
        argv = {
            "score": ["score", "--candidates", str(fuzzed), "--references", str(fuzzed),
                      "--out", out],
            "analyze-vocab": ["analyze-vocab", str(fuzzed), "--out", out],
            "config": ["analyze-vocab", str(workdir / "enc.vocab"), "--out", out,
                       "--config", str(fuzzed)],
            "build-vocab": ["build-vocab", "--input", str(fuzzed), "--encoder-out", out,
                            "--quest-out", out + ".q"],
            "encode": ["encode", "--input", str(fuzzed), "--out", out],
            "decode": ["decode", "--input", str(fuzzed), *vocabs, "--out", out],
            "train": ["train", "--input", str(fuzzed), *vocabs, "--model-out", out,
                      "--steps", "1", "--hidden", "4", "--word-dim", "4",
                      "--feat-dim", "2", "--batch-size", "2", "--quiet"],
        }[command]
        assert run(*argv) in ((0, 2) if command in _DATA_ONLY else (0, 1, 2, 3))
