"""Tests for the command-line front end.

Contract under test: fixed exit codes (0 ok, 1 usage, 2 data, 3 runtime),
byte-identical outputs for encode/build-vocab/train/generate under a
fixed seed, config-file defaults that command-line flags override, and
$MORPHOQG_DATA-relative path resolution.

Commands run in-process through ``cli.main`` so exit codes and streams
can be asserted without subprocesses.
"""

import json
import os

import pytest

from morphoqg import cli
from morphoqg.codec import dump_corpus_jsonl, load_encoded_jsonl
from morphoqg.toydata import make_corpus

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
        ("--beam", ("--vocab-size", "5", "--beam", "12")),
        ("--beam", ("--wt", "--beam", "40", "--source-window", "4",
                    "--quest-size", "8")),
        ("--beam", ("--beam", "22", "--vocab-size", "100", "--source-window", "4",
                    "--quest-size", "8")),
        ("--quest-size", ("--wt", "--quest-size", "3")),
        ("--warmup", ("--wt", "--warmup", "-1")),
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

    @pytest.mark.parametrize("command", ["decode", "generate"])
    def test_non_utf8_input_is_data_error(self, workdir, tmp_path, command,
                                          capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"tokens": ["\xff"]}\n')
        args = ["--input", str(bad), "--encoder-vocab", str(workdir / "enc.vocab"),
                "--quest-vocab", str(workdir / "q.vocab")]
        if command == "generate":
            args += ["--model", str(tmp_path / "m.ckpt"), "--out", str(tmp_path / "q.txt")]
            assert run("train", "--input", str(workdir / "encoded.jsonl"),
                       "--encoder-vocab", str(workdir / "enc.vocab"),
                       "--quest-vocab", str(workdir / "q.vocab"),
                       "--model-out", str(tmp_path / "m.ckpt"), "--steps", "1",
                       "--hidden", "8", "--word-dim", "8", "--feat-dim", "3",
                       "--quiet") == 0
        assert run(command, *args) == 2
        err = capsys.readouterr().err
        assert "bad.jsonl" in err and "Traceback" not in err

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

    def test_train_rerun_is_byte_identical(self, trained, tmp_path):
        model, args = trained
        redo = [a if a != str(model) else str(tmp_path / "redo.ckpt")
                for a in args]
        assert run(*redo) == 0
        assert (tmp_path / "redo.ckpt").read_bytes() == model.read_bytes()

    def test_generate_writes_questions_and_timing(self, workdir, trained,
                                                  tmp_path):
        model, _args = trained
        out = tmp_path / "questions.txt"
        argv = ("generate", "--input", str(workdir / "corpus.jsonl"),
                "--model", str(model),
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
        first = out.read_bytes()
        assert run(*argv) == 0
        assert out.read_bytes() == first


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
        assert report["three_action"]["per_word_mean_s"] > 0.0

    def test_bench_wt_only(self, capsys):
        assert run("bench", "--wt", "--hidden", "16", "--beam", "2",
                   "--source-window", "8", "--quest-size", "16",
                   "--steps", "3", "--warmup", "1") == 0
        report = json.loads(capsys.readouterr().out)
        assert "softmax_baseline" not in report
        assert report["three_action"]["steps"] == 3


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
