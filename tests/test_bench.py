"""Tests for the decode-latency benchmark."""

from types import SimpleNamespace

import numpy as np
import pytest

from morphoqg import bench, generate
from morphoqg.bench import FULL_SCALE_REFERENCE, PAIRS, _model_and_source, bench_decode
from morphoqg.codec import SOS_ID
from morphoqg.errors import RuntimeFailure
from morphoqg.generate import BeamResult

SMALL = dict(hidden=16, source_window=8, quest_size=20, vocab_size=60, beam=3,
             steps=2)


class TestModelAndSource:
    """Property: the builder yields a model whose outcomes are the copy
    window, the question list and the nine tags."""

    def test_outcomes_cover_copy_window_list_and_tags(self):
        model, prep = _model_and_source(40, hidden=16, source_window=8, seed=1)
        assert model.vocab.quest_size == 40
        assert len(prep.roots) == 8
        enc = model.encode(prep)
        state = model.step(enc, enc["s0"][None, :],
                           np.zeros((1, 16), dtype=model.dtype), [SOS_ID])
        mass = model.outcome_mass(state, model.outcome_columns(prep.roots))
        assert mass.shape == (1, 8 + 40 + 9)
        assert mass.sum() == pytest.approx(1.0, abs=1e-5)


class TestShippedDecoder:
    """Property: the benchmark times the shipped ``beam_search``, one call
    per side per pair, on models that differ only in list size."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Every ``beam_search`` call as (model, prep, beam_size, max_len)."""
        record = []
        real = generate.beam_search

        def beam_search(model, prep, beam_size=None, max_len=None):
            record.append((model, prep, beam_size, max_len))
            return real(model, prep, beam_size=beam_size, max_len=max_len)

        monkeypatch.setattr(generate, "beam_search", beam_search)
        return record

    def test_each_pair_runs_beam_search_once_per_side(self, calls):
        bench_decode(**SMALL, warmup=2)
        assert len(calls) == 2 * (2 + PAIRS)
        first = calls[0][0]
        for pair in range(2 + PAIRS):
            (a, prep_a, beam_a, len_a), (b, prep_b, beam_b, len_b) = calls[2 * pair:2 * pair + 2]
            sizes = [a.vocab.quest_size, b.vocab.quest_size]
            # Sides alternate: the short list first on even pairs.
            assert sizes == ([20, 60] if pair % 2 == 0 else [60, 20])
            assert a.hyper == b.hyper == first.hyper
            assert a.vocab.encoder_vocab == b.vocab.encoder_vocab
            assert prep_a.roots == prep_b.roots
            assert (beam_a, len_a) == (beam_b, len_b) == (3, 2)

    def test_report_is_medians_of_timed_pairs(self, monkeypatch):
        """On a fake clock, a warmup call costs 100 s and timed calls cost
        the listed seconds; the report must follow from the timed ones."""
        short = iter([1.0, 2.0, 3.0, 4.0, 5.0])
        full = iter([10.0, 4.0, 9.0, 8.0, 5.0])  # per-pair ratios 10, 2, 3, 2, 1
        clock = [0.0]
        seen = []

        def beam_search(model, prep, beam_size=None, max_len=None):
            seen.append(model.vocab.quest_size)
            warm = len(seen) <= 2
            cost = short if model.vocab.quest_size == 20 else full
            clock[0] += 100.0 if warm else next(cost)
            return BeamResult(actions=(), score=0.0, finished=False, steps=max_len)

        monkeypatch.setattr(generate, "beam_search", beam_search)
        monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        report = bench_decode(**SMALL, warmup=1)
        assert PAIRS == 5
        assert report["three_action"]["per_question_median_s"] == 3.0
        assert report["baseline"]["per_question_median_s"] == 8.0
        assert report["baseline"]["per_step_median_s"] == 4.0
        assert report["pair_ratios"] == [10.0, 2.0, 3.0, 2.0, 1.0]
        assert report["speedup_ratio"] == 2.0  # not the ratio of medians, 8/3

    @pytest.mark.parametrize("stopped_call", [3, 12])
    def test_a_timed_search_that_stopped_early_is_refused(self, monkeypatch, stopped_call):
        """Per-step figures compare equal work only if every timed call ran
        all ``steps`` beam steps.  Calls 1 and 2 are the warmup pair, and the
        first of them stopping early is no fault."""
        seen = []

        def beam_search(model, prep, beam_size=None, max_len=None):
            seen.append(model)
            steps = max_len - 1 if len(seen) in (1, stopped_call) else max_len
            return BeamResult(actions=(), score=0.0, finished=True, steps=steps)

        monkeypatch.setattr(generate, "beam_search", beam_search)
        with pytest.raises(RuntimeFailure, match="stopped after 1 of 2 beam steps"):
            bench_decode(**SMALL, warmup=1)
        assert len(seen) == stopped_call


class TestTiming:
    """Property: timing reports are positive, complete and stable."""

    def test_report_fields(self):
        report = bench_decode(**SMALL, warmup=1)
        assert set(report) == {"hidden", "beam", "steps", "warmup", "pairs",
                               "three_action", "baseline", "pair_ratios",
                               "speedup_ratio", "full_scale_reference"}
        assert (report["steps"], report["warmup"], report["pairs"]) == (2, 1, PAIRS)
        for name, size in (("three_action", 20), ("baseline", 60)):
            side = report[name]
            assert set(side) == {"support", "per_question_median_s", "per_step_median_s"}
            assert side["support"] == {"copy": 8, "quest": size, "tags": 9}
            assert side["per_question_median_s"] > 0
            assert side["per_step_median_s"] == side["per_question_median_s"] / 2
        assert len(report["pair_ratios"]) == PAIRS
        assert report["speedup_ratio"] == float(np.median(report["pair_ratios"]))

    def test_identical_configs_land_in_the_noise_band(self):
        report = bench_decode(hidden=64, vocab_size=500, source_window=16,
                              quest_size=500, beam=4, steps=4, warmup=1)
        assert 0.5 < report["speedup_ratio"] < 2.0

    def test_latency_monotone_in_vocabulary_size(self):
        report = bench_decode(hidden=128, vocab_size=16000, source_window=16,
                              quest_size=1000, beam=4, steps=4, warmup=1)
        # A 16x larger list must not come out faster than the small one
        # by more than the noise band.
        assert report["baseline"]["per_question_median_s"] >= (
            0.8 * report["three_action"]["per_question_median_s"])


class TestBenchDecode:
    """Property: the combined report compares both sides on equal terms."""

    def test_report_structure_and_reference_figures(self):
        report = bench_decode(hidden=64, vocab_size=2000, source_window=16,
                              quest_size=100, beam=4, steps=3, warmup=1)
        assert report["hidden"] == 64
        assert report["beam"] == 4
        assert report["three_action"]["per_question_median_s"] > 0
        assert report["baseline"]["per_question_median_s"] > 0
        assert report["speedup_ratio"] > 0
        assert report["full_scale_reference"] == FULL_SCALE_REFERENCE

    def test_reduced_scale_speedup_favors_three_action_layer(self):
        report = bench_decode(hidden=256, vocab_size=15000, source_window=64,
                              quest_size=504, beam=8, steps=6, warmup=1)
        assert report["speedup_ratio"] > 1.0
