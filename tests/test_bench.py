"""Tests for the output-layer latency benchmark."""

import numpy as np
import pytest

from morphoqg.bench import (
    FULL_SCALE_REFERENCE,
    bench_decode,
    make_softmax_layer,
    make_three_action_layer,
    time_layer,
)
from morphoqg.model import EncoderDecoder


def median_of_medians(step_factory, repetitions=3, steps=20, warmup=3):
    """Noise-robust latency estimate: median of per-repetition medians."""
    medians = [time_layer(step_factory(), steps=steps, warmup=warmup)["per_word_median_s"]
               for _ in range(repetitions)]
    return float(np.median(medians))


class TestLayers:
    """Property: both layer closures produce beam-shaped score tables."""

    def test_three_action_layer_output_shape(self):
        layer = make_three_action_layer(hidden=64, source_window=16,
                                        quest_size=40, beam=4, seed=1)
        out = layer()
        assert out.shape == (4, 4)
        assert np.all(np.isfinite(out))
        # Scores are probabilities scaled by switch mass: within (0, 1).
        assert np.all(out > 0) and np.all(out < 1)

    def test_softmax_layer_output_shape(self):
        layer = make_softmax_layer(hidden=64, vocab_size=500, beam=4, seed=1)
        out = layer()
        assert out.shape == (4, 4)
        assert np.all(out > 0) and np.all(out < 1)
        # Rows are sorted best-first.
        assert np.all(np.diff(out, axis=1) <= 0)


class TestShippedDecoder:
    """Property: the three-action layer times the model's own step and mixing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of ``step`` and ``outcome_mass`` calls, plus every mass returned."""
        record = {"step": 0, "outcome_mass": 0, "masses": []}
        real_step, real_mass = EncoderDecoder.step, EncoderDecoder.outcome_mass

        def step(self, *args, **kwargs):
            record["step"] += 1
            return real_step(self, *args, **kwargs)

        def outcome_mass(self, *args, **kwargs):
            record["outcome_mass"] += 1
            record["masses"].append(real_mass(self, *args, **kwargs))
            return record["masses"][-1]

        monkeypatch.setattr(EncoderDecoder, "step", step)
        monkeypatch.setattr(EncoderDecoder, "outcome_mass", outcome_mass)
        return record

    def test_one_step_and_one_mixing_per_word(self, calls):
        layer = make_three_action_layer(hidden=16, source_window=8,
                                        quest_size=20, beam=3, seed=2)
        assert (calls["step"], calls["outcome_mass"]) == (0, 0)
        for words in (1, 2, 3):
            layer()
            assert (calls["step"], calls["outcome_mass"]) == (words, words)

    def test_rows_are_top_beam_outcome_masses(self, calls):
        layer = make_three_action_layer(hidden=16, source_window=8,
                                        quest_size=20, beam=3, seed=2)
        out = layer()
        (mass,) = calls["masses"]
        assert mass.shape == (3, 8 + 20 + 9)
        np.testing.assert_array_equal(out, -np.sort(-mass, axis=1)[:, :3])


class TestTiming:
    """Property: timing reports are positive, complete, and warmup-aware."""

    def test_report_fields(self):
        layer = make_softmax_layer(hidden=32, vocab_size=200, beam=2)
        report = time_layer(layer, steps=5, warmup=2)
        assert set(report) >= {"per_word_mean_s", "per_word_p95_s",
                               "per_word_median_s", "steps", "warmup"}
        assert report["per_word_mean_s"] > 0
        assert report["per_word_p95_s"] > 0
        assert report["steps"] == 5

    def test_identical_configs_land_in_the_noise_band(self):
        a = median_of_medians(
            lambda: make_softmax_layer(hidden=64, vocab_size=2000, beam=4),
            repetitions=3, steps=10, warmup=2)
        b = median_of_medians(
            lambda: make_softmax_layer(hidden=64, vocab_size=2000, beam=4),
            repetitions=3, steps=10, warmup=2)
        assert 0.5 < a / b < 2.0

    def test_latency_monotone_in_vocabulary_size(self):
        small = median_of_medians(
            lambda: make_softmax_layer(hidden=128, vocab_size=1000, beam=4),
            repetitions=3, steps=10, warmup=2)
        large = median_of_medians(
            lambda: make_softmax_layer(hidden=128, vocab_size=16000, beam=4),
            repetitions=3, steps=10, warmup=2)
        # A 16x larger output vocabulary must not come out faster than the
        # small one by more than the noise band.
        assert large >= small * 0.8


class TestBenchDecode:
    """Property: the combined report compares both layers on equal terms."""

    def test_report_structure_and_reference_figures(self):
        report = bench_decode(hidden=64, vocab_size=2000, source_window=16,
                              quest_size=100, beam=4, steps=5, warmup=2)
        assert report["hidden"] == 64
        assert report["beam"] == 4
        assert report["three_action"]["per_word_mean_s"] > 0
        assert report["softmax_baseline"]["per_word_mean_s"] > 0
        assert report["speedup_ratio"] > 0
        assert report["full_scale_reference"] == FULL_SCALE_REFERENCE

    def test_reduced_scale_speedup_favors_three_action_layer(self):
        report = bench_decode(hidden=256, vocab_size=15000, source_window=64,
                              quest_size=504, beam=8, steps=10, warmup=3)
        assert report["speedup_ratio"] > 1.0
