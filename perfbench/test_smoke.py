"""Smoke test of the benchmark at a tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def tiny_run(workload: str, seed: int, trace: int) -> dict:
    args = bench.parse_args(["--workload", workload, "--seed", str(seed),
                             "--seconds", "0", "--trace", str(trace), "--tiny"])
    bench.load_program()
    return bench.run(args)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_appears_with_its_unit(workload, trace, key):
    result = tiny_run(workload, seed=1, trace=trace)
    assert set(result[key]) == {m["name"] for m in SPEC[key]}
    for spec in SPEC[key]:
        metric = result[key][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert math.isfinite(metric["value"]), spec["name"]
        if key == "end_to_end":
            assert metric["value"] > 0, spec["name"]
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs_and_outputs(workload):
    first = tiny_run(workload, seed=1, trace=0)
    again = tiny_run(workload, seed=1, trace=0)
    other = tiny_run(workload, seed=2, trace=0)
    assert first["input_digest"] == again["input_digest"]
    assert first["output_digest"] == again["output_digest"]
    assert first["digest_ops"] == again["digest_ops"] >= 1
    assert other["input_digest"] != first["input_digest"]


@pytest.mark.parametrize("workload", ["beam-h512", "train-h512"])
def test_tiny_outputs_pass_their_checks(workload):
    result = tiny_run(workload, seed=3, trace=0)
    assert result["failed"] == 0, result["failures"]


def test_overfit_bars_fail_an_undertrained_model():
    # Two training steps cannot reach criterion 5's bars: the check must say so.
    result = tiny_run("toy-h64", seed=1, trace=0)
    assert result["failed"] == 1
    assert "overfit pairs" in result["failures"][0]


def test_grammar_check_rejects_leading_and_repeated_tags():
    bench.load_program()
    import workloads
    from morphoqg.codec import Copy, Trans
    from morphoqg.morphology import ALL_TYPES
    tag = Trans(ALL_TYPES[0])
    assert workloads.grammar_error([Copy(0), tag, Copy(1), tag]) is None
    assert "opens" in workloads.grammar_error([tag, Copy(0)])
    assert "follows" in workloads.grammar_error([Copy(0), tag, tag])


def test_traced_run_restores_every_wrapped_attribute():
    from morphoqg import codec, generate, metrics, model, tensor
    before = {(mod, name): getattr(mod, name) for mod, name in [
        (codec, "encode_example"), (codec, "build_vocabs"),
        (generate, "beam_search"), (generate, "generate_question"),
        (generate, "realize"), (metrics, "bleu"), (model, "load_checkpoint"),
        (model, "save_checkpoint")]}
    adam_step = tensor.Adam.step
    for workload in WORKLOADS:
        tiny_run(workload, seed=1, trace=1)
    assert all(getattr(mod, name) is fn for (mod, name), fn in before.items())
    assert tensor.Adam.step is adam_step


def test_paced_run_restores_the_timer_and_paces_every_item():
    handler = signal.getsignal(signal.SIGALRM)
    result = tiny_run("beam-h512", seed=1, trace=0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert result["pace"]["kernel_ns_p50"] > 0
    assert result["end_to_end"]["op_ms_p50"]["value"] > 0


def test_paced_clock_moves_forward_and_skips_the_kernel():
    from pace import Pacer
    pacer = Pacer()
    pacer.start()
    try:
        stamps = [pacer.now()]
        while len(pacer.ticks) < 3:
            stamps.append(pacer.now())
    finally:
        pacer.stop()
    assert all(b >= a for a, b in zip(stamps, stamps[1:]))
    assert all(kernel > 0 for _end, kernel in pacer.ticks)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
