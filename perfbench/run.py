"""Benchmark of morphoqg's real generate and train paths.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload beam-h512 --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed or built.  A run

1. makes its inputs from ``--seed`` (same seed, same inputs);
2. sets up several times (``setup_s`` is their median);
3. runs the workload's operations for ``--seconds`` and checks each output;
   with ``--trace 0`` every item is also timed on a paced clock that
   discounts the shared host's changing speed (``pace.py``);
4. prints each metric by name, unit and sample count, then, as its last
   line, one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
   metrics with ``--trace 1``.

The full result (machine record, digests, sample counts, failures and, for
a traced run, every span) is written under ``.perfbench_out/``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, so that the whole run shares one CPU's speed with the
# pacer's kernels (see pace.py).  Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set up at least this many times and for at least this long; setup_s is
# the median, so a cheap set-up gets enough repetitions to be steady.
SETUP_REPS = 5
SETUP_SECONDS = 1.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("beam-h512", "train-h512", "toy-h64"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny model and inputs, for the smoke test")
    return parser.parse_args(argv)


def load_program():
    """Import the program from this checkout's ``src/``; exit 2 without it."""
    if not (SRC / "morphoqg" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def run(args) -> dict:
    """One benchmark run; returns the full result record."""
    import report
    import workloads
    from pace import Pacer
    from tracer import Tracer

    workload = workloads.make_workload(args.workload, tiny=args.tiny)
    inputs = workload.make_inputs(args.seed)
    # The end-to-end run reads the paced clock; the traced run, whose
    # spans are wall time, runs no kernels between them.
    tracer = Tracer() if args.trace else None
    pacer = None if args.trace else Pacer()
    rec = workloads.Recorder(tracer, pacer)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    if pacer is not None:
        pacer.start()
    try:
        workload.stage(inputs, workdir)
        rec.installs = workloads.layer_installs(None, None)
        state = None
        reps = 0
        begun = time.perf_counter()
        floor = 0.0 if args.tiny else SETUP_SECONDS
        while reps < SETUP_REPS or time.perf_counter() - begun < floor:
            state = None  # free the previous set-up before the next
            with rec.item("setup"):
                state = workload.setup(inputs, workdir)
            if not rec.items[-1].ok:
                raise RuntimeError(f"set-up failed: {rec.failures[-1]}")
            reps += 1
        clock = workloads.Clock(args.seconds, workload.scale.digest_ops)
        outputs = workload.run(state, rec, clock)
    finally:
        if pacer is not None:
            pacer.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": report.machine_record(ROOT, args.seed),
        "input_digest": inputs["digest"],
        **outputs,
    }
    checked = [it for it in rec.items if it.kind not in ("setup", "pass")]
    result["attempted"] = len(checked)
    result["failed"] = sum(not it.ok for it in checked)
    result["failures"] = rec.failures
    result["end_to_end"] = report.end_to_end(workload, rec.items, peak_rss_mb)
    result["end_to_end_wall"] = report.end_to_end(workload, rec.items, peak_rss_mb,
                                                  paced=False)
    if pacer is not None:
        result["pace"] = pacer.summary()
        result["pace_ticks"] = pacer.ticks
    result["items"] = report.item_summary(rec.items)
    result["op_ms"] = [it.ms for it in rec.items if it.kind == workload.op]
    if tracer is not None:
        result["per_layer"] = report.per_layer(rec.items, tracer, outputs)
        result["self_time_share"] = report.self_time_share(workload, rec.items, tracer)
        result["spans"] = tracer.spans
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    result = run(args)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")

    m = result["machine"]
    print(f"# {args.workload} seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"{m['cpus']} CPUs, {m['blas']} ({m['blas_threads']} threads), "
          f"numpy {m['numpy']}, Python {m['python']}, commit {m['commit']}")
    print(f"# inputs {result['input_digest'][:16]}  outputs "
          f"{result['output_digest'][:16]} (first {result['digest_ops']} ops)")
    for key, metric in metrics.items():
        note = " (computed)" if metric.get("computed") else ""
        print(f"{key:40s} {metric['value']:14.6g} {metric['unit']:6s} "
              f"n={metric['samples']}{note}")
    if "pace" in result:
        p = result["pace"]
        print(f"# paced clock: {p['ticks']} kernels, min/p50/max "
              f"{p['kernel_ns_min'] / 1e3:.0f}/{p['kernel_ns_p50'] / 1e3:.0f}/"
              f"{p['kernel_ns_max'] / 1e3:.0f} us against {p['reference_ns'] / 1e3:.0f} us")
        for key, metric in result["end_to_end_wall"].items():
            print(f"# wall {key:35s} {metric['value']:14.6g} {metric['unit']}")
    for kind, summary in result["items"].items():
        print(f"# {kind:8s} n={summary['n']:<6d} p50 {summary['ms_p50']:10.3f} ms"
              + (f"  p90 {summary['ms_p90']:10.3f} ms" if "ms_p90" in summary else ""))
    for name, share in result.get("self_time_share", {}).items():
        print(f"# self time {name:34s} {share:8.2%} of traced {result['workload']} ops")
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": metric["value"], "unit": metric["unit"]}
                    for key, metric in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
