"""Command line of the benchmark: one workload, a set of them, or the microbenchmarks."""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from typing import Dict, Optional, Sequence

from bench import micro
from bench.harness import ROOT, measure
from bench.layers import trace_workload
from bench.metrics import END_TO_END, PER_LAYER, RUN_SECONDS
from bench.workloads import WORKLOADS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="End-to-end and per-layer benchmark of the AggregaThor simulator",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in this process")
    parser.add_argument("--workloads", default=None,
                        help="run a set, each workload in its own child process: "
                             "'all' or comma-separated names")
    parser.add_argument("--seed", type=int, default=7,
                        help="feeds the dataset rng and build_trainer(seed=...)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1: the traced run (per-layer metrics); 0: end-to-end metrics")
    parser.add_argument("--scale", default="full", choices=("full", "smoke"),
                        help="smoke: <= 60 workers, 2 steps (what the tests run)")
    parser.add_argument("--out", default=None, help="write the full result document here")
    parser.add_argument("--spans-out", default="",
                        help="traced run: write the stored spans and aggregates here")
    parser.add_argument("--micro", action="store_true",
                        help="run every layer's microbenchmark and exit")
    return parser


def print_result(result: Dict) -> None:
    """Every metric by name with its unit, then what failed (if anything)."""
    host = result["host"]
    print(f"# {result['workload']}  seed {result['seed']}  "
          f"{'traced' if result['traced'] else 'untraced'}  "
          f"calibration slice {host['calibration_s']['median'] * 1e3:.2f} ms "
          f"[{host['calibration_s']['min'] * 1e3:.2f}, {host['calibration_s']['max'] * 1e3:.2f}] "
          f"(reference {host['cal_ref_s'] * 1e3:.2f} ms)  sim_digest {result['sim_digest'][:16]}")
    for name, entry in result["metrics"].items():
        print(f"{name:34s} {entry['value']:16.6f} {entry['unit']}")
    for key, value in result["detail"].items():
        print(f"  {key}: {json.dumps(value)}")
    for text in result["failures"]:
        print(f"FAILED {text}")


def driver_line(result: Dict) -> str:
    """The one-line result the driver reads: last line of standard output."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["metrics"].items()
        },
    })


def run_one(args) -> int:
    workload = WORKLOADS[args.workload].scaled(args.scale)
    if args.trace:
        result = trace_workload(workload, args.seed, args.seconds, spans_out=args.spans_out)
        expected = [name for name, _, _ in PER_LAYER]
    else:
        result = measure(workload, args.seed, args.seconds)
        expected = [name for name, _, _, _ in END_TO_END]
    if list(result["metrics"]) != expected:
        raise RuntimeError("the emitted metrics differ from the table in bench.metrics")
    result["scale"] = args.scale
    print_result(result)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
    print(driver_line(result))
    return 0 if result["failed"] == 0 else 1


def run_set(args) -> int:
    """Each workload in its own child (and a second child for its traced run)."""
    names = sorted(WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workloads {unknown}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    document: Dict = {"seed": args.seed, "scale": args.scale, "workloads": {}}
    status = 0
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as scratch:
        for name in names:
            node = document["workloads"][name] = {}
            for traced in ([0, 1] if args.trace else [0]):
                out = f"{scratch}/{name}.{traced}.json"
                command = [
                    sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(traced), "--scale", args.scale, "--out", out,
                ]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                print("\n".join(done.stdout.splitlines()[:-1]))
                status = status or done.returncode
                try:
                    with open(out) as handle:
                        node["traced" if traced else "untraced"] = json.load(handle)
                except FileNotFoundError:
                    status = status or 1
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    return status


def run_micro() -> int:
    for name, value in micro.suite().items():
        print(f"{name:52s} {value:16.1f} 1/s")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.micro:
        return run_micro()
    if args.workloads:
        return run_set(args)
    if args.workload:
        return run_one(args)
    parser.error("one of --workload, --workloads or --micro is required")
