"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream_open --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, untraced and then traced, one
after another in child processes, and fails if any of them fails.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs one untraced and one traced episode and reports the
per-layer split, writing a "where the time goes" table and the span list
under ``.perfbench_out/``.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when an oracle check or a digest comparison fails, and when the
program's sources are not there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness, measure
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    cpu = measure.pin_fastest_cpu()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, out_dir)
    run = harness.Run(workload, args.seed, args.seconds, out_dir)
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    info = {**measure.machine(str(out_dir)), "pinned_cpu": cpu}
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(
        "calibration: "
        + " ".join(f"{k}={v:.1f}" for k, v in run.calibration.items())
    )
    if args.trace:
        metrics, episodes, rows = run.trace()
        units = harness.PER_LAYER
        table = harness.time_table(
            rows, metrics["trace.overhead_ratio"], run.calibration["unit_us"]
        )
        path = out_dir / f"{args.workload}-seed{args.seed}-layers.md"
        path.write_text(f"# where the time goes: {args.workload}\n\n{table}\n")
        print(table)
    else:
        metrics, episodes = run.measure()
        units = harness.END_TO_END
    attempted = sum(ep.requests for ep in episodes)
    failed = min(
        attempted, sum(ep.failed for ep in episodes) + len(run.problems)
    )
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for q, value in run.tail_ms.items():
        print(f"latency_p{q}_ms = {value:.6g} ms (not gated: unsteady between runs)")
    for name, value in run.as_measured.items():
        print(f"as measured: {name} = {value:.6g}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for problem in run.problems[:20]:
        print(f"FAIL {problem}")
    correct = not run.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _run_all(names: list[str], args: argparse.Namespace) -> int:
    """Every workload untraced and traced, each in its own process."""
    failed = []
    for name in names:
        for trace in (0, 1):
            cmd = [
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            # Everything but the JSON record, which is for machines.
            if lines and lines[-1].startswith("{"):
                lines.pop()
            print("\n".join(lines), flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                failed.append(f"{name} (trace {trace})")
    if failed:
        print("FAILED: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
