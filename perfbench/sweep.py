#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the end-to-end metrics.

    python3 perfbench/sweep.py --seeds 1-10 [--workload W ...] [--out FILE]

Runs ``run.py --trace 0`` once per (workload, seed), one after another,
and prints for every workload and end-to-end metric the median, the
quartiles and the quartile spread as a share of the median, next to the
metric's bound from BENCHMARK.json; the summary also keeps the medians of
the plain-seconds figures (``wall_s``, ``work_per_s``, ``reference_s``).  ``--out`` writes the summary as JSON
(``perfbench/baseline.json`` holds the one recorded for the parent
commit).  Exits 1 if any run failed or reported ``fail_frac > 0``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", type=_seeds)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    summary = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workload or names:
        runs, plain = [], {}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                ok = False
                sys.stderr.write(
                    f"{workload} seed {seed}: exit {proc.returncode}\n"
                    f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}\n"
                )
                continue
            runs.append(result)
            for line in lines:
                if line.startswith("environment: "):
                    summary.setdefault("environment", json.loads(line.split(": ", 1)[1]))
                elif line.startswith("plain "):
                    _, name, value, _unit = line.split()
                    plain.setdefault(name, []).append(float(value))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        table = {}
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            table[name] = {
                "unit": spec["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med,
                "values": values,
            }
            print(f"  {workload:18s} {name:12s} median {med:.6g} {spec['unit']:4s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {(q3 - q1) / med:.3f} (bound {spec['bound']})")
        fails = sum(r["failed"] for r in runs)
        print(f"  {workload:18s} fail_frac {fails / max(1, sum(r['attempted'] for r in runs))!r}")
        summary["workloads"][workload] = {
            "runs": len(runs),
            "failed": fails,
            "metrics": table,
            "plain_medians": {k: statistics.median(v) for k, v in plain.items()},
        }
        ok = ok and fails == 0
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
