#!/usr/bin/env python3
"""bpre benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rho_certified --seed 1 --seconds 30 --trace 0

Every job is a ``bpre.cli.main`` call with ``--out`` artifacts, made in
this process with BPRE_THREADS=1 and single-threaded BLAS.  One untimed
pass checks every artifact (``oracles.py``); timed passes then repeat the
jobs for ``--seconds`` and must reproduce the first pass's artifact
digests byte for byte.  Each timed job follows a run of a fixed reference
computation (``reference.py``), and the gated times are in its units.
``--trace 0`` reports the end-to-end metrics;
``--trace 1`` adds traced passes (``spans.py``) and reports the per-layer
metrics.  The last stdout line is one JSON object; the full report, span
JSONL and artifacts go to ``perfbench/_out``.  The exit code is 1 when any
job failed.
"""

import os

PINNED_ENV = {
    "BPRE_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

PROBES_PER_PASS = 2
TRACED_PASSES = 3
PROBE_TIMEOUT_S = 60
REFERENCES = HERE / "references.json"


def load_bpre():
    """Import ``bpre`` from this checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "bpre" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no bpre sources under {src}; run from a checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import bpre.cli

    if Path(bpre.__file__).resolve().parent != (src / "bpre").resolve():
        sys.stderr.write(f"perfbench: imported bpre from {bpre.__file__}, not from {src}\n")
        sys.exit(2)
    return bpre.cli


@dataclass
class JobRun:
    code: int | None
    seconds: float
    digest: str
    nbytes: int
    error: str | None
    ref_seconds: float = 0.0  # the reference computation timed just before


def _rel(r: JobRun) -> float:
    """Job time in units of the reference computation timed next to it."""
    return r.seconds / r.ref_seconds


def run_job(cli, job, artifact_dir: Path, seed: int) -> JobRun:
    """One CLI call; a non-zero exit or an exception is recorded, not raised."""
    paths = wl.artifact_paths(job, artifact_dir)
    for p in paths:
        p.unlink(missing_ok=True)
    argv = wl.argv(job, artifact_dir, seed)
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        error = None if code == 0 else sink.getvalue().strip()[-500:]
    except Exception as exc:  # a traceback is a failed job, not a failed benchmark
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    h = hashlib.sha256()
    nbytes = 0
    for p in paths:
        data = p.read_bytes() if p.is_file() else b""
        nbytes += len(data)
        h.update(len(data).to_bytes(8, "big") + data)
    return JobRun(code, seconds, h.hexdigest(), nbytes, error)


def run_pass(cli, jobs, artifact_dir: Path, seed: int, tracer=None, timed=False) -> list[JobRun]:
    out = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.job_id
        ref_s = reference.seconds() if timed else 0.0
        out.append(run_job(cli, job, artifact_dir, seed))
        out[-1].ref_seconds = ref_s
    return out


def measure_setup(workload: str, seed: int, count: int) -> list[float]:
    """Wall time of ``count`` fresh interpreters running ``probe.py``; they
    inherit the pinned environment."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=PROBE_TIMEOUT_S
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode().strip()}")
    return times


def environment_record() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "pinned_env": PINNED_ENV,
        "machine": platform.machine(),
    }


def end_to_end(workload, jobs, timed, setup_times, peak_rss_mb) -> tuple[dict, dict]:
    """Gated metrics, and the same in plain seconds for the report.

    On a shared machine whose speed switches between fast and slow phases
    lasting seconds to minutes, a job's time divided by the reference
    computation timed just before it is steadier than the time itself, so
    the gated pass time and throughput are in those units (``ref``).  Pass
    times are averaged over the window rather than given as the median of
    its few passes, which jumps between phases.  The set-up probes are
    many, so their median is used.
    """
    unit = wl.WORK_UNIT[workload]
    units = sum(getattr(job, unit) for job in jobs) * len(timed)

    def busy(cost) -> float:
        return sum(cost(r) for runs in timed for job, r in zip(jobs, runs) if getattr(job, unit))

    def wall(cost) -> float:
        return statistics.fmean(sum(cost(r) for r in runs) for runs in timed)

    gated = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_rel": (wall(_rel), "ref"),
        "work_per_ref": (units / busy(_rel), "1/ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    plain = {
        "wall_s": (wall(lambda r: r.seconds), "s"),
        "work_per_s": (units / busy(lambda r: r.seconds), "1/s"),
        "reference_s": (statistics.fmean(r.ref_seconds for runs in timed for r in runs), "s"),
    }
    return gated, plain


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(jobs, docs, first, job_s: dict, tracer, table, untraced_wall, traced_wall) -> dict:
    """Per-layer metrics: counts from the first traced pass, span seconds
    (``table``) as shares of the mean traced pass wall, rates from the
    mean untraced job times."""
    counts = tracer.pass_counts[0]

    def self_s(name: str) -> float:
        return table[name]["self_s"] if name in table else 0.0

    def incl_s(name: str) -> float:
        return table[name]["incl_s"] if name in table else 0.0

    def share(seconds: float) -> tuple[float, str]:
        return (seconds / traced_wall, "frac")

    def layer_self(layer: str) -> float:
        return sum(t["self_s"] for name, t in table.items() if name.split(".")[0] == layer)

    m: dict[str, tuple[float, str]] = {}
    for layer in spans.LAYERS:
        m[f"{layer}.self_share"] = share(layer_self(layer))
    m["cli.main.calls"] = (counts["cli.main.calls"], "count")
    m["cli.main.self_share"] = share(self_s("cli.main"))
    m["cli.artifact_bytes"] = (sum(r.nbytes for r in first), "bytes")
    m["rates.rho_report.self_share"] = share(self_s("rates.rho_report"))
    m["rates.mrca_regime_suite.self_share"] = share(self_s("rates.mrca_regime_suite"))
    m["exact.smallest_reachable.calls"] = (counts["exact.smallest_reachable.calls"], "count")
    m["exact.smallest_reachable.share"] = share(incl_s("exact.smallest_reachable"))
    m["exact.fekete_bounds.share"] = share(incl_s("exact.fekete_bounds"))
    m["exact.annealed_pmf_row.calls"] = (counts["exact.annealed_pmf_row.calls"], "count")
    m["exact.annealed_pmf_row.self_share"] = share(self_s("exact.annealed_pmf_row"))
    m["exact.envs"] = (counts["exact.envs"], "count")
    cert = [j for j in jobs if j.kind == "certified"]
    m["exact.envs_per_s"] = (
        _rate(sum(j.envs for j in cert), sum(job_s[j.job_id] for j in cert)),
        "1/s",
    )
    for kind in ("lf", "finite"):
        name = f"pgf.apply_law_rows.{kind}"
        m[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        m[f"{name}.rows"] = (counts[f"{name}.rows"], "count")
        m[f"{name}.self_share"] = share(self_s(name))
    mul_calls = counts["pgf.mul_rows.calls"]
    m["pgf.mul_rows.calls"] = (mul_calls, "count")
    m["pgf.mul_rows.self_share"] = share(self_s("pgf.mul_rows"))
    m["pgf.mul_rows.mean_width"] = (_rate(counts["pgf.mul_rows.width_sum"], mul_calls), "width")
    m["pgf.mul_rows.computed_madds"] = (counts["pgf.mul_rows.computed_madds"], "count")
    m["pgf.mul_rows.computed_madds_per_s"] = (
        _rate(counts["pgf.mul_rows.computed_madds"], self_s("pgf.mul_rows")),
        "1/s",
    )
    for name in ("pgf.recip_rows", "pgf.pow_rows"):
        m[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        m[f"{name}.self_share"] = share(self_s(name))
    for name in ("environment.rate_function_at_zero", "environment.solve_critical_tilt"):
        m[f"{name}.share"] = share(incl_s(name))
    m["environment.sample_indices.calls"] = (counts["environment.sample_indices.calls"], "count")
    m["environment.sample_indices.draws"] = (counts["environment.sample_indices.draws"], "count")
    m["environment.sample_indices.self_share"] = share(self_s("environment.sample_indices"))
    m["lf.lf_rho.share"] = share(incl_s("lf.lf_rho"))
    m["laws.pgf.calls"] = (counts["laws.pgf.calls"], "count")
    m["laws.sample.calls"] = (counts["laws.sample.calls"], "count")
    m["laws.sample.self_share"] = share(self_s("laws.sample"))

    mrca_jobs = [j for j in jobs if j.kind == "mrca"]
    accepted = sum(
        pt["accepted"] for j in mrca_jobs for pt in docs[j.job_id]["estimated"]["points"]
    )
    for lane in spans.MRCA_LANES:
        name = f"simulate.mrca.{lane}"
        lane_jobs = [j for j in mrca_jobs if j.mrca["lane"] == lane]
        props, acc = counts[f"{name}.proposals"], counts[f"{name}.accepted"]
        m[f"{name}.proposals"] = (props, "count")
        m[f"{name}.accepted"] = (acc, "count")
        m[f"{name}.proposals_per_s"] = (
            _rate(sum(j.proposals for j in lane_jobs), sum(job_s[j.job_id] for j in lane_jobs)),
            "1/s",
        )
        m[f"{name}.accept_ratio"] = (_rate(acc, props), "frac")
    m["simulate.mrca.accepted_per_s"] = (
        _rate(accepted, sum(job_s[j.job_id] for j in mrca_jobs)),
        "1/s",
    )
    se2 = [
        max(pt["se_above_delta"] ** 2 for pt in docs[j.job_id]["estimated"]["points"])
        * job_s[j.job_id]
        for j in mrca_jobs
    ]
    m["simulate.mrca.se2_x_s"] = (max(se2, default=0.0), "se2.s")
    m["simulate.geiger_sample.calls"] = (counts["simulate.geiger_sample.calls"], "count")
    m["simulate.geiger_sample.self_share"] = share(self_s("simulate.geiger_sample"))

    is_jobs = [j for j in jobs if j.kind == "is"]
    rel_se = {}
    for j in is_jobs:
        est = docs[j.job_id]["estimated"]
        rel_se[j.job_id] = est["std_error"] / est["small_value_probability"]
    m["simulate.importance_estimate.reps"] = (counts["simulate.importance_estimate.reps"], "count")
    m["simulate.importance_estimate.self_share"] = share(self_s("simulate.importance_estimate"))
    m["simulate.importance_estimate.reps_per_s"] = (
        _rate(sum(j.reps for j in is_jobs), sum(job_s[j.job_id] for j in is_jobs)),
        "1/s",
    )
    m["simulate.importance_estimate.rel_se"] = (max(rel_se.values(), default=0.0), "frac")
    m["simulate.importance_estimate.se2_x_s"] = (
        max((rel_se[j.job_id] ** 2 * job_s[j.job_id] for j in is_jobs), default=0.0),
        "se2.s",
    )
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "frac")
    m["trace.spans"] = (len(tracer.spans) // len(tracer.pass_counts), "count")
    return m


def seconds_table(tracer) -> dict[str, dict[str, float]]:
    """Mean self and inclusive seconds per span name over traced passes."""
    return {
        name: {
            "self_s": statistics.fmean(t["self_s"]),
            "incl_s": statistics.fmean(t["incl_s"]),
        }
        for name, t in sorted(tracer.times().items())
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    cli = load_bpre()
    os.chdir(ROOT)
    env_record = environment_record()
    refs = json.loads(REFERENCES.read_text())
    jobs = wl.WORKLOADS[args.workload]
    wl.write_models()
    artifact_dir = wl.OUT_DIR / "artifacts" / args.workload
    artifact_dir.mkdir(parents=True, exist_ok=True)

    # untimed pass: every artifact is checked against its oracle
    first = run_pass(cli, jobs, artifact_dir, args.seed)
    docs, problems = {}, {}
    for job, r in zip(jobs, first):
        if r.code != 0:
            problems[job.job_id] = [f"exit {r.code}: {r.error}"]
            continue
        docs[job.job_id] = json.loads((artifact_dir / f"{job.job_id}.json").read_text())
        found = oracles.check(job, docs[job.job_id], refs)
        if found:
            problems[job.job_id] = found

    # timed passes, each after set-up probes with trace 0, fill --seconds;
    # no pass starts that would overrun it.  Interleaving spreads both
    # samples over the whole window, so slow drifts in machine speed
    # affect them alike.
    timed: list[list[JobRun]] = []
    setup_times: list[float] = []
    t0 = time.perf_counter()
    while not timed or (time.perf_counter() - t0) * (len(timed) + 1) / len(timed) <= args.seconds:
        if args.trace == 0:
            setup_times += measure_setup(args.workload, args.seed, PROBES_PER_PASS)
        timed.append(run_pass(cli, jobs, artifact_dir, args.seed, timed=True))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    traced: list[list[JobRun]] = []
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            for _ in range(TRACED_PASSES):
                tracer.start_pass()
                traced.append(run_pass(cli, jobs, artifact_dir, args.seed, tracer))
        finally:
            tracer.uninstall()
        for i, c in enumerate(tracer.pass_counts[1:], 1):
            if c != tracer.pass_counts[0]:
                problems.setdefault("trace", []).append(f"traced pass {i} counters differ")

    # every later run of a job must reproduce the first pass byte for byte;
    # a run that does reproduce a failed first run fails too
    failed_first = set(problems)
    attempted = failed = 0
    for runs in [first] + timed + traced:
        for job, r, ref in zip(jobs, runs, first):
            attempted += 1
            bad = r.code != 0 or r.digest != ref.digest or job.job_id in failed_first
            found = problems.setdefault(job.job_id, [])
            if r is not ref and r.code != 0:
                found.append(f"exit {r.code}: {r.error}")
            elif r.digest != ref.digest:
                found.append("artifact digest differs from the first pass")
            failed += bad
    failed += len(problems.get("trace", []))
    problems = {k: v for k, v in problems.items() if v}
    correct = failed == 0

    job_s = {
        job.job_id: statistics.fmean(runs[i].seconds for runs in timed)
        for i, job in enumerate(jobs)
    }
    untraced_wall = statistics.fmean(sum(r.seconds for r in runs) for runs in timed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_record,
        "passes": {"checked": 1, "timed": len(timed), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": {job.job_id: r.digest for job, r in zip(jobs, first)},
        "job_seconds_mean": job_s,
        "pass_seconds": [sum(r.seconds for r in runs) for runs in timed],
        "setup_seconds": setup_times,
    }
    if args.trace:
        traced_walls = [sum(r.seconds for r in runs) for runs in traced]
        table = seconds_table(tracer)
        metrics = {}
        if correct:  # per-layer metrics read every artifact
            traced_wall = statistics.fmean(traced_walls)
            metrics = per_layer(jobs, docs, first, job_s, tracer, table, untraced_wall, traced_wall)
        report["counts"] = dict(sorted(tracer.pass_counts[0].items()))
        report["span_seconds"] = table
        report["traced_pass_seconds"] = traced_walls
        tracer.write_jsonl(wl.OUT_DIR / f"spans_{args.workload}_seed{args.seed}.jsonl")
    else:
        metrics, plain = end_to_end(args.workload, jobs, timed, setup_times, peak_rss_mb)
        report["plain_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in plain.items()}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report_path = wl.OUT_DIR / f"report_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"environment: {json.dumps(env_record, sort_keys=True)}")
    for job_id, digest in report["digests"].items():
        print(f"digest {job_id} sha256:{digest}")
    for job_id, found in problems.items():
        for p in found:
            print(f"FAIL {job_id}: {p}")
    if args.trace:
        for name, t in report["span_seconds"].items():
            print(f"span {name}.s {t['incl_s']:.6f} s  self {t['self_s']:.6f} s")
        for name, value in report["counts"].items():
            tag = " [computed]" if "computed" in name else ""
            print(f"count {name} {value}{tag}")
    for name, m in report.get("plain_metrics", {}).items():
        print(f"plain {name} {m['value']!r} {m['unit']}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"fail_frac {failed / attempted!r} ({failed}/{attempted})  report: {report_path}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
