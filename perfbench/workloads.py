"""Workload definitions: models, CLI jobs and their work units.

A workload is a fixed list of ``bpre`` CLI invocations.  The seed only
enters through ``--seed``; models and horizons are constants, so certified
outputs are identical for every seed and Monte Carlo outputs are a pure
function of the seed.

Models are written out as JSON here rather than taken from ``bpre.models``
so that a change to the library's bundled models cannot silently change
the benchmark's inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path


def _geometric_lf(x: float) -> dict:
    m = math.exp(x)
    return {"type": "lf", "m": m, "b": 2.0 * m * m}


_W_INTERMEDIATE = math.exp(0.6) / (1.0 + math.exp(0.6))

# the three canonical LF regimes, the deep-excursion weakly model used for
# MRCA, and a 2-state finite model (which routes MRCA to the generic lane)
MODELS = {
    "strongly": {"states": [_geometric_lf(0.3), _geometric_lf(-0.2)], "weights": [0.8, 0.2]},
    "weakly": {
        "states": [{"type": "lf", "m": 2.0, "b": 8.0}, {"type": "lf", "m": 0.5, "b": 0.5}],
        "weights": [2.0 / 3.0, 1.0 / 3.0],
    },
    "intermediate": {
        "states": [_geometric_lf(0.3), _geometric_lf(-0.3)],
        "weights": [_W_INTERMEDIATE, 1.0 - _W_INTERMEDIATE],
    },
    "weakly_mrca": {"states": [_geometric_lf(1.0), _geometric_lf(-1.0)], "weights": [0.6, 0.4]},
    "finite": {
        "states": [
            {"type": "finite", "probs": [0.2, 0.5, 0.3]},
            {"type": "finite", "probs": [0.4, 0.2, 0.4]},
        ],
        "weights": [0.5, 0.5],
    },
}

# working directory for models, artifacts and reports, relative to the
# checkout root so that model paths (part of each artifact's config hash)
# are the same in every checkout
OUT_DIR = Path("perfbench") / "_out"

# largest horizon whose IS estimate is checked against enumeration
ENUMERABLE_N = 20


@dataclass(frozen=True)
class Job:
    """One CLI call.  ``kind`` selects the output check and the work unit."""

    job_id: str
    command: str  # rho | mrca | exact
    kind: str  # certified | mrca | is
    model: str
    options: tuple[str, ...]
    # work units fixed by the arguments
    envs: int = 0
    proposals: int = 0
    reps: int = 0
    mrca: dict = field(default_factory=dict)  # n_list, target, lane
    is_args: dict = field(default_factory=dict)  # n, j_max, z0


def model_path(name: str) -> Path:
    return OUT_DIR / "models" / f"{name}.json"


def write_models() -> None:
    (OUT_DIR / "models").mkdir(parents=True, exist_ok=True)
    for name, obj in MODELS.items():
        model_path(name).write_text(json.dumps(obj, sort_keys=True) + "\n")


def _alphabet(model: str) -> int:
    return len(MODELS[model]["states"])


def _rho(model: str, n_max: int) -> Job:
    # fekete_bounds enumerates every horizon 1..n_max
    envs = sum(_alphabet(model) ** n for n in range(1, n_max + 1))
    return Job(f"rho_{model}", "rho", "certified", model, ("--n-max", str(n_max)), envs=envs)


def _exact(model: str, n: int, j_max: int) -> Job:
    return Job(
        f"exact_{model}_n{n}_j{j_max}",
        "exact",
        "certified",
        model,
        ("--n", str(n), "--j-max", str(j_max)),
        envs=_alphabet(model) ** n,
    )


def _mrca_lane(model: str, target: int, method: str) -> str:
    """The sampler ``conditioned_mrca_sample`` dispatches this job to."""
    if method == "rejection":
        return "rejection"
    if any(law["type"] != "lf" for law in MODELS[model]["states"]):
        return "generic"
    return "lf_t2" if target == 2 else "lf_t3"


def _mrca(model: str, n_list: tuple[int, ...], target: int, method: str, proposals: int) -> Job:
    n_txt = ",".join(map(str, n_list))
    return Job(
        f"mrca_{model}_t{target}_{method}_n{n_txt.replace(',', '-')}",
        "mrca",
        "mrca",
        model,
        (
            "--n-list", n_txt,
            "--target-size", str(target),
            "--method", method,
            "--replicates", str(proposals),
        ),
        proposals=proposals * len(n_list),
        mrca={"n_list": list(n_list), "target": target, "lane": _mrca_lane(model, target, method)},
    )


def _is(model: str, n: int, j_max: int, reps: int) -> Job:
    return Job(
        f"is_{model}_n{n}_j{j_max}",
        "exact",
        "is",
        model,
        ("--estimate", "--n", str(n), "--j-max", str(j_max), "--replicates", str(reps)),
        reps=reps,
        is_args={"n": n, "j_max": j_max, "z0": 1, "enumerable": n <= ENUMERABLE_N},
    )


WORKLOADS: dict[str, tuple[Job, ...]] = {
    # exact enumeration + reachability closure; pgf at widths <= 5
    "rho_certified": (
        _rho("strongly", 20),
        _rho("weakly", 20),
        _rho("intermediate", 20),
        _rho("finite", 20),
    ),
    # the four MRCA lanes: LF target 2, LF target 3 (subtree simulation),
    # generic spine on a finite model, and forward-tree rejection
    "mrca_conditioned": (
        _mrca("strongly", (8, 16), 2, "geiger", 100_000),
        _mrca("weakly_mrca", (8, 12), 2, "geiger", 100_000),
        _mrca("intermediate", (12, 18), 2, "geiger", 100_000),
        _mrca("strongly", (10,), 3, "geiger", 40_000),
        _mrca("finite", (8,), 2, "geiger", 3_000),
        _mrca("finite", (8,), 2, "rejection", 8_000),
    ),
    # pgf at wide widths (O(W^2) mul_rows, recip_rows) through importance
    # sampling, plus wide certified pmf rows
    "small_value_tail": (
        _is("weakly", 40, 64, 8_192),
        _is("weakly", 40, 4, 40_960),
        _is("weakly", 16, 4, 40_960),
        _exact("strongly", 12, 128),
        _exact("finite", 12, 128),
    ),
}

# the work unit behind work_per_s, per workload
WORK_UNIT = {
    "rho_certified": "envs",
    "mrca_conditioned": "proposals",
    "small_value_tail": "reps",
}

# one minimal call per command of the workload, for setup_s
PROBE_CALLS = {
    "rho_certified": (("rho", "finite", ("--n-max", "2")),),
    "mrca_conditioned": (
        ("mrca", "strongly", ("--n-list", "2", "--replicates", "4096", "--seed", "{seed}")),
    ),
    "small_value_tail": (("exact", "finite", ("--n", "2", "--j-max", "4")),),
}


def artifact_paths(job: Job, artifact_dir: Path) -> list[Path]:
    """The ``--out`` JSON, then the ``--csv`` table of commands that write one."""
    paths = [artifact_dir / f"{job.job_id}.json"]
    if job.command in ("rho", "mrca"):
        paths.append(artifact_dir / f"{job.job_id}.csv")
    return paths


def argv(job: Job, artifact_dir: Path, seed: int) -> list[str]:
    args = [job.command, "--model", str(model_path(job.model)), *job.options]
    if job.kind != "certified":
        args += ["--seed", str(seed)]
    for flag, path in zip(("--out", "--csv"), artifact_paths(job, artifact_dir)):
        args += [flag, str(path)]
    return args
