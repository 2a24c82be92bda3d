#!/usr/bin/env python3
"""Record the reference values the output checks compare against.

Run once from the root of a checkout at the commit that defines the
references: ``python3 perfbench/record_references.py``.  It writes
``perfbench/references.json`` with

* ``certified``: the ``certified`` section of every certified job's
  artifact, compared later to 1e-12 relative;
* ``annealed``: annealed probabilities by full enumeration, for the MRCA
  acceptance checks and the IS checks at enumerable horizons.
"""

import json
import os
import sys

import oracles
import workloads as wl
from run import REFERENCES, ROOT, load_bpre, run_job


def main() -> int:
    cli = load_bpre()
    from bpre.environment import EnvironmentModel
    from bpre.exact import annealed_pmf_row

    os.chdir(ROOT)
    wl.write_models()
    artifact_dir = wl.OUT_DIR / "artifacts" / "references"
    artifact_dir.mkdir(parents=True, exist_ok=True)
    refs = {"certified": {}, "annealed": {}}
    for jobs in wl.WORKLOADS.values():
        for job in jobs:
            model = EnvironmentModel.from_json(wl.MODELS[job.model])
            if job.kind == "certified":
                r = run_job(cli, job, artifact_dir, 0)
                if r.code != 0:
                    sys.stderr.write(f"{job.job_id}: exit {r.code}: {r.error}\n")
                    return 1
                doc = json.loads((artifact_dir / f"{job.job_id}.json").read_text())
                refs["certified"][job.job_id] = doc["certified"]
            elif job.kind == "mrca":
                t = job.mrca["target"]
                for n in job.mrca["n_list"]:
                    key = oracles.annealed_key(job.model, 1, n, t, t)
                    refs["annealed"][key] = float(annealed_pmf_row(model, 1, n, t)[t])
            elif job.kind == "is" and job.is_args["enumerable"]:
                a = job.is_args
                key = oracles.annealed_key(job.model, a["z0"], a["n"], 1, a["j_max"])
                row = annealed_pmf_row(model, a["z0"], a["n"], a["j_max"])
                refs["annealed"][key] = float(row[1:].sum())
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
