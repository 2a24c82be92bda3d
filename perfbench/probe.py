"""Set-up probe: run in a fresh interpreter and timed from outside.

Imports ``bpre`` from the checkout, loads every model of the workload
through the CLI's loader and makes one minimal call per command the
workload uses.  Usage: ``python3 perfbench/probe.py <workload> <seed>``.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bpre import cli  # noqa: E402

from workloads import PROBE_CALLS, WORKLOADS, model_path  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], sys.argv[2]
    for name in sorted({job.model for job in WORKLOADS[workload]}):
        cli.ExperimentConfig(command="validate", model=str(model_path(name))).load_model()
    for command, model, options in PROBE_CALLS[workload]:
        argv = [command, "--model", str(model_path(model))]
        argv += [opt.format(seed=seed) for opt in options]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            sys.stderr.write(f"probe call {argv} exited {code}\n")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
