import json
import subprocess
import sys
from pathlib import Path

from bpre.environment import rate_function_at_zero
from bpre.models import weakly_model

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, out_dir, *args):
    argv = [sys.executable, str(SCRIPTS / script), "--out-dir", str(out_dir), *args]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=out_dir.parent)
    assert proc.returncode == 0, proc.stderr


def test_rho_bounds_script_writes_every_report(tmp_path):
    out = tmp_path / "rho"
    _run("rho_bounds.py", out, "--n-max", "4")
    for name in ("gw_binary", "weakly", "strongly", "intermediate"):
        assert (out / f"{name}.json").is_file() and (out / f"{name}.csv").is_file()
    weakly = json.loads((out / "weakly.json").read_text())
    assert weakly["certified"]["lambda0"] == rate_function_at_zero(weakly_model()).value


def test_example_tables_script_writes_both_examples(tmp_path):
    out = tmp_path / "examples"
    _run("example_tables.py", out, "--n-max", "6")
    for name in ("example1", "example2"):
        json.loads((out / f"{name}.json").read_text())


def test_mrca_regimes_script_writes_every_regime(tmp_path):
    out = tmp_path / "mrca"
    _run("mrca_regimes.py", out, "--accepted-target", "200")
    for name in ("strongly", "weakly", "intermediate"):
        doc = json.loads((out / f"{name}.json").read_text())
        assert doc["certified"]["regime"] == name
        assert len(doc["estimated"]["points"]) == 3
        assert all(pt["accepted"] > 0 for pt in doc["estimated"]["points"])
        assert (out / f"{name}.csv").is_file()
