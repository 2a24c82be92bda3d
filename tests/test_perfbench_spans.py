"""The benchmark's tracer wraps library functions by module and name.

``perfbench/spans.py`` looks each traced function up in ``sys.modules`` and
replaces it in every ``bpre`` namespace that holds it, so renaming or moving
one breaks traced benchmark runs.  This test installs the tracer on the
imported library and checks that it resolves everything and undoes itself.
"""

from pathlib import Path

import bpre.cli  # noqa: F401  (imports every module the tracer patches)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_every_traced_function_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install()  # a traced function that no longer resolves raises here
    try:
        patches = list(tracer._patches)
        for owner, attr, original in patches:
            assert getattr(owner, attr).__wrapped__ is original, (owner, attr)
        patched = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in patches}
        # the rate spans of the rho_certified workload
        assert {("bpre.lf", "lf_rho"), ("bpre.rates", "rho_report")} <= patched
        layers = {name.split(".")[1] for name, _ in patched if name and name.startswith("bpre.")}
        assert layers >= {"cli", "rates", "exact", "pgf", "environment", "lf", "simulate"}
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)
