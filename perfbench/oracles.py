"""Output checks for every job kind.  Each returns a list of problems.

* certified (``rho`` tables, closed forms, wide pmf rows): every value
  present in the references recorded at the seed commit must match to
  1e-12 relative.  Keys added later are not compared.
* mrca: bins sum to ``accepted`` and ``accepted/proposed`` lies within
  4 binomial SE of the enumerated ``P(Z_n = target)``.
* is: finite and positive; within 4 SE of the enumerated value where the
  horizon can be enumerated.
"""

from __future__ import annotations

import math

REL_TOL = 1e-12
N_SE = 4.0


def annealed_key(model: str, z0: int, n: int, j_lo: int, j_hi: int) -> str:
    """Reference key of the annealed P(j_lo <= Z_n <= j_hi | Z_0 = z0)."""
    return f"{model}:z0={z0}:n={n}:j={j_lo}..{j_hi}"


def _match(got, ref, where: str, out: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            out.append(f"{where}: expected an object")
            return
        for key, value in ref.items():
            if key not in got:
                out.append(f"{where}.{key}: missing")
            else:
                _match(got[key], value, f"{where}.{key}", out)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            out.append(f"{where}: expected a list of {len(ref)}")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _match(g, r, f"{where}[{i}]", out)
    elif isinstance(ref, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if math.isnan(ref) or math.isinf(ref):
            ok = got == ref or (math.isnan(ref) and math.isnan(got))
        else:
            ok = abs(got - ref) <= REL_TOL * max(abs(got), abs(ref))
        if not ok:
            out.append(f"{where}: {got!r} != reference {ref!r}")
    elif got != ref:
        out.append(f"{where}: {got!r} != reference {ref!r}")


def check(job, doc: dict, refs: dict) -> list[str]:
    problems: list[str] = []
    if job.kind == "certified":
        ref = refs["certified"].get(job.job_id)
        if ref is None:
            return [f"no reference recorded for {job.job_id}"]
        _match(doc.get("certified"), ref, "certified", problems)
    elif job.kind == "mrca":
        _check_mrca(job, doc, refs, problems)
    elif job.kind == "is":
        _check_is(job, doc, refs, problems)
    return problems


def _check_mrca(job, doc: dict, refs: dict, out: list[str]) -> None:
    target = job.mrca["target"]
    points = {pt["n"]: pt for pt in doc["estimated"]["points"]}
    for n in job.mrca["n_list"]:
        pt = points.get(n)
        if pt is None:
            out.append(f"n={n}: no point")
            continue
        binned = sum(b["count"] for b in pt["bins"])
        if binned != pt["accepted"]:
            out.append(f"n={n}: bins sum to {binned}, accepted {pt['accepted']}")
        p = refs["annealed"][annealed_key(job.model, 1, n, target, target)]
        proposed = pt["proposed"]
        se = math.sqrt(p * (1.0 - p) / proposed)
        rate = pt["accepted"] / proposed
        if abs(rate - p) > N_SE * se:
            out.append(
                f"n={n}: accepted/proposed {rate:.6g} vs exact {p:.6g} (> {N_SE} SE = {se:.3g})"
            )


def _check_is(job, doc: dict, refs: dict, out: list[str]) -> None:
    est = doc["estimated"]
    value, se = est["small_value_probability"], est["std_error"]
    if not (math.isfinite(value) and value > 0.0 and math.isfinite(se)):
        out.append(f"estimate {value!r} (se {se!r}) not finite and positive")
        return
    a = job.is_args
    key = annealed_key(job.model, a["z0"], a["n"], 1, a["j_max"])
    if not a["enumerable"]:
        return
    exact = refs["annealed"][key]
    if abs(value - exact) > N_SE * se:
        out.append(f"estimate {value:.6g} vs exact {exact:.6g} (> {N_SE} SE = {se:.3g})")
