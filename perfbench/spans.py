"""Tracing from outside the library.

``Tracer.install`` wraps each traced public function of ``bpre`` by
replacing the attribute in every ``bpre`` module namespace that holds it
(``apply_law_rows`` is bound in ``bpre.pgf``, ``bpre.exact`` and
``bpre.simulate``, for example), and wraps methods on their class.
``uninstall`` puts the originals back.  Spans (name, start, end, parent,
job) are kept in memory and written as JSONL when the traced passes end.

Span names are ``<layer>.<function>``; the layer is the ``bpre`` module the
function belongs to.  Counters are exact counts taken from the arguments
and results of the traced calls; ``pgf.mul_rows.computed_madds`` is
computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "rates", "exact", "pgf", "environment", "lf", "laws", "simulate")
MRCA_LANES = ("lf_t2", "lf_t3", "generic", "rejection")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _mrca_lane(args, kwargs) -> str:
    model = _arg(args, kwargs, 0, "model")
    target = _arg(args, kwargs, 2, "target_size")
    method = _arg(args, kwargs, 3, "method")
    if method == "rejection":
        return "rejection"
    if not model.is_lf_pure:
        return "generic"
    return "lf_t2" if target == 2 else "lf_t3"


def _law_kind(args, kwargs) -> str:
    return "finite" if hasattr(_arg(args, kwargs, 0, "law"), "probs") else "lf"


class Tracer:
    """Span recorder and counter set for the traced passes of one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, job, pass]
        self.pass_counts: list[Counter] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def pass_index(self) -> int:
        return len(self.pass_counts) - 1

    @property
    def counts(self) -> Counter:
        return self.pass_counts[-1]

    def start_pass(self) -> None:
        """Spans and counters that follow belong to a new pass."""
        self.pass_counts.append(Counter())

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sname = name(args, kwargs) if callable(name) else name
            self.counts[sname + ".calls"] += 1
            if before is not None:
                before(self.counts, sname, args, kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([sname, clock(), 0.0, parent, self.job, self.pass_index])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(self.counts, sname, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_function(self, module_name: str, attr: str, wrapper_factory) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_factory(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bpre" or mod_name.startswith("bpre.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, wrapper_factory) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper_factory(original))

    def install(self) -> None:
        from bpre.environment import EnvironmentModel
        from bpre.laws import FiniteLaw, LinearFractionalLaw

        span = self._span

        def rows(counts, sname, args, kwargs):
            counts[sname + ".rows"] += _arg(args, kwargs, 1, "c").shape[0]

        def mul(counts, sname, args, kwargs):
            m, width = _arg(args, kwargs, 0, "a").shape
            counts[sname + ".width_sum"] += width
            counts[sname + ".computed_madds"] += m * width * (width + 1) // 2

        def draws(counts, sname, args, kwargs):
            size = _arg(args, kwargs, 2, "size")  # args[0] is the model
            counts[sname + ".draws"] += math.prod(size) if isinstance(size, tuple) else int(size)

        def envs(counts, sname, args, kwargs):
            model = _arg(args, kwargs, 0, "model")
            counts["exact.envs"] += len(model.states) ** _arg(args, kwargs, 2, "n")

        def mrca_done(counts, sname, args, kwargs, result):
            counts[sname + ".proposals"] += result.proposed
            counts[sname + ".accepted"] += result.accepted

        def is_done(counts, sname, args, kwargs, result):
            counts[sname + ".reps"] += result.replicates

        functions = [
            ("bpre.cli", "main", "cli.main", None, None),
            ("bpre.rates", "rho_report", "rates.rho_report", None, None),
            ("bpre.rates", "mrca_regime_suite", "rates.mrca_regime_suite", None, None),
            ("bpre.exact", "smallest_reachable", "exact.smallest_reachable", None, None),
            ("bpre.exact", "fekete_bounds", "exact.fekete_bounds", None, None),
            ("bpre.exact", "annealed_pmf_row", "exact.annealed_pmf_row", envs, None),
            (
                "bpre.pgf",
                "apply_law_rows",
                lambda a, k: "pgf.apply_law_rows." + _law_kind(a, k),
                rows,
                None,
            ),
            ("bpre.pgf", "mul_rows", "pgf.mul_rows", mul, None),
            ("bpre.pgf", "recip_rows", "pgf.recip_rows", None, None),
            ("bpre.pgf", "pow_rows", "pgf.pow_rows", None, None),
            ("bpre.environment", "rate_function_at_zero", "environment.rate_function_at_zero",
             None, None),
            ("bpre.environment", "solve_critical_tilt", "environment.solve_critical_tilt",
             None, None),
            ("bpre.lf", "lf_rho", "lf.lf_rho", None, None),
            (
                "bpre.simulate",
                "conditioned_mrca_sample",
                lambda a, k: "simulate.mrca." + _mrca_lane(a, k),
                None,
                mrca_done,
            ),
            ("bpre.simulate", "geiger_sample", "simulate.geiger_sample", None, None),
            ("bpre.simulate", "importance_estimate", "simulate.importance_estimate", None, is_done),
        ]
        for module_name, attr, name, before, after in functions:
            self._patch_function(
                module_name, attr, lambda fn, n=name, b=before, a=after: span(n, fn, b, a)
            )
        self._patch_method(
            EnvironmentModel,
            "sample_indices",
            lambda fn: span("environment.sample_indices", fn, draws),
        )
        for cls in (FiniteLaw, LinearFractionalLaw):
            # pgf is called once per generation per proposal: count only
            self._patch_method(cls, "pgf", lambda fn: self._counter("laws.pgf", fn))
            self._patch_method(cls, "sample", lambda fn: span("laws.sample", fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "job", "pass")
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")

    def times(self) -> dict[str, dict[str, list[float]]]:
        """Per span name and per pass: inclusive and self seconds.

        Self time is the span's duration minus the time its child spans
        cover.  Returns {name: {"incl_s": [...per pass], "self_s": [...]}}.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job, _p in self.spans:
            if parent >= 0:
                child[parent] += end - start
        n_passes = len(self.pass_counts)
        out: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: {"incl_s": [0.0] * n_passes, "self_s": [0.0] * n_passes}
        )
        for i, (name, start, end, parent, _job, p) in enumerate(self.spans):
            entry = out[name]
            entry["self_s"][p] += (end - start) - child[i]
            entry["incl_s"][p] += end - start
        return dict(out)
