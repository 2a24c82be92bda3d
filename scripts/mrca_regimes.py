#!/usr/bin/env python3
"""Conditioned-MRCA regime experiment on the three canonical models.

For each regime, samples MRCA_n given Z_n = 2 across horizons from its
exact quenched law (method "geiger") and writes the per-horizon statistics
(endpoint masses, tail mass above delta*n, scaled sequences) with their
standard errors.  Proposal budgets per horizon scale with 1/P(Z_n = 2).
"""

import argparse
import json
import pathlib

from bpre.cli import emit_plot_data
from bpre.exact import annealed_pmf
from bpre.models import intermediate_model, strongly_model, weakly_mrca_model
from bpre.rates import mrca_regime_suite


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/mrca", type=pathlib.Path)
    ap.add_argument("--seed", default=20260810, type=int)
    ap.add_argument("--accepted-target", default=4000, type=int)
    ap.add_argument("--delta", default=0.5, type=float)
    args = ap.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    jobs = {
        "strongly": (strongly_model(), (8, 12, 16)),
        "weakly": (weakly_mrca_model(), (8, 12, 16)),
        "intermediate": (intermediate_model(), (12, 18, 24)),
    }
    for name, (model, n_list) in jobs.items():
        proposals = {}
        for n in n_list:
            p = annealed_pmf(model, 1, n, 2)
            proposals[n] = int(1.25 * args.accepted_target / p)
        report = mrca_regime_suite(
            model, n_list, proposals, root_seed=args.seed, delta=args.delta
        )
        doc = report.to_json()
        (args.out_dir / f"{name}.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        (args.out_dir / f"{name}.csv").write_text(emit_plot_data(doc))
        for pt in report.points:
            print(
                f"{name} n={pt.n}: accepted={pt.accepted} P(=1)={pt.pmf_first:.4f} "
                f"P(=n)={pt.pmf_last:.4f} P(>dn)={pt.mass_above_delta:.4f}"
            )


if __name__ == "__main__":
    main()
