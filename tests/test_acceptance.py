"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here.  Exact quantities come from enumeration or
closed forms; statistical criteria state their sample sizes and run with
fixed seeds that were not tuned against the assertions (the margins were
verified to be many standard errors wide).
"""

import math
import time

import numpy as np
import pytest

from bpre.environment import EnvironmentModel, solve_critical_tilt
from bpre.exact import (
    EnvSequence,
    annealed_pmf,
    annealed_pmf_row,
    fekete_bounds,
    quenched_coeff_row,
    quenched_survival,
    subtree_extinction_identity,
)
from bpre.laws import FiniteLaw
from bpre.lf import lf_rho
from bpre.models import (
    gw_binary,
    intermediate_model,
    random_supercritical_lf_model,
    strongly_model,
    weakly_mrca_model,
    weakly_model,
    weakly_slope_model,
)
from bpre.rates import example1_suite, example2_suite, rate_function_at_zero
from bpre.simulate import conditioned_mrca_sample, geiger_sample, importance_estimate, stream, subseed

from helpers import random_finite_law

LOG2 = math.log(2.0)


def _report(num, ok, detail):
    print(f"CRITERION {num:>2} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


def test_criterion_01_gw_baseline():
    """Single-state binary law: small-value rate approaches log 2."""
    t0 = time.time()
    model = gw_binary()
    # event of the classical baseline: 1 <= Z_n <= 2 from a single ancestor
    a = {}
    for n in range(1, 25):
        row = annealed_pmf_row(model, 1, n, 2)
        a[n] = -math.log(row[1] + row[2])
    v24 = a[24] / 24
    close = abs(v24 - LOG2) <= 0.02
    # monotone decrease from above once the event is in its rare regime
    tail = [a[n] / n for n in range(5, 25)]
    monotone = all(x > y for x, y in zip(tail, tail[1:])) and all(x > LOG2 for x in tail)
    # the z0 -> z0 subadditive sequence is monotone from above over the full range
    table = fekete_bounds(model, z0=2, n_max=24)
    vals = [r.a_n_over_n for r in table.rows]
    fekete_monotone = all(x > y for x, y in zip(vals, vals[1:])) and all(v > LOG2 for v in vals)
    elapsed = time.time() - t0
    _report(
        1,
        close and monotone and fekete_monotone and elapsed < 1.0,
        f"a_24/24={v24:.6f} (|diff|={abs(v24 - LOG2):.6f} <= 0.02), "
        f"monotone from above on n in [5,24]={monotone}, "
        f"z0=2 table monotone={fekete_monotone} (its a_24/24={vals[-1]:.6f}), "
        f"runtime={elapsed:.2f}s < 1s",
    )


def test_criterion_02_example1_identity():
    """P_1(Z_n = 1) = r^n exactly for r = 0.3 up to n = 20."""
    t0 = time.time()
    rep = example1_suite(0.3, 0.5, n_max=20, table_limit=4)
    # spot enumeration beyond the shortcut threshold
    from bpre.models import example1_model

    spot = annealed_pmf(example1_model(0.3, 0.5), 1, 14, 1)
    spot_err = abs(math.log(spot) - 14 * math.log(0.3))
    ok = rep.identity_max_log_error <= 1e-12 and spot_err <= 1e-12
    elapsed = time.time() - t0
    _report(
        2,
        ok and elapsed < 10.0,
        f"max log error (n<=10 enumerated)={rep.identity_max_log_error:.2e} <= 1e-12, "
        f"spot check n=14 err={spot_err:.2e}, runtime={elapsed:.2f}s < 10s",
    )


def test_criterion_03_example1_separation():
    """r = 0.1, p = 0.5: exact tables to n = 16 show the rate gap >= 0.1."""
    t0 = time.time()
    rep = example1_suite(0.1, 0.5, n_max=16, table_limit=16)
    gaps = [v - math.log(0.1) for v in rep.log_p2_over_n]
    ok = rep.separated and all(g >= 0.1 for g in gaps)
    elapsed = time.time() - t0
    _report(
        3,
        ok and elapsed < 120.0,
        f"min gap over n<=16 = {min(gaps):.4f} >= 0.1, runtime={elapsed:.2f}s < 2min",
    )


def test_criterion_04_example2_fixed_point():
    """p = 0.1, a = 10: extinction fixed point to 1e-12, below 2p."""
    t0 = time.time()
    rep = example2_suite(0.5, 0.1, 10, n_max=2)
    ok = rep.fixed_point_residual <= 1e-12 and rep.fixed_point <= 0.2
    elapsed = time.time() - t0
    _report(
        4,
        ok and elapsed < 1.0,
        f"|s_e - f2(s_e)|={rep.fixed_point_residual:.2e} <= 1e-12, "
        f"s_e={rep.fixed_point:.6f} <= 0.2, runtime={elapsed:.2f}s < 1s",
    )


def test_criterion_05_subtree_extinction_identity():
    """Side-subtree extinction identity on 1000 random environments."""
    t0 = time.time()
    rng = np.random.default_rng(20240)
    checked = 0
    worst = 0.0
    while checked < 1000:
        n = int(rng.integers(1, 9))
        laws = tuple(random_finite_law(rng, max_support=3) for _ in range(n))
        env = EnvSequence(laws)
        z = int(rng.integers(1, 4))
        if quenched_survival(env, z) <= 1e-9:
            continue
        lhs, rhs = subtree_extinction_identity(env, z)
        worst = max(worst, abs(lhs - rhs))
        checked += 1
    elapsed = time.time() - t0
    _report(
        5,
        worst <= 1e-12 and elapsed < 10.0,
        f"1000 random envs (len<=8, z<=3): max |lhs-rhs|={worst:.2e} <= 1e-12, "
        f"runtime={elapsed:.2f}s < 10s",
    )


def test_criterion_06_geiger_total_variation():
    """Conditioned sampler vs enumerated law of Z_3 given survival."""
    t0 = time.time()
    env = EnvSequence(
        (
            FiniteLaw((0.3, 0.4, 0.3)),
            FiniteLaw((0.2, 0.3, 0.5)),
            FiniteLaw((0.4, 0.3, 0.3)),
        )
    )
    row = quenched_coeff_row(env, 1, 8)
    exact = row[1:] / (1.0 - row[0])
    rng = stream(606, 0)
    reps = 100_000
    freq = np.zeros(8)
    for _ in range(reps):
        z = geiger_sample(env, 1, rng).z_n
        if z <= 8:
            freq[z - 1] += 1
    freq /= reps
    tv = 0.5 * float(np.abs(exact - freq).sum())
    elapsed = time.time() - t0
    _report(
        6,
        tv <= 0.02 and elapsed < 30.0,
        f"TV(sampled, enumerated)={tv:.4f} <= 0.02 at 1e5 samples, "
        f"runtime={elapsed:.2f}s < 30s",
    )


def test_criterion_07_lf_rate_consistency():
    """Closed-form rate below every certified bound; slope within 0.08."""
    t0 = time.time()
    details = []
    ok = True
    for name, model in (("weakly", weakly_slope_model()), ("strongly", strongly_model())):
        rho = lf_rho(model).rho
        a = {}
        for n in range(1, 23):
            a[n] = -math.log(annealed_pmf(model, 1, n, 1))
            if rho > a[n] / n + 1e-9:
                ok = False
        slope = (a[22] - a[11]) / 11.0
        gap = abs(slope - rho)
        ok = ok and gap <= 0.08
        details.append(f"{name}: rho={rho:.4f} slope={slope:.4f} |diff|={gap:.4f}")
    elapsed = time.time() - t0
    _report(
        7,
        ok and elapsed < 600.0,
        "; ".join(details) + f"; bounds hold for all n <= 22; runtime={elapsed:.1f}s < 10min",
    )


def test_criterion_08_rate_function_ordering():
    """rho estimates <= Lambda(0) + 1e-9 on 20 randomized supercritical models."""
    t0 = time.time()
    rng = np.random.default_rng(808)
    ok = True
    worst = -math.inf
    for _ in range(20):
        model = random_supercritical_lf_model(rng)
        rho = lf_rho(model).rho
        lam0 = rate_function_at_zero(model).value
        table = fekete_bounds(model, n_max=10)
        ok = ok and rho <= lam0 + 1e-9
        ok = ok and all(rho <= r.a_n_over_n + 1e-9 for r in table.rows)
        worst = max(worst, rho - lam0)
    elapsed = time.time() - t0
    _report(
        8,
        ok and elapsed < 1200.0,
        f"20 random models: max(rho - Lambda(0))={worst:.2e} <= 1e-9 and "
        f"rho below every a_n/n (n<=10); runtime={elapsed:.1f}s < 20min",
    )


@pytest.fixture(scope="module")
def mrca_runs():
    """Shared conditioned-MRCA runs for criterion 9 (>= 1e4 accepted each)."""
    jobs = {
        ("strongly", 8): (strongly_model(), 1_400_000),
        ("strongly", 16): (strongly_model(), 8_000_000),
        ("weakly", 8): (weakly_mrca_model(), 1_700_000),
        ("weakly", 12): (weakly_mrca_model(), 3_500_000),
        ("weakly", 16): (weakly_mrca_model(), 6_000_000),
        ("intermediate", 12): (intermediate_model(), 2_500_000),
        ("intermediate", 24): (intermediate_model(), 10_600_000),
    }
    out = {}
    for (name, n), (model, props) in jobs.items():
        out[(name, n)] = conditioned_mrca_sample(
            model, n, 2, "geiger", proposals=props, root_seed=subseed(909, name, n)
        )
    return out


def test_criterion_09_mrca_regimes(mrca_runs):
    """Three conditioned-MRCA regimes at 1e4+ accepted samples per point."""
    t0 = time.time()
    enough = all(d.accepted >= 10_000 for d in mrca_runs.values())

    s8, s16 = mrca_runs[("strongly", 8)], mrca_runs[("strongly", 16)]
    p8, p16 = s8.mass_above(4.0), s16.mass_above(8.0)
    se = math.sqrt(
        p8 * (1 - p8) / s8.accepted + p16 * (1 - p16) / s16.accepted
    )
    strongly_ok = p16 < p8 - 2.0 * se

    weakly_ok = True
    weakly_detail = []
    for n in (8, 12, 16):
        d = mrca_runs[("weakly", n)]
        weakly_ok = weakly_ok and d.pmf(1) >= 0.02 and d.pmf(n) >= 0.02
        weakly_detail.append(f"n={n}: P(1)={d.pmf(1):.3f} P(n)={d.pmf(n):.3f}")

    i12, i24 = mrca_runs[("intermediate", 12)], mrca_runs[("intermediate", 24)]
    ratio = (24 * i24.pmf(24)) / (12 * i12.pmf(12))
    intermediate_ok = 1.0 / 3.0 <= ratio <= 3.0

    elapsed = time.time() - t0
    _report(
        9,
        enough and strongly_ok and weakly_ok and intermediate_ok,
        f"accepted>=1e4 per point={enough}; strongly P(>n/2): {p8:.4f} -> {p16:.4f} "
        f"(drop {(p8 - p16) / se:.1f} pooled SEs >= 2); weakly endpoints "
        f"[{'; '.join(weakly_detail)}] all >= 0.02; intermediate n*P(=n) ratio "
        f"12->24 = {ratio:.3f} in [1/3, 3]; stats time={elapsed:.1f}s",
    )


def test_criterion_10_importance_sampling_coverage():
    """99% CI of the tilted estimator covers the exact value >= 190/200 runs."""
    t0 = time.time()
    model = weakly_model()
    nu = solve_critical_tilt(model)
    exact = float(annealed_pmf_row(model, 1, 10, 4)[1:].sum())
    z99 = 2.5758293035489004
    cover = 0
    for run in range(200):
        est = importance_estimate(
            model, 1, 10, 4, nu, 400, root_seed=subseed(424242, "cov", run)
        )
        if abs(est.estimate - exact) <= z99 * est.std_error:
            cover += 1
    elapsed = time.time() - t0
    _report(
        10,
        cover >= 190 and elapsed < 300.0,
        f"coverage={cover}/200 >= 190 (exact P(1<=Z_10<=4)={exact:.6e}), "
        f"runtime={elapsed:.1f}s < 5min",
    )
