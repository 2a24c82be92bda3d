import json
import math

import numpy as np
import pytest

from bpre import exact, rates
from bpre.environment import EnvironmentModel
from bpre.errors import ContractError
from bpre.exact import fekete_bounds
from bpre.laws import FiniteLaw, LinearFractionalLaw
from bpre.lf import lf_rho
from bpre.models import (
    example1_model,
    geometric_lf,
    gw_binary,
    intermediate_model,
    strongly_model,
    weakly_model,
)
from bpre.rates import (
    example1_suite,
    example2_suite,
    mrca_regime_suite,
    rho_report,
)

from helpers import monotone_rate


def gw_pgf_iteration_oracle(p0, n_max, z0=2):
    """Independent pgf-iteration oracle for the single-state binary model.

    Tracks the first coefficients of the n-fold iterate of f(s) = p0 + (1-p0) s^2
    and returns a_n = -log P_{z0}(Z_n = z0).
    """
    q2 = 1.0 - p0
    c0, c2 = 0.0, 0.0
    out = {}
    for n in range(1, n_max + 1):
        c2 = q2 if n == 1 else 2.0 * q2 * c0 * c2
        c0 = p0 + q2 * c0 * c0
        p_z2 = 2.0 * c0 * c2  # [s^2] of the square of the iterate
        out[n] = -math.log(p_z2)
    return out


def test_rho_report_gw_against_iteration_oracle():
    report = rho_report(gw_binary(), n_max=12)
    oracle = gw_pgf_iteration_oracle(0.25, 12)
    assert report.z0 == 2
    for row in report.fekete.rows:
        assert row.a_n == pytest.approx(oracle[row.n], abs=1e-9)
    vals = [r.a_n_over_n for r in report.fekete.rows]
    assert all(v > math.log(2.0) for v in vals)
    assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))
    assert math.isinf(report.lambda0)  # X > 0 a.s.: no environmental route
    assert report.lf_closed_form is None
    assert report.gamma_witness == pytest.approx(0.75)


def test_rho_report_gamma_ignores_zero_weight_states():
    base = weakly_model()
    padded = EnvironmentModel(base.states + (FiniteLaw((0.9, 0.0, 0.1)),), base.weights + (0.0,))
    assert rho_report(padded, n_max=4).gamma_witness == rho_report(base, n_max=4).gamma_witness
    assert rho_report(padded, n_max=4).gamma_witness == pytest.approx(1.0 / 3.0)


def test_zero_weight_finite_state_keeps_lf_closed_form():
    base = weakly_model()
    padded = EnvironmentModel(base.states + (FiniteLaw((0.9, 0.0, 0.1)),), base.weights + (0.0,))
    assert padded.is_lf_pure
    report = rho_report(padded, n_max=4)
    assert report.lf_closed_form is not None
    assert report.lf_closed_form == rho_report(base, n_max=4).lf_closed_form
    assert report.regime == "weakly"


def test_rho_report_orderings_on_lf_models():
    for model in (weakly_model(), strongly_model(), intermediate_model()):
        report = rho_report(model, n_max=8)
        rho = lf_rho(model).rho
        assert report.lf_closed_form == pytest.approx(rho, abs=1e-12)
        assert rho <= report.fekete_upper + 1e-9
        assert rho <= report.lambda0 + 1e-9
        doc = report.to_json()
        assert set(doc) == {"certified", "estimated"}
        assert doc["estimated"]["slope_estimate"] is not None


def test_rho_report_example1_upper_bounds():
    # supercritical variant: p < 1/2 so the binary state has mean > 1
    r, p = 0.3, 0.3
    model = example1_model(r, p)
    report = rho_report(model, n_max=12)
    assert report.z0 == 2
    bound = -math.log(max(r, (1.0 - r) * 2.0 * (1.0 - p) * p))
    assert report.fekete_upper <= bound + 0.05
    for row in report.fekete.rows:
        assert row.a_n_over_n <= -math.log(r) + 1e-9
    # Lambda(0) = -log r: the single-offspring state freezes the walk at zero
    assert report.lambda0 == pytest.approx(-math.log(r), abs=1e-9)
    assert report.lambda0_flag == "boundary"


def test_rho_report_routes_monotone_case():
    # no state can die out: z0 = 1 and P_1(Z_n = 1) = E[q(1)]^n, with no closure or LF form
    model = EnvironmentModel((FiniteLaw((0.0, 0.7, 0.3)),), (1.0,))
    report = rho_report(model, n_max=4)
    assert report.monotone_case and report.z0 == 1 and not report.closure_capped
    assert report.lf_closed_form is None and report.regime is None
    for row in report.fekete.rows:
        assert row.a_n_over_n == pytest.approx(monotone_rate(model), rel=1e-12)
    assert report.to_json()["certified"]["monotone_case"] is True
    assert rho_report(gw_binary(), n_max=4).monotone_case is False


def test_fekete_doubling_subsequence_non_increasing():
    table = fekete_bounds(weakly_model(), n_max=8)
    a = {r.n: r.a_n_over_n for r in table.rows}
    assert a[2] <= a[1] + 1e-12
    assert a[4] <= a[2] + 1e-12
    assert a[8] <= a[4] + 1e-12


def test_monotone_rho():
    single = EnvironmentModel((FiniteLaw((0.0, 0.7, 0.3)),), (1.0,))
    rho = monotone_rate(single)
    assert rho == pytest.approx(-math.log(0.7), rel=1e-12)
    assert monotone_rate(single, 2) == pytest.approx(2 * rho)  # one state: a fixed environment
    assert rho_report(single, n_max=6).fekete_upper == pytest.approx(rho, rel=1e-12)
    immortal = EnvironmentModel((FiniteLaw((0.0, 1.0)),), (1.0,))
    assert monotone_rate(immortal) == 0.0
    with pytest.raises(ContractError, match="not supercritical"):
        rho_report(immortal, n_max=4)
    doubling = EnvironmentModel((FiniteLaw((0.0, 0.0, 1.0)),), (1.0,))
    assert math.isinf(monotone_rate(doubling))
    with pytest.raises(ContractError, match="= 0"):
        rho_report(doubling, n_max=4)
    with pytest.raises(ContractError):
        monotone_rate(gw_binary())


@pytest.mark.parametrize("n", [10, 16])
def test_monotone_rate_matches_enumeration_in_a_random_environment(n):
    # P_k(Z_n = k) = E[Q(1)^k]^n: the rate is -log E[Q(1)^k], not k rho
    model = EnvironmentModel((FiniteLaw((0.0, 0.5, 0.5)), FiniteLaw((0.0, 0.2, 0.8))), (0.5, 0.5))
    for row in rho_report(model, n_max=n).fekete.rows:
        assert row.a_n_over_n == pytest.approx(monotone_rate(model), rel=1e-12)
    for k, want in ((1, 1.0498221244986778), (2, 1.9310215365615626), (3, 2.7105533313203285)):
        enumerated = -math.log(exact.annealed_pmf(model, k, n, k)) / n
        assert monotone_rate(model, k) == pytest.approx(enumerated, rel=1e-12)
        assert monotone_rate(model, k) == pytest.approx(want, rel=1e-12)
    rho = monotone_rate(model)
    assert monotone_rate(model, 2) < 2 * rho and monotone_rate(model, 3) < 3 * rho


def test_example1_suite_identity_and_separation():
    rep = example1_suite(0.3, 0.5, n_max=6)
    # the one-line/parity argument makes this an identity, not an approximation
    assert rep.identity_max_log_error <= 1e-14
    assert rep.identity_checked_by_enumeration == 6
    # P_1(Z_6 = 1) = 0.3^6 exactly, checked through the enumerated identity
    assert rep.threshold == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert rep.separated
    doc = rep.to_json()
    assert doc["estimated"] == {}

    no_sep = example1_suite(0.9, 0.5, n_max=4)
    assert not no_sep.separated


def test_example1_gap_is_positive_when_separated():
    rep = example1_suite(0.1, 0.5, n_max=10, table_limit=10)
    assert rep.separated
    for v in rep.log_p2_over_n:
        assert v - math.log(0.1) >= 0.1


@pytest.mark.parametrize("r, p", [(0.3, 0.5), (0.1, 0.5), (0.05, 0.3), (0.5, 0.1)])
def test_example1_suite_enumerates_once(r, p, monkeypatch):
    # one width-3 sweep; its column 1 is the width-2 sweep's bit for bit
    model = example1_model(r, p)
    alone = exact._annealed_rows(model, 1, range(1, 11), 1)
    want = max(abs(math.log(alone[n][1]) - n * math.log(r)) for n in range(1, 11))
    sweeps = []

    def counting(*args):
        sweeps.append(args)
        return exact._annealed_rows(*args)

    monkeypatch.setattr(rates, "_annealed_rows", counting)
    rep = example1_suite(r, p, n_max=16, table_limit=12)
    assert len(sweeps) == 1
    assert rep.identity_max_log_error == want and rep.identity_checked_by_enumeration == 10


def test_example2_suite_fixed_point():
    rep = example2_suite(0.5, 0.1, 10, n_max=6)
    assert rep.fixed_point_residual <= 1e-12
    assert rep.sufficiency_holds
    assert rep.fixed_point <= 0.2
    assert rep.conclusive  # 3 p^2 = 0.03 < r p = 0.05


def test_example2_suite_rate_separation_table():
    rep = example2_suite(0.5, 0.1, 10, n_max=14)
    assert rep.log_p2_over_n[-1] < rep.log_p1_over_n[-1]
    # analytic bounds frame the exact finite-n rates
    assert rep.log_p1_over_n[-1] >= rep.lower_bound_p1 - 0.05
    assert rep.upper_bound_p2 < rep.lower_bound_p1


def test_example2_sufficiency_always_holds_for_valid_inputs():
    # f2(2p) - 2p = -(1-2p)^2 p (4p+1) < 0 at a = 3, and decreases with a,
    # so the inconclusive branch is unreachable for p in (0, 1/2), a > 2
    for p in (0.05, 0.2, 0.4, 0.49):
        for a in (3, 5, 12):
            rep = example2_suite(0.5, p, a, n_max=2)
            assert rep.sufficiency_holds
    with pytest.raises(ContractError):
        example2_suite(0.5, 0.6, 10, n_max=2)
    with pytest.raises(ContractError):
        example2_suite(0.5, 0.1, 2, n_max=2)


def test_boundary_continuity_of_lf_rho():
    base = intermediate_model()
    rho0 = lf_rho(base).rho
    for sign in (+1.0, -1.0):
        w = np.array(base.weights) + sign * 1e-6 * np.array([1.0, -1.0])
        shifted = EnvironmentModel(base.states, tuple(w))
        res = lf_rho(shifted)
        assert abs(res.rho - rho0) <= 1e-5


def test_mrca_regime_suite_smoke():
    model = intermediate_model()
    report = mrca_regime_suite(
        model, (5,), proposals=40_000, root_seed=5, delta=0.5
    )
    assert report.regime == "intermediate"
    pt = report.point(5)
    assert pt.accepted > 200
    assert 0.0 <= pt.pmf_first <= 1.0
    assert pt.scaled_last == pytest.approx(5 * pt.pmf_last)
    doc = report.to_json()
    assert set(doc) == {"certified", "estimated"}
    (point,) = json.loads(json.dumps(doc))["estimated"]["points"]
    assert point["proposed"] == 40_000
    assert all(set(b) == {"k", "count"} for b in point["bins"])
    assert sum(b["count"] for b in point["bins"]) == point["accepted"] == pt.accepted


def test_mrca_regime_suite_flags_insufficient():
    model = weakly_model()
    report = mrca_regime_suite(model, (12,), proposals=3000, root_seed=6)
    assert 0 < report.point(12).accepted < 100
    assert report.insufficient == (12,)
