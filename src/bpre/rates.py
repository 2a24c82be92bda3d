"""Decay-rate reports, certified bound assembly, and the two-environment
example suites.

Reports keep "certified" quantities (exact enumeration, closed forms,
analytic bounds) strictly separate from "estimated" ones (Monte Carlo with
confidence intervals, slope proxies): asymptotic statements are only ever
supported here by finite-n bounds and trends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .environment import EnvironmentModel, classify_regime, lattice_span, rate_function_at_zero
from .errors import ContractError
from .exact import FeketeTable, _annealed_rows, fekete_bounds, smallest_reachable
from .lf import lf_rho
from .models import example1_model, example2_model
from .simulate import conditioned_mrca_sample, subseed

_ORDERING_SLACK = 1e-9
_EXAMPLE1_ENUMERATION_LIMIT = 10  # example 1's identity is enumerated up to this horizon


@dataclass(frozen=True)
class RhoReport:
    """Ordered bounds on the small-value decay rate of one model."""

    model_id: str
    z0: int
    closure_capped: bool
    n_max: int
    fekete: FeketeTable
    lambda0: float
    lambda0_flag: str
    lf_closed_form: float | None
    regime: str | None
    gamma_witness: float
    lattice: float | None
    monotone_case: bool

    def __post_init__(self):
        if self.lf_closed_form is not None:
            if self.lf_closed_form > self.fekete_upper + _ORDERING_SLACK:
                raise ContractError("rate ordering violated: closed form exceeds a Fekete bound")
            if self.lf_closed_form > self.lambda0 + _ORDERING_SLACK:
                raise ContractError("rate ordering violated: closed form exceeds Lambda(0)")

    @property
    def fekete_upper(self) -> float:
        return self.fekete.min_upper

    @property
    def slope_estimate(self) -> float | None:
        return self.fekete.slope_estimate

    def to_json(self) -> dict:
        certified = {
            "model_id": self.model_id,
            "z0": self.z0,
            "closure_capped": self.closure_capped,
            "a_table": [
                {"n": r.n, "a_n": r.a_n, "a_n_over_n": r.a_n_over_n} for r in self.fekete.rows
            ],
            "fekete_upper": self.fekete_upper,
            "lambda0": self.lambda0 if math.isfinite(self.lambda0) else None,  # the flag says why
            "lambda0_flag": self.lambda0_flag,
            "lf_closed_form": self.lf_closed_form,
            "regime": self.regime,
            "assumption1_gamma": self.gamma_witness,
            "lattice_span": self.lattice,
            "monotone_case": self.monotone_case,
        }
        estimated = {"slope_estimate": self.slope_estimate}
        return {"certified": certified, "estimated": estimated}


def rho_report(model: EnvironmentModel, n_max: int) -> RhoReport:
    """Exact a_n table, Lambda(0), LF closed form and diagnostics for a model.

    In the monotone case, where no state has q(0) > 0, the population never
    shrinks, so P_1(Z_n = 1) = E[q(1)]^n: z0 is 1, the same sweep gives
    a_n/n = -log E[q(1)] at every n, and there is no closure or LF closed
    form (``lf_rho`` needs P(Z_1 = 0) > 0).
    """
    if model.drift <= 0.0:
        raise ContractError("not supercritical: E[X] <= 0")
    monotone = model.extinction_in_one_step <= 0.0
    if monotone:
        z0, capped = 1, False
    else:
        reach = smallest_reachable(model)
        z0, capped = reach.z0, reach.capped
    fek = fekete_bounds(model, z0=z0, n_max=n_max)
    rf = rate_function_at_zero(model)
    closed = None
    regime = None
    if model.is_lf_pure and not monotone:
        res = lf_rho(model)
        closed = res.rho
        regime = res.regime.value
    return RhoReport(
        model_id=model.model_id,
        z0=z0,
        closure_capped=capped,
        n_max=n_max,
        fekete=fek,
        lambda0=rf.value,
        lambda0_flag=rf.flag,
        lf_closed_form=closed,
        regime=regime,
        gamma_witness=model.assumption1_gamma,
        lattice=lattice_span(model),
        monotone_case=monotone,
    )


# ---------------------------------------------------------------------------
# example suites on two-environment alphabets


@dataclass(frozen=True)
class Example1Report:
    """Constant-line identity and the rate separation between {Z_n=1} and {Z_n=2}.

    The one-line environment keeps the population at 1, so P_1(Z_n = 1) is
    exactly r^n: the other state moves sizes between zero and even numbers
    only, hence never back to 1.  The check verifies the support argument
    and, for small n, the identity against full enumeration.
    """

    r: float
    p: float
    n_max: int
    identity_max_log_error: float
    identity_checked_by_enumeration: int
    threshold: float
    separated: bool
    table_n: tuple[int, ...]
    log_p2_over_n: tuple[float, ...]
    gap_at_n_max: float | None

    def to_json(self) -> dict:
        return {
            "certified": {
                "r": self.r,
                "p": self.p,
                "identity_max_log_error": self.identity_max_log_error,
                "identity_checked_by_enumeration": self.identity_checked_by_enumeration,
                "threshold": self.threshold,
                "separated": self.separated,
                "table": [
                    {"n": n, "log_p2_over_n": v}
                    for n, v in zip(self.table_n, self.log_p2_over_n)
                ],
                "gap_at_n_max": self.gap_at_n_max,
            },
            "estimated": {},
        }


def _log_prob(prob: float) -> float:
    """log of a positive probability; one that underflowed to 0 is a contract error."""
    if prob <= 0.0:
        raise ContractError("probability underflows to 0; choose r and p further from 0")
    return math.log(prob)


def example1_suite(
    r: float,
    p: float,
    n_max: int,
    table_limit: int = 16,
) -> Example1Report:
    model = example1_model(r, p)
    q1, q2 = model.states
    # support argument: q1 is the copy law, q2 moves to {0} or even sizes
    if not (q1.prob(1) == 1.0 and q2.prob(1) == 0.0 and q2.max_support % 2 == 0):
        raise ContractError("example-1 support structure violated")
    checked = range(1, min(n_max, _EXAMPLE1_ENUMERATION_LIMIT) + 1)
    ns = tuple(range(1, min(n_max, table_limit) + 1))
    # one sweep serves both: column 1 for the identity, column 2 for the table
    totals = _annealed_rows(model, 1, range(1, max(len(checked), len(ns)) + 1), 2)
    max_err = max((abs(_log_prob(totals[n][1]) - n * math.log(r)) for n in checked), default=0.0)
    # beyond the enumeration limit the identity is exact by the parity argument

    threshold = 2.0 * (1.0 - p) * p / (1.0 + 2.0 * (1.0 - p) * p)
    separated = r < threshold
    log_p2 = tuple(_log_prob(totals[n][2]) / n for n in ns)
    gap = (log_p2[-1] - math.log(r)) if ns else None
    return Example1Report(
        r=r,
        p=p,
        n_max=n_max,
        identity_max_log_error=max_err,
        identity_checked_by_enumeration=len(checked),
        threshold=threshold,
        separated=separated,
        table_n=ns,
        log_p2_over_n=log_p2,
        gap_at_n_max=gap,
    )


@dataclass(frozen=True)
class Example2Report:
    """Initial-size dependence: P_2(Z_n=2) decays strictly faster than P_1(Z_n=2)."""

    r: float
    p: float
    a: int
    fixed_point: float
    fixed_point_residual: float
    sufficiency_holds: bool
    fixed_point_below_2p: bool | None
    table_n: tuple[int, ...]
    log_p1_over_n: tuple[float, ...]
    log_p2_over_n: tuple[float, ...]
    upper_bound_p2: float
    lower_bound_p1: float
    conclusive: bool

    def to_json(self) -> dict:
        return {
            "certified": {
                "r": self.r,
                "p": self.p,
                "a": self.a,
                "fixed_point": self.fixed_point,
                "fixed_point_residual": self.fixed_point_residual,
                "sufficiency_holds": self.sufficiency_holds,
                "fixed_point_below_2p": self.fixed_point_below_2p,
                "table": [
                    {"n": n, "log_p1_over_n": v1, "log_p2_over_n": v2}
                    for n, v1, v2 in zip(self.table_n, self.log_p1_over_n, self.log_p2_over_n)
                ],
                "upper_bound_log_p2": self.upper_bound_p2,
                "lower_bound_log_p1": self.lower_bound_p1,
                "conclusive": self.conclusive,
            },
            "estimated": {},
        }


def _bisect_fixed_point(f) -> float:
    """Smallest fixed point of a convex pgf on [0, 1), to within 1e-12."""
    lo, hi = 0.0, 1.0 - 1e-9
    if f(lo) - lo <= 0.0:
        return lo
    if f(hi) - hi >= 0.0:
        raise ContractError("no fixed point below 1: bisection bracket failed")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def example2_suite(r: float, p: float, a: int, n_max: int) -> Example2Report:
    model = example2_model(r, p, a)
    q2 = model.states[1]
    s_e = _bisect_fixed_point(q2.pgf)
    residual = abs(s_e - q2.pgf(s_e))
    sufficiency = 2.0 * p > q2.pgf(2.0 * p)
    below = s_e <= 2.0 * p if sufficiency else None

    ns = tuple(range(1, n_max + 1))
    p1, p2 = (_annealed_rows(model, z0, ns, 2) for z0 in (1, 2))
    return Example2Report(
        r=r,
        p=p,
        a=a,
        fixed_point=s_e,
        fixed_point_residual=residual,
        sufficiency_holds=sufficiency,
        fixed_point_below_2p=below,
        table_n=ns,
        log_p1_over_n=tuple(_log_prob(p1[n][2]) / n for n in ns),
        log_p2_over_n=tuple(_log_prob(p2[n][2]) / n for n in ns),
        upper_bound_p2=_log_prob(3.0 * p * p),
        lower_bound_p1=_log_prob(r * p),
        conclusive=sufficiency and 3.0 * p * p < r * p,
    )


# ---------------------------------------------------------------------------
# MRCA regime experiments


@dataclass(frozen=True)
class MrcaPoint:
    n: int
    accepted: int
    proposed: int
    pmf_first: float
    pmf_last: float
    mass_above_delta: float
    scaled_last: float
    scaled_delta_bin: float
    se_first: float
    se_last: float
    se_above_delta: float
    bins: dict[int, int] = field(repr=False)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "accepted": self.accepted,
            "proposed": self.proposed,
            "pmf_first": self.pmf_first,
            "pmf_last": self.pmf_last,
            "mass_above_delta": self.mass_above_delta,
            "n_times_pmf_last": self.scaled_last,
            "n32_times_pmf_delta_bin": self.scaled_delta_bin,
            "se_first": self.se_first,
            "se_last": self.se_last,
            "se_above_delta": self.se_above_delta,
            "bins": [{"k": k, "count": self.bins[k]} for k in sorted(self.bins)],
        }


@dataclass(frozen=True)
class MrcaRegimeReport:
    model_id: str
    regime: str
    delta: float
    target_size: int
    method: str
    points: tuple[MrcaPoint, ...]
    insufficient: tuple[int, ...]

    def point(self, n: int) -> MrcaPoint:
        for pt in self.points:
            if pt.n == n:
                return pt
        raise KeyError(n)

    def to_json(self) -> dict:
        return {
            "certified": {
                "model_id": self.model_id,
                "regime": self.regime,
                "delta": self.delta,
                "target_size": self.target_size,
            },
            "estimated": {
                "method": self.method,
                "points": [pt.to_json() for pt in self.points],
                "insufficient_n": list(self.insufficient),
            },
        }


def _binomial_se(p: float, n: int) -> float:
    if n == 0:
        return math.inf
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def mrca_regime_suite(
    model: EnvironmentModel,
    n_list: tuple[int, ...],
    proposals: dict[int, int] | int,
    root_seed: int,
    delta: float = 0.5,
    target_size: int = 2,
    method: str = "geiger",
) -> MrcaRegimeReport:
    """Conditioned-MRCA statistics across horizons for one classified model.

    Only trends and scaled sequences with confidence intervals are reported;
    no asymptotic constant is asserted.  A horizon with fewer than
    100 accepted samples is listed as insufficient.
    """
    regime = classify_regime(model)
    points = []
    insufficient = []
    for n in n_list:
        props = proposals[n] if isinstance(proposals, dict) else proposals
        dist = conditioned_mrca_sample(
            model,
            n,
            target_size,
            method,
            proposals=props,
            root_seed=subseed(root_seed, "mrca", n),
        )
        if dist.accepted < 100:
            insufficient.append(n)
        p1 = dist.pmf(1)
        pn = dist.pmf(n)
        above = dist.mass_above(delta * n)
        delta_bin = dist.pmf(math.ceil(delta * n))
        points.append(
            MrcaPoint(
                n=n,
                accepted=dist.accepted,
                proposed=dist.proposed,
                pmf_first=p1,
                pmf_last=pn,
                mass_above_delta=above,
                scaled_last=n * pn,
                scaled_delta_bin=n**1.5 * delta_bin,
                se_first=_binomial_se(p1, dist.accepted),
                se_last=_binomial_se(pn, dist.accepted),
                se_above_delta=_binomial_se(above, dist.accepted),
                bins=dict(dist.counts),
            )
        )
    return MrcaRegimeReport(
        model_id=model.model_id,
        regime=regime.value,
        delta=delta,
        target_size=target_size,
        method=method,
        points=tuple(points),
        insufficient=tuple(insufficient),
    )
