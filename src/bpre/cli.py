"""Command-line front end.

Commands: simulate, exact, rho, mrca, examples, validate.  Structured
results go to JSON (--out), tidy plot tables to CSV (--csv); every
stochastic artifact embeds its config hash and seed, and outputs are
byte-identical for identical (config, seed) regardless of BPRE_THREADS.

Exit codes: 0 success, 1 unknown command / usage or a stdout closed
before the output was written, 2 contract errors or a stdout that cannot
be written, 3 budget errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import sys
from contextlib import suppress
from dataclasses import asdict, dataclass

from .environment import (
    EnvironmentModel,
    classify_regime,
    lattice_span,
    rate_function_at_zero,
    regime_tilt,
)
from .errors import BudgetError, ContractError, TruncationError
from .exact import annealed_pmf_row, smallest_reachable
from .pgf import MAX_DEGREE
from .rates import example1_suite, example2_suite, mrca_regime_suite, rho_report
from .simulate import DEFAULT_POPULATION_CAP, importance_estimate, simulate_forward, stream

COMMANDS = ("simulate", "exact", "rho", "mrca", "examples", "validate")
STOCHASTIC_COMMANDS = frozenset({"simulate", "mrca"})

_USAGE = (
    "usage: bpre <command> [options]\n"
    f"commands: {', '.join(COMMANDS)}\n"
    "run 'bpre <command> --help' for command options\n"
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved run: command, inputs, budgets, seed, output paths.

    A seed is required for every stochastic command (and for the estimate
    mode of ``exact``); numeric options are checked in ``from_args`` and
    model paths are validated before execution.
    """

    command: str
    model: str | None = None
    out: str | None = None
    csv: str | None = None
    seed: int | None = None
    n: int | None = None
    n_max: int | None = None
    n_list: tuple[int, ...] | None = None
    replicates: int | None = None
    degree: int | None = None
    z0: int = 1
    j: int | None = None
    j_max: int | None = None
    estimate: bool = False
    nu: float | None = None
    which: int | None = None
    r: float | None = None
    p: float | None = None
    a: int | None = None
    delta: float = 0.5
    target_size: int = 2
    method: str = "geiger"

    @classmethod
    def from_args(cls, command: str, args: argparse.Namespace) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        fields = {k: v for k, v in vars(args).items() if k in known}
        if "n_list" in fields and isinstance(fields["n_list"], str):
            fields["n_list"] = _parse_n_list(fields["n_list"])
        c = cls(command=command, **fields)
        j_top = c.j_max if c.j_max is not None else c.j
        checks = (
            (c.n is not None and c.n < 0, "--n must be >= 0"),
            (c.n is not None and c.n > MAX_DEGREE, f"--n must be <= {MAX_DEGREE}"),
            (c.n_max is not None and c.n_max > MAX_DEGREE, f"--n-max must be <= {MAX_DEGREE}"),
            (c.n_list is not None and max(c.n_list, default=0) > MAX_DEGREE,
             f"--n-list horizons must be <= {MAX_DEGREE}"),
            (c.a is not None and c.a > MAX_DEGREE, f"--a must be <= {MAX_DEGREE}"),
            (c.replicates is not None and c.replicates < 1, "--replicates must be >= 1"),
            (command == "rho" and c.n_max < 2, "--n-max must be >= 2 (the slope needs n = 2)"),
            (command == "examples" and c.n_max < 1, "--n-max must be >= 1"),
            (c.z0 > DEFAULT_POPULATION_CAP, f"--z0 must be <= {DEFAULT_POPULATION_CAP}"),
            (c.j is not None and c.j < 0, "--j must be >= 0"),
            (c.j_max is not None and c.j_max < 0, "--j-max must be >= 0"),
            (j_top is not None and j_top > MAX_DEGREE, f"--j and --j-max must be <= {MAX_DEGREE}"),
            (c.target_size > MAX_DEGREE, f"--target-size must be <= {MAX_DEGREE}"),
            (c.j is not None and j_top < c.j, "--j must not exceed --j-max"),
            (c.estimate and j_top is not None and j_top < 1, "--estimate needs --j-max >= 1"),
            (c.nu is not None and not math.isfinite(c.nu), "--nu must be finite"),
            (c.n_list is not None and min(c.n_list, default=0) < 1,
             "--n-list needs one or more horizons, each >= 1"),
            (not 0.0 <= c.delta <= 1.0, "--delta must lie in [0, 1]"),
        )
        for failed, message in checks:
            if failed:
                raise ContractError(message)
        if c.command in STOCHASTIC_COMMANDS or c.estimate:
            c.require_seed()
        return c

    def require_seed(self) -> int:
        if self.seed is None:
            raise ContractError("seed required for stochastic commands")
        return self.seed

    def load_model(self) -> EnvironmentModel:
        if self.model is None:
            raise ContractError("a --model path is required")
        try:
            with open(self.model, encoding="utf-8") as fh:
                obj = json.load(fh)
        except FileNotFoundError:
            raise ContractError(f"model file not found: {self.model}")
        except OSError as exc:
            raise ContractError(f"cannot read model file: {exc}")
        except UnicodeDecodeError:
            raise ContractError(f"model file is not UTF-8 text: {self.model}")
        except json.JSONDecodeError as exc:
            raise ContractError(
                f"malformed model JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            )
        return EnvironmentModel.from_json(obj)

    @property
    def config_hash(self) -> str:
        payload = {k: v for k, v in asdict(self).items() if k not in ("out", "csv")}
        blob = json.dumps(payload, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _write_json(path: str, obj: dict) -> None:
    """Write ``obj`` as strict JSON; a non-finite number is a contract error, not ``Infinity``."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ContractError(f"artifact holds a non-finite number: {exc}")
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def emit_plot_data(report: dict) -> str:
    """Tidy CSV (n, quantity, value, lo, hi) from a report dictionary."""
    rows: list[tuple[str, str, str, str, str]] = []

    def add(n, quantity, value, lo=None, hi=None):
        rows.append(
            (
                "" if n is None else str(n),
                quantity,
                repr(float(value)),
                "" if lo is None else repr(float(lo)),
                "" if hi is None else repr(float(hi)),
            )
        )

    certified = report.get("certified", {})
    estimated = report.get("estimated", {})
    if "a_table" in certified:
        for row in certified["a_table"]:
            add(row["n"], "a_n_over_n", row["a_n_over_n"])
        if certified.get("lambda0") is not None:
            add(None, "lambda0", certified["lambda0"])
        if certified.get("lf_closed_form") is not None:
            add(None, "lf_rho", certified["lf_closed_form"])
        if estimated.get("slope_estimate") is not None:
            add(None, "slope_estimate", estimated["slope_estimate"])
    elif "points" in estimated:
        for pt in estimated["points"]:
            acc = max(pt["accepted"], 1)
            for item in pt["bins"]:
                p = item["count"] / acc
                se = math.sqrt(max(p * (1.0 - p), 0.0) / acc)
                add(pt["n"], f"mrca_pmf_k{item['k']}", p, max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se))
    elif "table" in certified:
        for row in certified["table"]:
            for key, val in row.items():
                if key != "n":
                    add(row["n"], key, val)
    lines = ["n,quantity,value,lo,hi"]
    lines += [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def _emit(cfg: ExperimentConfig, doc: dict, summary: str) -> int:
    """Stamp ``doc`` with the command and config hash, write --out and --csv, print ``summary``."""
    doc["command"] = cfg.command
    doc["config_hash"] = cfg.config_hash
    try:
        if cfg.out:
            _write_json(cfg.out, doc)
        if cfg.csv:
            with open(cfg.csv, "w") as fh:
                fh.write(emit_plot_data(doc))
    except OSError as exc:
        raise ContractError(f"cannot write output: {exc}")
    print(summary)
    return 0


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    model = cfg.load_model()
    trajectories = []
    for rep in range(cfg.replicates):
        traj = simulate_forward(model, cfg.z0, cfg.n, stream(cfg.seed, rep))
        trajectories.append({"replicate": rep, "sizes": list(traj.sizes)})
    final_sizes = [t["sizes"][-1] for t in trajectories]
    artifact = {
        "seed": cfg.seed,
        "model_id": model.model_id,
        "n": cfg.n,
        "z0": cfg.z0,
        "trajectories": trajectories,
    }
    survived = sum(1 for z in final_sizes if z > 0)
    return _emit(
        cfg,
        artifact,
        f"simulate n={cfg.n} replicates={cfg.replicates} "
        f"survived={survived} mean_final={sum(final_sizes) / len(final_sizes):.3f} [estimated]",
    )


def _cmd_exact(cfg: ExperimentConfig) -> int:
    model = cfg.load_model()
    j_max = cfg.j_max if cfg.j_max is not None else (cfg.j if cfg.j is not None else 4)
    if cfg.degree is not None and j_max > cfg.degree:
        raise TruncationError(f"raise truncation degree: need {j_max}, have {cfg.degree}")
    if cfg.estimate:
        nu = cfg.nu if cfg.nu is not None else regime_tilt(model)
        est = importance_estimate(
            model, cfg.z0, cfg.n, j_max, nu, cfg.replicates, root_seed=cfg.seed
        )
        artifact = {
            "seed": cfg.seed,
            "model_id": model.model_id,
            "certified": {},
            "estimated": {
                "small_value_probability": est.estimate,
                # one replicate has no standard error: null, with "replicates": 1
                "std_error": est.std_error if math.isfinite(est.std_error) else None,
                "nu": est.nu,
                "mu": est.mu,
                "replicates": est.replicates,
                "n": cfg.n,
                "z0": cfg.z0,
                "j_max": j_max,
            },
        }
        return _emit(
            cfg,
            artifact,
            f"exact n={cfg.n} z0={cfg.z0} P(1<=Z<={j_max})~{est.estimate:.6e} "
            f"se={est.std_error:.2e} [estimated]",
        )
    row = annealed_pmf_row(model, cfg.z0, cfg.n, j_max)
    artifact = {
        "model_id": model.model_id,
        "certified": {
            "n": cfg.n,
            "z0": cfg.z0,
            "pmf": [{"j": j, "value": float(row[j])} for j in range(j_max + 1)],
            "small_value_probability": float(row[1:].sum()),
        },
        "estimated": {},
    }
    if cfg.j is not None:
        summary = f"exact n={cfg.n} z0={cfg.z0} P(Z_n={cfg.j})={row[cfg.j]:.6e} [certified]"
    else:
        summary = f"exact n={cfg.n} z0={cfg.z0} P(1<=Z<={j_max})={row[1:].sum():.6e} [certified]"
    return _emit(cfg, artifact, summary)


def _cmd_rho(cfg: ExperimentConfig) -> int:
    model = cfg.load_model()
    report = rho_report(model, n_max=cfg.n_max)
    lf_txt = "" if report.lf_closed_form is None else f" lf_rho={report.lf_closed_form:.6f}"
    return _emit(
        cfg,
        report.to_json(),
        f"rho z0={report.z0} fekete_upper={report.fekete_upper:.6f} "
        f"lambda0={report.lambda0:.6f}{lf_txt} [certified] "
        f"slope={report.slope_estimate:.6f} [estimated]",
    )


def _parse_n_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok)
    except ValueError:
        raise ContractError(f"bad n-list {raw!r}; expected comma-separated integers")


def _cmd_mrca(cfg: ExperimentConfig) -> int:
    model = cfg.load_model()
    report = mrca_regime_suite(
        model,
        cfg.n_list,
        proposals=cfg.replicates,
        root_seed=cfg.seed,
        delta=cfg.delta,
        target_size=cfg.target_size,
        method=cfg.method,
    )
    doc = report.to_json()
    doc["seed"] = cfg.seed
    accepted = ",".join(str(pt.accepted) for pt in report.points)
    n_txt = ",".join(map(str, cfg.n_list))
    return _emit(
        cfg,
        doc,
        f"mrca regime={report.regime} n_list={n_txt} accepted=[{accepted}] "
        f"target={cfg.target_size} [estimated]",
    )


def _cmd_examples(cfg: ExperimentConfig) -> int:
    if cfg.which == 1:
        report = example1_suite(cfg.r, cfg.p, n_max=cfg.n_max)
        summary = (
            f"examples which=1 r={cfg.r} p={cfg.p} "
            f"identity_err={report.identity_max_log_error:.2e} "
            f"separated={report.separated} [certified]"
        )
    elif cfg.which == 2:
        if cfg.a is None:
            raise ContractError("example 2 needs --a")
        report = example2_suite(cfg.r, cfg.p, cfg.a, n_max=cfg.n_max)
        summary = (
            f"examples which=2 r={cfg.r} p={cfg.p} a={cfg.a} "
            f"fixed_point={report.fixed_point:.6f} conclusive={report.conclusive} [certified]"
        )
    else:
        raise ContractError(f"unknown example {cfg.which}; use 1 or 2")
    return _emit(cfg, report.to_json(), summary)


def _cmd_validate(cfg: ExperimentConfig) -> int:
    model = cfg.load_model()
    drift = model.drift
    print(f"model_id: {model.model_id}")
    if drift > 0.0:
        print(f"supercritical: yes (E[X]={drift:.6f})")
    elif drift == 0.0:
        print("supercritical: no; warning: not supercritical boundary: E[X]=0")
    else:
        print(f"supercritical: no (E[X]={drift:.6f} < 0)")
    p_ext = model.extinction_in_one_step
    print(f"extinction_possible: {'yes' if p_ext > 0 else 'no'} (P(Z_1=0)={p_ext:.6f})")
    gamma = model.assumption1_gamma
    print(f"assumption1_gamma_witness: {gamma:.6f} ({'ok' if gamma > 0 else 'violated'})")
    span = lattice_span(model)
    print(f"lattice: {'span=%.6f' % span if span is not None else 'none detected'}")
    print(f"lf_pure: {'yes' if model.is_lf_pure else 'no'}")
    if model.is_lf_pure and drift > 0.0:
        print(f"regime: {classify_regime(model).value}")
    if p_ext > 0.0:
        try:
            reach = smallest_reachable(model)
        except ContractError as exc:  # extinction only through a law with no positive size
            print(f"z0: none ({exc})")
        else:
            closure = sorted(reach.closure)
            shown = ",".join(map(str, closure[:16])) + ("..." if len(closure) > 16 else "")
            print(f"z0: {reach.z0} closure: [{shown}] capped: {'yes' if reach.capped else 'no'}")
    else:
        print("z0: 1 (monotone case: no state allows extinction)")
    if drift > 0.0:
        rf = rate_function_at_zero(model)
        lam = "inf" if math.isinf(rf.value) else f"{rf.value:.6f}"
        print(f"lambda0: {lam} ({rf.flag})")
    return 0


def _build_parser(command: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=f"bpre {command}")
    p.add_argument("--model", required=command != "examples", help="model JSON path")
    p.add_argument("--out", default=None, help="JSON artifact path")
    if command in ("rho", "mrca", "examples"):
        p.add_argument("--csv", default=None, help="tidy plot-data CSV path")
    if command in ("simulate", "exact", "mrca"):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--replicates", type=int, default=1000)
    if command in ("simulate", "exact"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--z0", type=int, default=1)
    if command == "exact":
        p.add_argument("--j", type=int, default=None)
        p.add_argument("--j-max", dest="j_max", type=int, default=None)
        p.add_argument("--estimate", action="store_true", help="tilted Monte Carlo path")
        p.add_argument("--nu", type=float, default=None)
        p.add_argument("--degree", type=int, default=None)
    if command == "rho":
        p.add_argument("--n-max", dest="n_max", type=int, default=12)
    if command == "mrca":
        p.add_argument("--n-list", dest="n_list", required=True)
        p.add_argument("--delta", type=float, default=0.5)
        p.add_argument("--target-size", dest="target_size", type=int, default=2)
        p.add_argument("--method", choices=("geiger", "rejection"), default="geiger")
    if command == "examples":
        p.add_argument("--which", type=int, required=True)
        p.add_argument("--r", type=float, required=True)
        p.add_argument("--p", type=float, required=True)
        p.add_argument("--a", type=int, default=None)
        p.add_argument("--n-max", dest="n_max", type=int, default=12)
    return p


_HANDLERS = {
    "simulate": _cmd_simulate,
    "exact": _cmd_exact,
    "rho": _cmd_rho,
    "mrca": _cmd_mrca,
    "examples": _cmd_examples,
    "validate": _cmd_validate,
}


def _run(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return 0 if argv else 1
    command, rest = argv[0], argv[1:]
    if command not in COMMANDS:
        sys.stderr.write(f"unknown command: {command}\n{_USAGE}")
        return 1
    try:
        args = _build_parser(command).parse_args(rest)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    return _HANDLERS[command](ExperimentConfig.from_args(command, args))


class _StdoutError(Exception):
    """A write to stdout failed with the OSError that is its ``__cause__``.

    It is no OSError, so argparse's help, which drops an OSError of its
    write, lets it through.
    """


class _Stdout:
    """sys.stdout inside ``main``: a failed write or flush raises ``_StdoutError``."""

    def __init__(self, stream):
        self.stream = stream

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def write(self, text):
        try:
            return self.stream.write(text)
        except OSError as exc:
            raise _StdoutError from exc

    def flush(self):
        try:
            self.stream.flush()
        except OSError as exc:
            raise _StdoutError from exc


def _reader_left(stdout) -> bool:
    poller = select.poll()  # a pipe whose reader has closed it polls as an error
    with suppress(OSError, ValueError):  # an in-memory stdout has no descriptor
        poller.register(stdout, select.POLLOUT)
    return any(event & select.POLLERR for _, event in poller.poll(0))


def main(argv: list[str] | None = None) -> int:
    stdout, sys.stdout = sys.stdout, _Stdout(sys.stdout)
    try:
        code = _run(list(sys.argv[1:] if argv is None else argv))
        sys.stdout.flush()  # a closed pipe or a full device raises here, not at shutdown
        return code
    except BudgetError as exc:
        sys.stderr.write(f"budget error: {exc}\n")
        return 3
    except ContractError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except _StdoutError as exc:
        failure = exc.__cause__
    except BrokenPipeError as exc:
        if not _reader_left(stdout):
            raise  # a pipe other than stdout broke
        failure = exc
    finally:
        sys.stdout = stdout
    # send the rest of stdout nowhere, so that the flush at shutdown cannot fail
    os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
    if isinstance(failure, BrokenPipeError):
        return 1  # stdout's reader left
    sys.stderr.write(f"error: cannot write output: {failure}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
