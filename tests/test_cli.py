import errno
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpre import cli, simulate
from bpre.cli import ExperimentConfig, emit_plot_data, main
from bpre.environment import EnvironmentModel
from bpre.errors import ContractError
from bpre.exact import smallest_reachable
from bpre.models import intermediate_model, strongly_model

from helpers import monotone_rate, reachable_closure_oracle

GW_MODEL = {"states": [{"type": "finite", "probs": [0.25, 0.0, 0.75]}], "weights": [1.0]}
WEAKLY_MODEL = {
    "states": [{"type": "lf", "m": 2.0, "b": 8.0}, {"type": "lf", "m": 0.5, "b": 0.5}],
    "weights": [2.0 / 3.0, 1.0 / 3.0],
}

STRONGLY_MODEL = strongly_model().to_json()
INTERMEDIATE_MODEL = intermediate_model().to_json()
# every increment log m is positive: lambda* is undefined
POSITIVE_MODEL = {
    "states": [{"type": "lf", "m": 1.5, "b": 4.5}, {"type": "lf", "m": 1.2, "b": 2.88}],
    "weights": [0.5, 0.5],
}

# models whose mean-0 or zero-weight states once crashed validate, rho and mrca
PROBE_MODELS = {
    "mean0": {
        "states": [{"type": "finite", "probs": [1.0]}, {"type": "lf", "m": 2.0, "b": 8.0}],
        "weights": [0.2, 0.8],
    },
    "zero_unit": {
        "states": [{"type": "lf", "m": 1.0, "b": 2.0}, {"type": "lf", "m": 2.0, "b": 8.0}],
        "weights": [0.0, 1.0],
    },
    "weakly_padded": {
        "states": WEAKLY_MODEL["states"] + [{"type": "finite", "probs": [0.9, 0.0, 0.1]}],
        "weights": WEAKLY_MODEL["weights"] + [0.0],
    },
}


def test_experiment_config_invariants(tmp_path):
    cfg = ExperimentConfig(command="mrca", n_list=(4, 8), seed=None)
    with pytest.raises(ContractError, match="seed required"):
        cfg.require_seed()
    with pytest.raises(ContractError, match="model"):
        ExperimentConfig(command="rho").load_model()
    hashed = ExperimentConfig(command="rho", model="m.json", n_max=8)
    assert hashed.config_hash == ExperimentConfig(command="rho", model="m.json", n_max=8).config_hash
    assert hashed.config_hash != ExperimentConfig(command="rho", model="m.json", n_max=9).config_hash
    # output paths do not enter the hash
    assert hashed.config_hash == ExperimentConfig(
        command="rho", model="m.json", n_max=8, out="x.json"
    ).config_hash


@pytest.fixture
def gw_path(tmp_path):
    path = tmp_path / "gw.json"
    path.write_text(json.dumps(GW_MODEL))
    return str(path)


@pytest.fixture
def weakly_path(tmp_path):
    path = tmp_path / "weakly.json"
    path.write_text(json.dumps(WEAKLY_MODEL))
    return str(path)


@pytest.fixture(scope="module")
def model_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for name, obj in (("gw", GW_MODEL), ("weakly", WEAKLY_MODEL), *PROBE_MODELS.items()):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    return {name: str(path) for name, path in paths.items()}


def test_unknown_command_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_command_prints_usage(capsys):
    assert main([]) == 1
    assert "commands" in capsys.readouterr().out


def test_rho_command_writes_report(gw_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    rc = main(["rho", "--model", gw_path, "--n-max", "8", "--out", str(out), "--csv", str(csv)])
    assert rc == 0
    summary = capsys.readouterr().out
    assert "fekete_upper" in summary
    doc = json.loads(out.read_text())
    assert doc["certified"]["z0"] == 2
    assert doc["config_hash"]
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "n,quantity,value,lo,hi"
    assert any("a_n_over_n" in line for line in lines)


# no state has q(0) > 0, so P_1(Z_n = 1) = E[q(1)]^n
MONOTONE_MODEL = {
    "states": [
        {"type": "finite", "probs": [0.0, 0.5, 0.5]},
        {"type": "finite", "probs": [0.0, 0.2, 0.8]},
    ],
    "weights": [0.5, 0.5],
}


@pytest.mark.parametrize(
    "obj",
    [MONOTONE_MODEL, {"states": [{"type": "lf", "m": 2.0, "b": 4.0}], "weights": [1.0]}],
    ids=["finite", "lf"],
)
def test_rho_serves_the_monotone_case(obj, tmp_path, capsys):
    path, out = tmp_path / "monotone.json", tmp_path / "report.json"
    path.write_text(json.dumps(obj))
    assert main(["rho", "--model", str(path), "--n-max", "8", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())["certified"]
    assert cert["monotone_case"] is True and cert["z0"] == 1
    assert cert["lf_closed_form"] is None  # lf_rho needs P(Z_1 = 0) > 0
    rate = monotone_rate(EnvironmentModel.from_json(obj))
    assert [row["n"] for row in cert["a_table"]] == list(range(1, 9))
    for row in cert["a_table"]:
        assert row["a_n_over_n"] == pytest.approx(rate, rel=1e-12, abs=0.0)
    capsys.readouterr()
    assert main(["validate", "--model", str(path)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("z0: ")]
    assert lines == ["z0: 1 (monotone case: no state allows extinction)"]


def test_rho_monotone_case_without_a_single_child_exits_two(tmp_path):
    # q(1) = 0 as well: P_1(Z_n = 1) = 0, so no a_n is defined
    path = tmp_path / "doubling.json"
    path.write_text(json.dumps({"states": [{"type": "finite", "probs": [0.0, 0.0, 1.0]}],
                                "weights": [1.0]}))
    argv = [sys.executable, "-m", "bpre.cli", "rho", "--model", str(path), "--n-max", "8"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def _strict_json(path):
    """The JSON document at ``path``; Infinity, -Infinity or NaN fail the load."""

    def reject(constant):
        raise ValueError(f"non-finite number {constant} in {path}")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def test_rho_artifact_writes_an_infinite_lambda0_as_null(tmp_path, capsys):
    # no negative walk increment: Lambda(0) is infinite, and its flag says why
    path, out = tmp_path / "monotone.json", tmp_path / "report.json"
    path.write_text(json.dumps(MONOTONE_MODEL))
    assert main(["rho", "--model", str(path), "--n-max", "4", "--out", str(out)]) == 0
    cert = _strict_json(out)["certified"]
    assert cert["lambda0"] is None and cert["lambda0_flag"] == "no-small-value"


def test_estimate_artifact_writes_a_single_replicate_std_error_as_null(weakly_path, tmp_path):
    out = tmp_path / "est.json"
    argv = ["exact", "--model", weakly_path, "--n", "10", "--estimate", "--replicates", "1"]
    assert main(argv + ["--seed", "1", "--out", str(out)]) == 0
    est = _strict_json(out)["estimated"]
    assert est["std_error"] is None and est["replicates"] == 1
    assert est["small_value_probability"] > 0.0


def test_non_finite_artifact_value_exits_two_with_one_line(weakly_path, tmp_path, monkeypatch, capsys):
    # any non-finite number left in an artifact is an error, never Infinity or a traceback
    def infinite(*args, **kwargs):
        return simulate.ImportanceEstimate(math.inf, 0.0, 1.0, 1.0, 2)

    monkeypatch.setattr("bpre.cli.importance_estimate", infinite)
    out = tmp_path / "est.json"
    argv = ["exact", "--model", weakly_path, "--n", "4", "--estimate", "--replicates", "2"]
    capsys.readouterr()
    assert main(argv + ["--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err and err.count("\n") == 1
    assert not out.exists()


def test_validate_reports_no_z0_when_only_a_childless_law_dies(tmp_path, capsys):
    # extinction is possible only through the all-zero law, which has no
    # positive size, so no z0 exists; validate says so and exits 0
    obj = {
        "states": [{"type": "finite", "probs": [1.0]}, {"type": "finite", "probs": [0.0, 0.5, 0.5]}],
        "weights": [0.2, 0.8],
    }
    path = tmp_path / "childless.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--model", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "extinction_possible: yes (P(Z_1=0)=0.200000)" in lines
    assert [ln for ln in lines if ln.startswith("z0: ")] == [
        "z0: none (no state has q(0) > 0 and q(j) > 0 for some j >= 1)"
    ]
    with pytest.raises(ContractError, match=r"no state has q\(0\) > 0 and q\(j\) > 0"):
        smallest_reachable(EnvironmentModel.from_json(obj))


def test_examples_command_dispatch(tmp_path, capsys):
    out = tmp_path / "ex1.json"
    rc = main(
        ["examples", "--which", "1", "--r", "0.3", "--p", "0.5", "--n-max", "8", "--out", str(out)]
    )
    assert rc == 0
    assert "separated=True" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["certified"]["identity_max_log_error"] <= 1e-12

    rc = main(["examples", "--which", "2", "--r", "0.5", "--p", "0.1", "--a", "10", "--n-max", "4"])
    assert rc == 0
    assert "fixed_point=0.101021" in capsys.readouterr().out


def test_examples_unknown_which(capsys):
    rc = main(["examples", "--which", "3", "--r", "0.5", "--p", "0.1"])
    assert rc == 2


def test_mrca_requires_seed(weakly_path, capsys):
    rc = main(["mrca", "--model", weakly_path, "--n-list", "4"])
    assert rc == 2
    assert "seed required" in capsys.readouterr().err


def test_simulate_requires_seed(weakly_path):
    assert main(["simulate", "--model", weakly_path, "--n", "4"]) == 2


def test_simulate_population_cap_exits_three(tmp_path, capsys):
    # every individual has 1000 children, so generation 3 holds 10^9
    path = tmp_path / "thousand.json"
    probs = [0.0] * 1000 + [1.0]
    path.write_text(json.dumps({"states": [{"type": "finite", "probs": probs}], "weights": [1.0]}))
    argv = ["simulate", "--model", str(path), "--n", "4", "--replicates", "1", "--seed", "1"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget error: ") and err.count("\n") == 1


def test_malformed_model_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": [,]}')
    rc = main(["validate", "--model", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err


def test_missing_model_file(capsys):
    assert main(["validate", "--model", "/nonexistent.json"]) == 2


def test_non_utf8_model_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"states": "\xd0\x00"}')
    assert main(["validate", "--model", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: model file is not UTF-8 text: {bad}\n"


NAN_MODELS = [
    '{"states": [{"type": "finite", "probs": [NaN, 0.25, 0.75]}], "weights": [1.0]}',
    '{"states": [{"type": "lf", "m": 2.0, "b": 8.0}, {"type": "lf", "m": 0.5, "b": 0.5}],'
    ' "weights": [NaN, NaN]}',
    '{"states": [{"type": "lf", "m": 2.0, "b": NaN}], "weights": [1.0]}',
]


@pytest.mark.parametrize("text", NAN_MODELS)
def test_validate_rejects_nan_model(text, tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(text)
    assert main(["validate", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


LF_STATE = '{"type": "lf", "m": 2.0, "b": 8.0}'
# model JSON of the wrong shape, each of which once escaped ``main`` as a
# TypeError, KeyError, AttributeError, ValueError or OverflowError
BAD_SHAPE_MODELS = [
    "5",
    "null",
    '["states", "weights"]',
    '"states weights"',
    '{"states": 5, "weights": [1]}',
    '{"states": [5], "weights": [1]}',
    '{"states": [{"type": "lf", "m": 2.0}], "weights": [1]}',
    '{"states": [{"type": "finite", "probs": "ab"}], "weights": [1]}',
    '{"states": [%s], "weights": ["a"]}' % LF_STATE,
    '{"states": [{"type": "lf", "m": "x", "b": 8.0}], "weights": [1]}',
    '{"states": [%s], "weights": [1%s]}' % (LF_STATE, "0" * 400),
    # a string, a bool or an object where numbers belong is no number
    '{"states": [{"type": "lf", "m": "2.0", "b": "8"}], "weights": "1"}',
    '{"states": [{"type": "lf", "m": 2.0, "b": "8"}], "weights": [1]}',
    '{"states": [%s], "weights": "1"}' % LF_STATE,
    '{"states": [%s], "weights": "0.5"}' % LF_STATE,
    '{"states": [{"type": "finite", "probs": [true, false]}], "weights": [true]}',
    '{"states": [%s], "weights": [true]}' % LF_STATE,
    '{"states": [%s], "weights": {"0.5": 1}}' % LF_STATE,
    '{"states": [%s], "weights": {"1": 1}}' % LF_STATE,
]


@pytest.mark.parametrize("text", BAD_SHAPE_MODELS)
def test_validate_rejects_model_of_wrong_shape(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["validate", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_model_of_wrong_shape_exits_two_from_the_command_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(BAD_SHAPE_MODELS[0])
    argv = [sys.executable, "-m", "bpre.cli", "validate", "--model", str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: model JSON must be an object with 'states' and 'weights'\n"


def _bpre(args, stdout, buffered, cwd, **popen):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "bpre.cli", *args]
    return subprocess.run(
        argv, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60, env=env, cwd=cwd, **popen
    )


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_one_without_a_traceback(buffered, gw_path, tmp_path):
    # the pipe's reader is gone before the first line is written; a
    # block-buffered stdout meets the closed pipe only when it is flushed
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _bpre(["validate", "--model", gw_path], write, buffered, tmp_path)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("args", [[], ["--help"], ["rho", "--help"]], ids=["bare", "help", "rho_help"])
def test_usage_and_help_on_a_closed_stdout_exit_one_with_an_empty_stderr(args, buffered, tmp_path):
    # the usage and argparse's help are written inside the handler as well
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _bpre(args, write, buffered, tmp_path)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


def _no_file_growth():
    # every write that would grow a regular file fails with EFBIG, while a
    # write of no bytes still succeeds, as on a full filesystem
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (0, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["validate", "help", "rho_help"])
@pytest.mark.parametrize("target", ["dev_full", "file_that_cannot_grow"])
def test_stdout_that_cannot_be_written_exits_two_with_one_line(target, command, buffered, gw_path, tmp_path):
    if target == "dev_full" and not os.path.exists("/dev/full"):
        pytest.skip("needs a device that is always full")
    args = {"validate": ["validate", "--model", gw_path], "help": ["--help"], "rho_help": ["rho", "--help"]}
    if target == "dev_full":
        path, code, popen = "/dev/full", errno.ENOSPC, {}
    else:
        path, code, popen = tmp_path / "stdout.txt", errno.EFBIG, {"preexec_fn": _no_file_growth}
    with open(path, "w") as stdout:
        proc = _bpre(args[command], stdout, buffered, tmp_path, **popen)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write output: {OSError(code, os.strerror(code))}\n"


@pytest.mark.parametrize("stdout", ["pipe", "memory"])
def test_an_oserror_of_a_working_stdout_propagates(stdout, gw_path, monkeypatch):
    # a failure that is not stdout's is no stdout exit, whatever its errno
    def fails(config):
        raise OSError(errno.ENOSPC, "not stdout's")

    monkeypatch.setitem(cli._HANDLERS, "validate", fails)
    if stdout == "memory":
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        with pytest.raises(OSError, match="not stdout's"):
            main(["validate", "--model", gw_path])
        return
    read, write = os.pipe()
    try:
        with os.fdopen(write, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            with pytest.raises(OSError, match="not stdout's"):
                main(["validate", "--model", gw_path])
    finally:
        os.close(read)


@pytest.mark.parametrize("stdout", ["pipe", "closed_pipe", "memory"])
def test_broken_pipe_exit_is_only_for_stdout(stdout, gw_path, monkeypatch):
    # a BrokenPipeError while stdout's reader is still there, or while
    # stdout is in memory, came from some other pipe and propagates; with
    # stdout's reader gone main returns 1
    def broken(config):
        raise BrokenPipeError

    monkeypatch.setitem(cli._HANDLERS, "validate", broken)
    if stdout == "memory":
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        with pytest.raises(BrokenPipeError):
            main(["validate", "--model", gw_path])
        return
    read, write = os.pipe()
    with os.fdopen(write, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        if stdout == "pipe":
            with pytest.raises(BrokenPipeError):
                main(["validate", "--model", gw_path])
        else:
            os.close(read)
            assert main(["validate", "--model", gw_path]) == 1
    if stdout == "pipe":
        os.close(read)


def test_validate_gw(gw_path, capsys):
    assert main(["validate", "--model", gw_path]) == 0
    out = capsys.readouterr().out
    assert "supercritical: yes" in out
    assert "z0: 2" in out
    assert "lf_pure: no" in out


@pytest.mark.parametrize(
    "obj",
    [
        WEAKLY_MODEL,
        {
            "states": [
                {"type": "finite", "probs": [0.3, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.4]},
                {"type": "finite", "probs": [0.1, 0.0, 0.0, 0.0, 0.0, 0.9]},
            ],
            "weights": [0.5, 0.5],
        },
    ],
    ids=["lf", "finite_gaps"],
)
def test_validate_closure_line_matches_oracle(obj, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    assert main(["validate", "--model", str(path)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("z0: ")]
    z0, closure, capped = reachable_closure_oracle(EnvironmentModel.from_json(obj))
    members = sorted(closure)
    shown = ",".join(map(str, members[:16])) + ("..." if len(members) > 16 else "")
    assert lines == [f"z0: {z0} closure: [{shown}] capped: {'yes' if capped else 'no'}"]


def test_validate_boundary_warning(tmp_path, capsys):
    path = tmp_path / "copy.json"
    path.write_text(
        json.dumps({"states": [{"type": "finite", "probs": [0.0, 1.0]}], "weights": [1.0]})
    )
    assert main(["validate", "--model", str(path)]) == 0
    assert "not supercritical boundary: E[X]=0" in capsys.readouterr().out


def test_validate_weakly_regime(weakly_path, capsys):
    assert main(["validate", "--model", weakly_path]) == 0
    out = capsys.readouterr().out
    assert "lf_pure: yes" in out
    assert "regime: weakly" in out


def test_validate_zero_weight_finite_state_keeps_lf_regime(model_paths, capsys):
    assert main(["validate", "--model", model_paths["weakly_padded"]]) == 0
    out = capsys.readouterr().out
    assert "lf_pure: yes" in out
    assert "regime: weakly" in out


@pytest.mark.parametrize("name", sorted(PROBE_MODELS))
@pytest.mark.parametrize(
    "command", ["validate", "rho --n-max 4", "mrca --n-list 3 --replicates 200 --seed 1"]
)
def test_probe_models_exit_zero_or_two_with_one_line(name, command, model_paths, capsys):
    argv = command.split() + ["--model", model_paths[name]]
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc in (0, 2)
    if rc == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
    if argv[0] == "validate":  # the zero-weight state does not lower the witness
        expect = {"mean0": "0.000000", "zero_unit": "0.666667", "weakly_padded": "0.333333"}
        assert f"assumption1_gamma_witness: {expect[name]}" in out


def test_exact_command_certified_and_budget(weakly_path, tmp_path, capsys):
    rc = main(["exact", "--model", weakly_path, "--n", "6", "--j", "2"])
    assert rc == 0
    assert "[certified]" in capsys.readouterr().out
    rc = main(["exact", "--model", weakly_path, "--n", "40", "--j", "1"])
    assert rc == 3
    assert "budget" in capsys.readouterr().err


def test_estimate_above_proposal_cap_exits_three(weakly_path, monkeypatch, capsys):
    # the cap fires before any chunk is laid out or drawn
    def no_chunks(*args):
        raise AssertionError("chunks laid out above the replicate cap")

    monkeypatch.setattr(simulate, "_map_chunks", no_chunks)
    replicates = str(simulate.PROPOSAL_CAP + 1)
    argv = ["exact", "--model", weakly_path, "--n", "4", "--j-max", "2", "--estimate",
            "--replicates", replicates, "--seed", "1"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget error: ") and err.count("\n") == 1


def test_exact_estimate_path(weakly_path, capsys):
    rc = main(
        [
            "exact",
            "--model",
            weakly_path,
            "--n",
            "10",
            "--j-max",
            "4",
            "--estimate",
            "--replicates",
            "500",
            "--seed",
            "9",
        ]
    )
    assert rc == 0
    assert "[estimated]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "obj, nu",
    [
        (WEAKLY_MODEL, 0.5),
        (STRONGLY_MODEL, 1.0),
        (INTERMEDIATE_MODEL, 1.0),
        (POSITIVE_MODEL, 1.0),
    ],
    ids=["weakly", "strongly", "intermediate", "positive"],
)
def test_exact_estimate_default_tilt_follows_regime(obj, nu, tmp_path, capsys):
    # without --nu the tilt is lambda* in the weakly supercritical regime and 1
    # otherwise, which needs no negative increment; the estimate is within 4 SE
    # of the certified value
    path, est, cert = (str(tmp_path / name) for name in ("model.json", "est.json", "cert.json"))
    with open(path, "w") as fh:
        json.dump(obj, fh)
    argv = ["exact", "--model", path, "--n", "20", "--j-max", "4"]
    assert main(argv + ["--estimate", "--replicates", "2000", "--seed", "1", "--out", est]) == 0
    assert main(argv + ["--out", cert]) == 0
    with open(est) as fh:
        estimated = json.load(fh)["estimated"]
    with open(cert) as fh:
        exact = json.load(fh)["certified"]["small_value_probability"]
    assert estimated["nu"] == nu
    assert abs(estimated["small_value_probability"] - exact) <= 4.0 * estimated["std_error"]


@pytest.mark.parametrize("nu", ["700", "-700"])
def test_exact_estimate_strong_tilt_stays_finite(nu, weakly_path, capsys):
    # the weight mu^n exp(nu S_n) is formed in log space; mu**n alone overflows
    argv = ["exact", "--model", weakly_path, "--n", "6", "--estimate", "--nu", nu, "--seed", "1"]
    assert main(argv) == 0
    assert "[estimated]" in capsys.readouterr().out


STERILE_MODEL = {
    "states": [{"type": "finite", "probs": [1.0]}, {"type": "lf", "m": 2, "b": 8}],
    "weights": [0.1, 0.9],
}


def _estimate_run(obj, tmp_path, *args):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    argv = [sys.executable, "-m", "bpre.cli", "exact", "--model", str(path), "--n", "5", *args]
    return subprocess.run(argv, capture_output=True, text=True, timeout=60, cwd=tmp_path)


def test_exact_estimate_at_zero_tilt_serves_a_sterile_state(tmp_path):
    # the sterile state has X = -inf, where 0 X is not a number: nu = 0 is
    # the identity tilt, with no warning, and the estimate is within 4 SE of
    # the certified value
    cert = _estimate_run(STERILE_MODEL, tmp_path, "--out", "cert.json")
    est = _estimate_run(STERILE_MODEL, tmp_path, "--estimate", "--nu", "0", "--replicates", "4000",
                        "--seed", "3", "--out", "est.json")
    assert cert.returncode == est.returncode == 0 and cert.stderr == est.stderr == ""
    exact = json.loads((tmp_path / "cert.json").read_text())["certified"]["small_value_probability"]
    estimated = json.loads((tmp_path / "est.json").read_text())["estimated"]
    assert exact == pytest.approx(1.859463e-2, rel=1e-6)
    assert estimated["nu"] == 0.0 and estimated["mu"] == 1.0
    assert abs(estimated["small_value_probability"] - exact) <= 4.0 * estimated["std_error"]


@pytest.mark.parametrize("obj", [STERILE_MODEL, WEAKLY_MODEL], ids=["sterile", "weakly"])
def test_exact_estimate_at_an_overflowing_tilt_exits_two_with_one_line(obj, tmp_path):
    proc = _estimate_run(obj, tmp_path, "--estimate", "--nu", "1e308", "--seed", "1")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: tilt normalizer is not finite and positive\n"


def test_simulate_artifact_embeds_seed(weakly_path, tmp_path):
    out = tmp_path / "sim.json"
    rc = main(
        [
            "simulate",
            "--model",
            weakly_path,
            "--n",
            "5",
            "--replicates",
            "20",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["seed"] == 4
    assert doc["config_hash"]
    assert len(doc["trajectories"]) == 20


def test_byte_identical_artifacts_across_runs_and_workers(weakly_path, tmp_path):
    env = dict(os.environ)
    outputs = []
    for workers, tag in (("1", "a"), ("3", "b")):
        out = tmp_path / f"mrca_{tag}.json"
        env["BPRE_THREADS"] = workers
        code = subprocess.run(
            [
                sys.executable,
                "-m",
                "bpre.cli",
                "mrca",
                "--model",
                weakly_path,
                "--n-list",
                "5",
                "--replicates",
                "20000",
                "--seed",
                "12",
                "--out",
                str(out),
            ],
            env=env,
            capture_output=True,
            text=True,
        ).returncode
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_emit_plot_data_variants():
    rho_doc = {
        "certified": {
            "a_table": [{"n": 1, "a_n": 0.9, "a_n_over_n": 0.9}],
            "lambda0": 0.5,
            "lf_closed_form": 0.4,
        },
        "estimated": {"slope_estimate": 0.45},
    }
    csv = emit_plot_data(rho_doc)
    assert csv.splitlines()[0] == "n,quantity,value,lo,hi"
    assert ",lambda0,0.5,," in csv
    assert ",lf_rho,0.4,," in csv

    mrca_doc = {
        "certified": {},
        "estimated": {
            "points": [
                {"n": 4, "accepted": 100, "proposed": 1000, "bins": [{"k": 1, "count": 50}]}
            ]
        },
    }
    csv = emit_plot_data(mrca_doc)
    assert "4,mrca_pmf_k1,0.5," in csv

    empty_estimated = {
        "certified": {"table": [{"n": 2, "log_p2_over_n": -1.0}]},
        "estimated": {},
    }
    csv = emit_plot_data(empty_estimated)
    assert "2,log_p2_over_n,-1.0,," in csv


# argv that used to escape ``main`` as an exception (or, for the empty
# n-list, to exit 0 with an empty report); {gw}/{weakly} are model paths
BAD_ARGV = [
    "validate --model /",
    "exact --model {weakly} --n 3 --j 1 --out /nonexistent/x.json",
    "rho --model {gw} --n-max 4 --csv /nonexistent/x.csv",
    "rho --model {gw} --n-max 1",
    "rho --model {gw} --n-max 0",
    "exact --model {weakly} --n 3 --j -1",
    "exact --model {weakly} --n 3 --j-max -1",
    "simulate --model {weakly} --n -3 --seed 1",
    "simulate --model {weakly} --n 3 --replicates 0 --seed 1",
    "mrca --model {weakly} --n-list 4 --delta nan --seed 1",
    "examples --which 1 --r 2.0 --p 0.5",
    "mrca --model {weakly} --n-list= --seed 1",
    "exact --model {weakly} --n 2 --j-max 2 --z0 100000000000000000000000",
    "exact --model {weakly} --n 2 --j-max 2 --z0 100000000000000000000000 --estimate --seed 1",
    "simulate --model {weakly} --n 3 --z0 100000000000000000000000 --seed 1",
    "mrca --model {weakly} --n-list 4 --target-size 100000000000000000000 --seed 1",
    "exact --model {weakly} --n 1 --j-max 1000000000000",
    "exact --model {weakly} --n 1 --j 1000000000000 --j-max 1000000000000",
    "examples --which 2 --r 0.5 --p 0.1 --a 1000000000000000000",
    "examples --which 2 --r 0.5 --p 0.1 --a 100000000000000000000",
    "examples --which 1 --r 0.3 --p 0.5 --n-max 100000000000000000000",
    "rho --model {gw} --n-max 100000000000000000000",
    "simulate --model {weakly} --n 100000000000000000000 --seed 1",
    "exact --model {weakly} --n 100000000000000000000 --j-max 2 --estimate --seed 1",
    "mrca --model {weakly} --n-list 4,100000000000000000000 --seed 1",
]


@pytest.mark.parametrize("template", BAD_ARGV)
def test_bad_options_exit_two_with_one_line(template, model_paths, capsys):
    argv = template.format(**model_paths).split()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    proc = subprocess.run(
        [sys.executable, "-m", "bpre.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr == err


_INTS = st.integers(-3, 6)
# edge values first: non-finite, zero, and positives that underflow when raised
_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 5e-324, 1e-200]), st.floats(-2.0, 2.0)
)


def _req(flag, values):
    return values.map(lambda v: [flag, repr(v)])


def _opt(flag, values):
    return st.one_of(st.just([]), _req(flag, values))


_SEED = _opt("--seed", st.integers(-1, 5))
_REPLICATES = _opt("--replicates", st.integers(-2, 64))
_COMMAND_OPTIONS = {
    "validate": [],
    "rho": [_opt("--n-max", st.integers(-2, 4))],
    "simulate": [_req("--n", _INTS), _opt("--z0", _INTS), _REPLICATES, _SEED],
    "exact": [
        _req("--n", _INTS),
        _opt("--z0", _INTS),
        _opt("--j", _INTS),
        _opt("--j-max", _INTS),
        _opt("--degree", _INTS),
        st.sampled_from([[], ["--estimate"]]),
        _opt("--nu", _FLOATS),
        _REPLICATES,
        _SEED,
    ],
    "mrca": [
        st.lists(_INTS, max_size=3).map(lambda ns: ["--n-list=" + ",".join(map(str, ns))]),
        _opt("--target-size", _INTS),
        _opt("--delta", _FLOATS),
        st.sampled_from([[], ["--method", "rejection"]]),
        _REPLICATES,
        _SEED,
    ],
    "examples": [
        _req("--which", st.integers(0, 3)),
        _req("--r", _FLOATS),
        _req("--p", _FLOATS),
        _opt("--a", _INTS),
        _opt("--n-max", st.integers(-2, 4)),
    ],
}


_MODEL_KEYS = ["{gw}", "{weakly}", *(f"{{{name}}}" for name in PROBE_MODELS)]


@st.composite
def cli_argv(draw, command):
    argv = [command]
    if command != "examples":
        argv += ["--model", draw(st.sampled_from(_MODEL_KEYS))]
    for option in _COMMAND_OPTIONS[command]:
        argv += draw(option)
    return argv


@pytest.mark.parametrize("command", sorted(_COMMAND_OPTIONS))
@given(data=st.data())
def test_cli_fuzz_exit_codes(command, model_paths, data):
    argv = [arg.format(**model_paths) for arg in data.draw(cli_argv(command))]
    assert main(argv) in (0, 1, 2, 3)


@pytest.mark.parametrize("command", ["validate", "rho --n-max 4"])
def test_tiny_increments_return(command, tmp_path):
    # increments +-1e-6 put the critical tilt near 1.1e6, where the spacing of
    # doubles exceeds any fixed absolute tolerance of a minimiser's bracket
    states = [
        {"type": "lf", "m": math.exp(x), "b": 2.0 * math.exp(2.0 * x)} for x in (1e-6, -1e-6)
    ]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"states": states, "weights": [0.9, 0.1]}))
    argv = [sys.executable, "-m", "bpre.cli", *command.split(), "--model", str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
