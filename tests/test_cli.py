import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bpre import simulate
from bpre.cli import ExperimentConfig, emit_plot_data, main
from bpre.environment import EnvironmentModel
from bpre.errors import ContractError
from bpre.models import intermediate_model, strongly_model

from helpers import reachable_closure_oracle

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
