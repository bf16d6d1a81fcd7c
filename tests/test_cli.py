import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from relayflow import cli
from relayflow.oracle import FAMILIES

DATA = Path(__file__).parent / "data"
SCHEMA = Path(__file__).parent.parent / "schema" / "network.schema.json"

GOLDEN = {
    ("mincut", "line.json"): '{"cut": ["1.1", "2.1"], "value": 2.0}\n',
    ("mincut", "diamond.json"): '{"cut": ["1.1", "2.2"], "value": 2.0}\n',
    (
        "maxflow",
        "diamond.json",
    ): '{"flow": {"1.1": 2.0, "2.1": 1.0, "2.2": 1.0, "3.1": 2.0}, "value": 2.0}\n',
    (
        "plan",
        "diamond.json",
    ): '{"R": 2.0, "flags": [], "kappa": [0.0, 0.0], "r": {"2.1": 1.0, "2.2": 1.0}}\n',
}


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "relayflow.cli", *args],
        capture_output=True,
        text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


@pytest.mark.parametrize("command,fname", sorted(GOLDEN))
def test_golden_outputs(command, fname):
    proc = run_cli(command, str(DATA / fname), check=True)
    assert proc.stdout == GOLDEN[(command, fname)]


@pytest.mark.parametrize("command", ["mincut", "maxflow", "plan", "validate"])
def test_repeated_runs_are_byte_identical(command):
    first = run_cli(command, str(DATA / "diamond.json"), check=True)
    second = run_cli(command, str(DATA / "diamond.json"), check=True)
    assert first.stdout == second.stdout


def test_maxflow_value_matches_mincut_value():
    cut = json.loads(run_cli("mincut", str(DATA / "diamond.json"), check=True).stdout)
    flow = json.loads(run_cli("maxflow", str(DATA / "diamond.json"), check=True).stdout)
    assert abs(cut["value"] - flow["value"]) <= 1e-6


def test_gen_is_deterministic_and_validates(tmp_path):
    args = ("gen", "--seed", "1", "--layers", "1,2,1", "--family", "mixed")
    first = run_cli(*args, check=True)
    second = run_cli(*args, check=True)
    assert first.stdout == second.stdout
    netfile = tmp_path / "gen.json"
    netfile.write_text(first.stdout)
    assert run_cli("validate", str(netfile)).returncode == 0


@pytest.mark.parametrize("family", ["additive", "rank_gf2", "gaussian", "discrete"])
def test_gen_families_round_trip(tmp_path, family):
    out = run_cli("gen", "--seed", "3", "--layers", "1,2,1", "--family", family, check=True)
    netfile = tmp_path / "gen.json"
    netfile.write_text(out.stdout)
    assert run_cli("validate", str(netfile)).returncode == 0
    assert run_cli("plan", str(netfile)).returncode == 0


def test_validate_reports_axiom_violation(tmp_path):
    # table dims come from the layer list; this one breaks monotonicity
    bad = {
        "layers": [2, 1],
        "capacities": [
            {"kind": "table", "values": {"1;1": 1.0, "2;1": 0.0, "1,2;1": 0.5}}
        ],
    }
    netfile = tmp_path / "bad.json"
    netfile.write_text(json.dumps(bad))
    proc = run_cli("validate", str(netfile))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["valid"] is False
    assert payload["oracles"][-1]["counterexample"]["axiom"] == "monotone"


def test_validate_bisubmodular_counterexample_bytes(tmp_path):
    # zero on empty sets and monotone, but the two single transmitters
    # together exceed their separate values on the full receiver set
    values = {
        "1;1": 0.7, "1;2": 1.4, "1;1,2": 2.1,
        "2;1": 0.4, "2;2": 2.2, "2;1,2": 2.6,
        "1,2;1": 1.1, "1,2;2": 3.6, "1,2;1,2": 4.8,
    }
    net = {"layers": [2, 2], "capacities": [{"kind": "table", "values": values}]}
    netfile = tmp_path / "bisub.json"
    netfile.write_text(json.dumps(net))
    proc = run_cli("validate", str(netfile))
    assert proc.returncode == 1
    assert proc.stdout == (
        '{"oracles": [{"counterexample": {"U1": [1], "U2": [2], "V1": [1, 2], '
        '"V2": [1, 2], "axiom": "bisubmodular", "lhs": 4.8, "rhs": 4.7}, '
        '"layer_pair": 1, "ok": false}], "valid": false}\n'
    )


def test_validate_accepts_well_behaved_table(tmp_path):
    net = {
        "layers": [2, 1],
        "capacities": [
            {"kind": "table", "values": {"1;1": 1.0, "2;1": 0.5, "1,2;1": 1.25}}
        ],
    }
    netfile = tmp_path / "table.json"
    netfile.write_text(json.dumps(net))
    assert run_cli("validate", str(netfile)).returncode == 0


@pytest.mark.parametrize(
    "first,layer_pair,cell",
    [(1e308, 1, "U=[1], V=[1, 2]"), (1.0, 2, "U=[1, 2], V=[1]")],
)
def test_validate_refuses_overflowing_tables(tmp_path, first, layer_pair, cell):
    # finite additive entries whose sums overflow to inf in the table
    net = {
        "layers": [1, 2, 1],
        "capacities": [
            {"kind": "additive", "matrix": [[first, first]]},
            {"kind": "additive", "matrix": [[1e308], [1e308]]},
        ],
    }
    netfile = tmp_path / "overflow.json"
    netfile.write_text(json.dumps(net))
    proc = run_cli("validate", str(netfile))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["detail"] == (
        f"layer pair {layer_pair}: capacity at {cell} is inf, not a finite number"
    )
    # the refusal reports the overflow; numpy does not warn about it
    assert proc.stderr == ""


@pytest.mark.parametrize("command", ["mincut", "maxflow"])
def test_overflowing_cut_is_refused_without_warnings(tmp_path, command):
    # every cut crosses two entries of 1e308, whose sum overflows
    net = {
        "layers": [1, 2, 1],
        "capacities": [
            {"kind": "additive", "matrix": [[1e308, 1e308]]},
            {"kind": "additive", "matrix": [[1e308], [1e308]]},
        ],
    }
    netfile = tmp_path / "overflow.json"
    netfile.write_text(json.dumps(net))
    proc = run_cli(command, str(netfile))
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout)["detail"] == "cut value is inf, not a finite number"


def test_parse_error_exits_two(tmp_path):
    netfile = tmp_path / "broken.json"
    netfile.write_text("{not json")
    proc = run_cli("mincut", str(netfile))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "input"


def test_missing_file_exits_two():
    proc = run_cli("mincut", "/nonexistent/net.json")
    assert proc.returncode == 2


def test_guard_exits_three(tmp_path):
    wide = {
        "layers": [1, 17, 1],
        "capacities": [
            {"kind": "additive", "matrix": [[1.0] * 17]},
            {"kind": "additive", "matrix": [[1.0]] * 17},
        ],
    }
    netfile = tmp_path / "wide.json"
    netfile.write_text(json.dumps(wide))
    proc = run_cli("mincut", str(netfile))
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "too_large"


@pytest.mark.parametrize("command", ["mincut", "maxflow"])
def test_table_guard_exits_three_before_any_cell(tmp_path, capsys, oracle_calls, command):
    # 13 + 13 nodes in the middle pair: a dense table would hold 2^26 cells
    wide = {
        "layers": [1, 13, 13, 1],
        "capacities": [
            {"kind": "additive", "matrix": [[1.0] * 13]},
            {"kind": "additive", "matrix": [[1.0] * 13] * 13},
            {"kind": "additive", "matrix": [[1.0]] * 13},
        ],
    }
    netfile = tmp_path / "wide.json"
    netfile.write_text(json.dumps(wide))
    assert cli.main([command, str(netfile)]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "too_large"
    assert oracle_calls == []


#: a 30-node relay layer, past the 16-node subset guard; one leak column of
#: it would hold 2^30 entries
WIDE_MODEL_FILES = {
    "deterministic": {
        "layers": [1, 30, 1],
        "capacities": [
            {"kind": "additive", "matrix": [[1.0] * 30]},
            {"kind": "additive", "matrix": [[1.0]] * 30},
        ],
        "models": [{"kind": "deterministic"}] * 2,
    },
    "gaussian": {
        "layers": [1, 30, 1],
        "capacities": [
            {"kind": "gaussian", "h_re": [[1.0]] * 30, "h_im": [[0.0]] * 30},
            {"kind": "gaussian", "h_re": [[1.0] * 30], "h_im": [[0.0] * 30]},
        ],
        "models": [{"kind": "gaussian"}] * 2,
    },
}


@pytest.mark.parametrize("family", sorted(WIDE_MODEL_FILES))
@pytest.mark.parametrize(
    "command", [["plan"], ["check"], ["check", "--mode", "joint"]], ids=" ".join
)
def test_wide_model_layer_exits_three_before_any_cell(
    tmp_path, capsys, oracle_calls, family, command
):
    # the penalty recursion reads each model's whole leak before the max-flow
    # guard; that read must not tabulate every receiver mask
    netfile = tmp_path / "wide.json"
    netfile.write_text(json.dumps(WIDE_MODEL_FILES[family]))
    assert cli.main([command[0], str(netfile), *command[1:]]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "too_large"
    assert oracle_calls == []


def test_files_match_schema(capsys):
    validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
    paths = sorted(DATA.glob("*.json"))
    assert paths
    for path in paths:
        data = json.loads(path.read_text())
        validator.validate(data.get("network", data))  # fixtures wrap the network
    for family in (*FAMILIES, "mixed"):
        assert cli.main(["gen", "--seed", "3", "--layers", "1,2,2,1", "--family", family]) == 0
        validator.validate(json.loads(capsys.readouterr().out))


def test_check_layered_on_deterministic_plan(tmp_path):
    proc = run_cli("check", str(DATA / "diamond.json"), "--mode", "layered")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["pass"] is True


def test_check_multi_needs_rates(tmp_path):
    proc = run_cli("check", str(DATA / "diamond.json"), "--mode", "multi")
    assert proc.returncode == 2


def test_check_joint_rejects_plain_deterministic_markers():
    # joint checking needs gaussian or discrete channel data
    proc = run_cli("check", str(DATA / "diamond.json"), "--mode", "joint")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "input"


def test_check_multi_source(tmp_path):
    net = {
        "layers": [2, 1],
        "capacities": [{"kind": "additive", "matrix": [[1.0], [1.0]]}],
        "models": [{"kind": "deterministic"}],
        "boundary": {"source_rates": [0.5, 0.5]},
    }
    netfile = tmp_path / "ms.json"
    netfile.write_text(json.dumps(net))
    proc = run_cli("check", str(netfile), "--mode", "multi")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


def test_check_multi_guard_exits_three_before_any_cell(tmp_path, capsys, oracle_calls):
    # 36 nodes outside the destination: 2^36 node sets to enumerate
    wide = {
        "layers": [12, 12, 12, 1],
        "capacities": [
            {"kind": "additive", "matrix": [[1.0] * 12] * 12},
            {"kind": "additive", "matrix": [[1.0] * 12] * 12},
            {"kind": "additive", "matrix": [[1.0]] * 12},
        ],
        "models": [{"kind": "deterministic"}] * 3,
        "boundary": {"source_rates": [0.0] * 12},
    }
    netfile = tmp_path / "wide.json"
    netfile.write_text(json.dumps(wide))
    assert cli.main(["check", str(netfile), "--mode", "multi"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "too_large"
    assert "68719476736 node sets" in payload["detail"]
    assert oracle_calls == []


def test_maxflow_with_boundary_flows_in_file(tmp_path):
    net = {
        "layers": [2, 1, 1],
        "capacities": [
            {"kind": "additive", "matrix": [[2.0], [2.0]]},
            {"kind": "additive", "matrix": [[4.0]]},
        ],
        "boundary": {"source_flows": [1.0, 2.0], "destination_flows": [3.0]},
    }
    netfile = tmp_path / "boundary.json"
    netfile.write_text(json.dumps(net))
    payload = json.loads(run_cli("maxflow", str(netfile), check=True).stdout)
    assert payload["value"] == 3.0
    assert payload["flow"]["2.1"] == 3.0


def test_plan_without_models_is_input_error(tmp_path):
    net = {
        "layers": [1, 1],
        "capacities": [{"kind": "additive", "matrix": [[1.0]]}],
    }
    netfile = tmp_path / "nomodel.json"
    netfile.write_text(json.dumps(net))
    proc = run_cli("plan", str(netfile))
    assert proc.returncode == 2


# --- non-finite numbers -------------------------------------------------------

_DETERMINISTIC = [{"kind": "deterministic"}, {"kind": "deterministic"}]

#: network files whose JSON carries a NaN or an infinity where a number goes
NON_FINITE_FILES = {
    "additive": (
        '{"layers": [1, 2, 1], "capacities": [{"kind": "additive", "matrix": '
        '[[1.0, NaN]]}, {"kind": "additive", "matrix": [[1.0], [2.0]]}], '
        f'"models": {json.dumps(_DETERMINISTIC)}}}'
    ),
    "gaussian": (
        '{"layers": [1, 1, 1], "capacities": [{"kind": "gaussian", "h_re": [[1.0]], '
        '"h_im": [[Infinity]]}, {"kind": "gaussian", "h_re": [[1.0]], "h_im": [[0.0]]}], '
        '"models": [{"kind": "gaussian"}, {"kind": "gaussian"}]}'
    ),
    "table": (
        '{"layers": [1, 1, 1], "capacities": [{"kind": "table", "values": '
        '{"1;1": -Infinity}}, {"kind": "additive", "matrix": [[2.0]]}], '
        f'"models": {json.dumps(_DETERMINISTIC)}}}'
    ),
}

ENTRY_POINTS = [
    ["validate"],
    ["mincut"],
    ["maxflow"],
    ["plan"],
    ["check", "--mode", "layered"],
    ["check", "--mode", "joint"],
    ["check", "--mode", "multi"],
    ["complexity"],
]


def _run_main(capsys, argv):
    code = cli.main(argv)
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("family", sorted(NON_FINITE_FILES))
@pytest.mark.parametrize("command", ENTRY_POINTS, ids=" ".join)
def test_non_finite_capacity_exits_two(tmp_path, capsys, command, family):
    netfile = tmp_path / "bad.json"
    netfile.write_text(NON_FINITE_FILES[family])
    code, out = _run_main(capsys, [command[0], str(netfile), *command[1:]])
    assert code == 2
    assert out["error"] == "input" and "finite" in out["detail"]


@pytest.mark.parametrize("command", ["mincut", "maxflow"])
@pytest.mark.parametrize("side", ["source_flows", "destination_flows"])
def test_non_finite_boundary_flow_exits_two(tmp_path, capsys, command, side):
    boundary = {"source_flows": [1.0, 1.0], "destination_flows": [2.0]}
    boundary[side][0] = math.nan if side == "source_flows" else math.inf
    data = {
        "layers": [2, 1, 1],
        "capacities": [
            {"kind": "additive", "matrix": [[2.0], [2.0]]},
            {"kind": "additive", "matrix": [[4.0]]},
        ],
        "boundary": boundary,
    }
    netfile = tmp_path / "boundary.json"
    netfile.write_text(json.dumps(data))
    code, out = _run_main(capsys, [command, str(netfile)])
    assert code == 2
    assert out == {"detail": "boundary flows must be finite numbers, not NaN or infinity",
                   "error": "input"}


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_non_finite_source_rate_exits_two(tmp_path, capsys, rate):
    data = json.loads((DATA / "line.json").read_text())
    data["boundary"] = {"source_rates": [rate]}
    netfile = tmp_path / "rates.json"
    netfile.write_text(json.dumps(data))
    code, out = _run_main(capsys, ["check", str(netfile), "--mode", "multi"])
    assert code == 2
    assert out["error"] == "input" and "source rates" in out["detail"]


_TIED_LARGE_GAINS = {
    "layers": [1, 2, 1],
    "capacities": [
        {"kind": "gaussian", "h_re": [[1e9], [1e9]], "h_im": [[0.0], [0.0]]},
        {"kind": "gaussian", "h_re": [[1.0, 1.0]], "h_im": [[0.0, 0.0]]},
    ],
    "boundary": {"source_rates": [1.0]},
}


@pytest.mark.parametrize("command", ENTRY_POINTS, ids=" ".join)
def test_tied_large_gaussian_gains_exit_one(tmp_path, capsys, command):
    # a schema-valid file whose Cholesky of I + H H^* / 2 breaks down: a
    # numerical failure (exit 1), not an input error
    netfile = tmp_path / "gains.json"
    netfile.write_text(json.dumps(_TIED_LARGE_GAINS))
    code, out = _run_main(capsys, [command[0], str(netfile), *command[1:]])
    detail = "Gaussian log-det: Cholesky failed (Matrix is not positive definite)"
    if command == ["validate"]:
        detail = "layer pair 1: " + detail
    assert (code, out) == (1, {"detail": detail, "error": "infeasible"})


@pytest.mark.parametrize("command", ENTRY_POINTS, ids=" ".join)
def test_discrete_node_limit_exits_three_at_parse(tmp_path, capsys, oracle_calls, command):
    # a (1, 12) discrete pair: 13 nodes, one more than the discrete limit
    wide = {
        "layers": [1, 12, 1],
        "capacities": [
            {
                "kind": "discrete",
                "pmfs": [[0.5, 0.5]],
                "channel": [[[0.5, 0.5], [0.5, 0.5]]] * 12,
                "quantizer": [[[1.0, 0.0], [0.0, 1.0]]] * 12,
            },
            {"kind": "additive", "matrix": [[1.0]] * 12},
        ],
        "models": [{"kind": "discrete"}, {"kind": "deterministic"}],
        "boundary": {"source_rates": [1.0]},
    }
    netfile = tmp_path / "wide.json"
    netfile.write_text(json.dumps(wide))
    code, out = _run_main(capsys, [command[0], str(netfile), *command[1:]])
    assert (code, out) == (
        3,
        {"detail": "discrete capacity oracle limited to 12 nodes per layer pair",
         "error": "too_large"},
    )
    assert oracle_calls == []


def test_non_finite_tolerance_exits_two(capsys):
    code, out = _run_main(capsys, ["--tol", "nan", "validate", str(DATA / "line.json")])
    assert code == 2 and out["error"] == "input"


def test_infinite_layer_size_exits_two(tmp_path, capsys):
    netfile = tmp_path / "layers.json"
    netfile.write_text('{"layers": [1, Infinity], "capacities": [{"kind": "additive", "matrix": [[1.0]]}]}')
    code, out = _run_main(capsys, ["mincut", str(netfile)])
    assert code == 2 and out["error"] == "input"


def test_nan_file_exits_two_without_traceback(tmp_path):
    netfile = tmp_path / "nan.json"
    netfile.write_text(NON_FINITE_FILES["additive"])
    proc = run_cli("mincut", str(netfile))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "input"
    assert "Traceback" not in proc.stderr


# --- malformed fields -----------------------------------------------------------

_SMALL = {
    "layers": [2, 1],
    "capacities": [{"kind": "additive", "matrix": [[1.0], [1.0]]}],
    "models": [{"kind": "deterministic"}],
}

_NUMBERS = "must be an array of numbers"

#: a field that is malformed, missing or contradicts another, a command
#: that reads it, and the refusal's detail
MALFORMED = {
    "source_rates_number": (
        ["check", "--mode", "multi"],
        {"boundary": {"source_rates": 5}},
        "boundary.source_rates " + _NUMBERS,
    ),
    "source_rates_null": (
        ["check", "--mode", "multi"],
        {"boundary": {"source_rates": [None, 1]}},
        "boundary.source_rates " + _NUMBERS,
    ),
    "source_rates_missing": (
        ["check", "--mode", "multi"],
        {},
        "multi-source check needs boundary.source_rates",
    ),
    "source_flows_number": (
        ["mincut"],
        {"boundary": {"source_flows": 3, "destination_flows": [1.0]}},
        "boundary.source_flows " + _NUMBERS,
    ),
    "source_flows_alone": (
        ["mincut"],
        {"boundary": {"source_flows": [1.0, 1.0]}},
        "boundary flows need both source_flows and destination_flows",
    ),
    "models_number": (["validate"], {"models": 5}, "'models' must be an array"),
    "models_count": (
        ["mincut"],
        {"models": [{"kind": "deterministic"}] * 2},
        "need one model marker per layer pair",
    ),
    "models_gaussian_on_additive": (
        ["mincut"],
        {"models": [{"kind": "gaussian"}]},
        "layer pair 1: gaussian marker on a additive capacity",
    ),
    "models_none_then_plan": (
        ["plan"],
        {"models": [{"kind": "none"}]},
        "this command needs a model for every layer pair",
    ),
    "models_unknown": (
        ["mincut"],
        {"models": [{"kind": "noisy"}]},
        "unknown model marker {'kind': 'noisy'}",
    ),
    "layers_string": (["mincut"], {"layers": "21"}, "'layers' must be an array"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_field_exits_two(tmp_path, capsys, case):
    command, fields, detail = MALFORMED[case]
    netfile = tmp_path / "bad.json"
    netfile.write_text(json.dumps({**_SMALL, **fields}))
    code, out = _run_main(capsys, [command[0], str(netfile), *command[1:]])
    assert code == 2 and out["error"] == "input"
    assert out["detail"].startswith(detail)


def test_malformed_boundary_field_is_left_to_the_commands_that_read_it(tmp_path, capsys):
    netfile = tmp_path / "net.json"
    netfile.write_text(json.dumps(_SMALL))
    want = {command: _run_main(capsys, [command, str(netfile)]) for command in ("mincut", "plan")}
    netfile.write_text(json.dumps({**_SMALL, "boundary": {"source_rates": 5}}))
    assert _run_main(capsys, ["mincut", str(netfile)]) == want["mincut"]
    netfile.write_text(json.dumps({**_SMALL, "boundary": {"source_flows": 3}}))
    assert _run_main(capsys, ["plan", str(netfile)]) == want["plan"]
