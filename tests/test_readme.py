"""The README's examples, run as written, against the results it shows."""

import re
from pathlib import Path

import relayflow as rf
from relayflow import cli

README = (Path(__file__).parent.parent / "README.md").read_text()


def _block(lang, heading):
    """The first ``lang`` code block after ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs_as_written():
    code = _block("python", "## Library quick start")
    for shown in (
        "# 2.0, cut {1.1, 2.2}",
        "# f = {1.1: 2, 2.1: 1, 2.2: 1, 3.1: 2}",
        "# True",
        "# rate = min-cut - 1 bit",
    ):
        assert shown in code
    scope = {}
    exec(code, scope)
    net, flow, gnet, models, plan = (scope[k] for k in ("net", "flow", "gnet", "models", "plan"))
    assert scope["value"] == 2.0
    assert sorted(n.key() for n in scope["cut"].members) == ["1.1", "2.2"]
    assert {n.key(): flow.at(n) for n in net.nodes()} == {
        "1.1": 2.0, "2.1": 1.0, "2.2": 1.0, "3.1": 2.0
    }
    assert rf.verify_flow(net, flow).passed
    assert plan.rate == rf.min_cut(gnet)[0] - 1.0
    assert rf.check_layered_feasible(gnet, models, plan).passed


def test_cli_example_file_prints_the_shown_min_cut(tmp_path, capsys):
    netfile = tmp_path / "net.json"
    netfile.write_text(_block("json", "## CLI"))
    shown = re.search(r"\nrelayflow mincut net\.json +# (\{.*\})\n", README).group(1)
    assert cli.main(["mincut", str(netfile)]) == 0
    assert capsys.readouterr().out == shown + "\n"


def test_guard_paragraph_states_the_enforced_limits():
    from relayflow.capacity import (
        AXIOM_GUARD_BITS,
        DISCRETE_GUARD_BITS,
        JOINT_GUARD_RELAYS,
        LAYER_GUARD,
        TABLE_GUARD_BITS,
    )

    text = " ".join(README.split())
    start = text.index("All subset enumerations are guarded")
    sentence = text[start : text.index("node sets).", start)]
    for limit in (
        f"{LAYER_GUARD} nodes per layer and {TABLE_GUARD_BITS} nodes per layer pair",
        f"{AXIOM_GUARD_BITS} per layer pair for the axiom check",
        f"{DISCRETE_GUARD_BITS} per discrete layer pair",
        f"{JOINT_GUARD_RELAYS} relays for the joint region",
        f"{TABLE_GUARD_BITS} nodes outside the destination for the multi-source region "
        f"(`2^{TABLE_GUARD_BITS}`",
    ):
        assert limit in sentence
        sentence = sentence.replace(limit, "")
    # every number the sentence states is one of the limits above
    assert not re.search(r"\d", sentence)
