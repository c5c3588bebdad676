"""The README's examples run in order and print what the README says, and its scenarios are the CLI's."""
import json
import re

import pytest

from linemarket import cli

import instances

README = instances.SCENARIOS.parents[1] / "README.md"


def _blocks(language):
    """The README's fenced blocks of one language, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


@pytest.fixture(scope="module")
def quick_start():
    """The namespace the README's three python blocks leave, run in order as one program."""
    blocks = _blocks("python")
    assert len(blocks) == 3, f"expected 3 python blocks, found {len(blocks)}"
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    return ns


def test_quick_start_prints_what_it_says(quick_start):
    """The run's and the oracle's verdicts and shares are the ones the quick start's comments state."""
    res, ref, report = quick_start["res"], quick_start["ref"], quick_start["report"]
    shares = res.state.shares.as_dict()
    assert res.converged is True
    assert abs(shares["k0"] - 0.8) <= 0.02 and abs(shares["k1"] - 0.2) <= 0.02, shares
    assert abs(res.objective - ref.objective) / ref.objective <= 0.02
    optimal = ref.state.shares.as_dict()
    assert all(abs(optimal[k] - shares[k]) <= 0.02 for k in shares), (optimal, shares)
    assert report.max_scaled() <= 0.1


def test_warm_restart_examples_converge(quick_start):
    assert quick_start["again"].converged
    assert all(rec.status == "converged" for rec in quick_start["outcome"].records())


def test_scenario_documents_pass_the_cli_readers(tmp_path):
    """Every scenario the README documents passes the CLI's readers, so the documented schema cannot
    drift from the one they accept."""
    docs = [json.loads(block) for block in _blocks("json")]
    assert len(docs) == 2, f"expected 2 scenario blocks, found {len(docs)}"
    for doc in docs:
        scn = cli._read(doc, "scenario", cli._SCENARIO)
        cli._mech_config(scn)
        if "grid" in scn:
            cli._build_instance(scn, 0, tmp_path)
        if "disruption" in scn:
            cli._disruption(scn, 0)
    assert any("grid" in doc for doc in docs), "no grid scenario in the README"


def test_demo_scenario_is_the_committed_demo():
    """The README's grid scenario is the committed demo.json."""
    assert json.loads(_blocks("json")[0]) == instances.scenario("demo")
