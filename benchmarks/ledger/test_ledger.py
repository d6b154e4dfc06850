"""Self-test of the ledger benchmark (outside the tier-1 test paths).

Run explicitly, about 20 s::

    python3 -m pytest benchmarks/ledger/test_ledger.py -q
"""

import contextlib
import io
import json
import multiprocessing
import re
import threading

import pytest

import ledger
import run
from workloads import WORKLOADS

SPEC = json.loads(run.SPEC_PATH.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Metrics that must repeat exactly on identical code and seed.
EXACT = ("host_calls_per_tx", "sim_tx_per_s", "sim_checkout_mean_ms",
         "sim_checkout_p90_ms")


def run_main(argv):
    """Run the benchmark in-process: (exit code, stdout lines)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(argv)
    return code, buffer.getvalue().strip().splitlines()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two smoke runs over all six workloads: (exit code, last
    line, ledger, path of the ledger file) each."""
    results = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp("ledger") / f"{tag}.json"
        code, lines = run_main(["--seed", "5", "--cells", "1",
                                "--scale", "0.1", "--out", str(out)])
        results.append((code, json.loads(lines[-1]),
                        json.loads(out.read_text()), out))
    return results


def test_spec_names_and_counts():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(metric["name"] == "setup_s" and metric["unit"] == "s"
               and metric["better"] == "lower"
               for metric in SPEC["end_to_end"])
    assert all(0 < metric["bound"] <= 0.25
               for metric in SPEC["end_to_end"])


def test_every_metric_emitted_for_every_workload(runs):
    code, last, record, _ = runs[0]
    assert code == 0 and last["correct"] is True
    assert last["attempted"] >= 1 and last["failed"] == 0
    assert record["comparable"] is False
    for name in WORKLOADS:
        summary = record["workloads"][name]
        assert summary["correct"], summary["problems"]
        for group in ("end_to_end", "per_layer"):
            for metric in SPEC[group]:
                emitted = last["metrics"][f"{name}/{metric['name']}"]
                assert emitted["unit"] == metric["unit"]
                assert isinstance(emitted["value"], (int, float))
        for metric in SPEC["end_to_end"]:
            assert last["metrics"][f"{name}/{metric['name']}"][
                "value"] > 0


def test_layering_is_what_the_workloads_claim(runs):
    workloads = runs[0][2]["workloads"]
    for name in ("steady-eventual", "steady-dataflow",
                 "bigworld-eventual"):
        layer = workloads[name]["per_layer"]
        assert layer["txn.self_share"] == 0 and layer["txn.started"] == 0
    for name, summary in workloads.items():
        dataflow = summary["per_layer"]["dataflow.self_share"]
        assert (dataflow > 0) == (name == "steady-dataflow")
    assert workloads["peak-custom"]["per_layer"]["sqlstore.committed"] > 0


def test_exact_metrics_repeat(runs):
    first, second = runs[0][2]["workloads"], runs[1][2]["workloads"]
    for name in WORKLOADS:
        assert first[name]["payload"] == second[name]["payload"]
        for metric in EXACT:
            assert (first[name]["end_to_end"][metric]["value"]
                    == second[name]["end_to_end"][metric]["value"])


def test_compare_same_code_has_equal_exact_metrics(runs):
    # One tenth-size cell per side: the host rows are noise here and
    # may read anything; the exact rows may not.
    _, table = run_main(["--compare", str(runs[0][3]),
                         str(runs[1][3])])
    rows = [line for line in table if line.split()[-1] in (
        "same", "better", "worse", "unresolved")]
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"])
    for line in rows:
        if line.split()[1] in EXACT:
            assert line.split()[-1] == "same"


def test_trace_file_has_parented_spans(runs):
    out = runs[0][3]
    trace = json.loads(
        out.with_name(out.stem + "_trace.json").read_text())
    spans = [event for event in trace["traceEvents"]
             if event["ph"] == "X"]
    assert {span["name"] for span in spans} >= {
        "cell", "runtime.env_init", "apps.build", "core.build_driver",
        "core.driver.run", "apps.ingest", "core.criteria.audit",
        "core.matrix.payload"}
    assert all(span["args"]["parent"] or span["name"] == "cell"
               for span in spans)


def test_single_workload_driver_contract():
    code, lines = run_main(["--workload", "steady-eventual", "--seed",
                            "9", "--cells", "1", "--scale", "0.1",
                            "--trace", "0"])
    last = json.loads(lines[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {
        metric["name"] for metric in SPEC["end_to_end"]}


def test_missing_profile_target_is_null_not_zero(monkeypatch):
    monkeypatch.setitem(ledger.PROFILE_TARGETS, "cow.views_per_tx",
                        "repro.cow:NoSuchClass.__init__")
    code, lines = run_main(["--workload", "steady-eventual", "--seed",
                            "9", "--cells", "1", "--scale", "0.1",
                            "--trace", "1"])
    last = json.loads(lines[-1])
    assert code != 0 and last["correct"] is False
    assert last["metrics"]["cow.views_per_tx"]["value"] is None


def test_no_worker_survives(runs):
    assert multiprocessing.active_children() == []
    assert threading.active_count() == 1
    assert run.leftover_workers() == []
