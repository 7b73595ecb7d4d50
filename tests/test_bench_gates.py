"""The shared gate runner of the standalone ``benchmarks/bench_*.py`` scripts."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

GATES_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "gates.py"


@pytest.fixture()
def gates(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_gates", GATES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPORT_DIR", tmp_path)
    monkeypatch.setattr(
        module,
        "GATES",
        (
            ("demo", "floor", ">=", 1.0, 2.0),
            ("demo", "ceiling", "<=", 10, 5),
            ("demo", "flag", "==", True, True),
            ("other", "unrelated", ">=", 100.0, 100.0),
        ),
    )
    return module


def _report(gates):
    return json.loads((gates.REPORT_DIR / "BENCH_demo.json").read_text())


@pytest.mark.parametrize(
    "metrics, quick, failing",
    [
        ({"floor": 2.0, "ceiling": 5, "flag": True}, False, set()),
        ({"floor": 1.5, "ceiling": 5, "flag": True}, False, {"floor"}),
        ({"floor": 1.5, "ceiling": 5, "flag": True}, True, set()),
        ({"floor": 2.0, "ceiling": 6, "flag": True}, False, {"ceiling"}),
        ({"floor": 2.0, "ceiling": 6, "flag": True}, True, set()),
        ({"floor": 2.0, "ceiling": 5, "flag": False}, False, {"flag"}),
        ({"floor": 0.5, "ceiling": 11, "flag": False}, True, {"floor", "ceiling", "flag"}),
    ],
)
def test_each_op_against_the_bound_of_its_mode(gates, capsys, metrics, quick, failing):
    code = gates.finish("demo", metrics, quick)
    assert code == (1 if failing else 0)
    verdicts = {gate["metric"]: gate["ok"] for gate in _report(gates)["gates"]}
    assert {metric for metric, ok in verdicts.items() if not ok} == failing
    stderr = capsys.readouterr().err
    for metric in verdicts:
        assert (f"{metric}:" in stderr) == (metric in failing)


def test_one_uniform_entry_per_row(gates):
    gates.finish("demo", {"floor": 3.0, "ceiling": 7, "flag": True, "extra": 1}, True, {"a": [1]})
    report = _report(gates)
    assert report["gates"] == [
        {"metric": "floor", "op": ">=", "bound": 1.0, "measured": 3.0, "ok": True},
        {"metric": "ceiling", "op": "<=", "bound": 10, "measured": 7, "ok": True},
        {"metric": "flag", "op": "==", "bound": True, "measured": True, "ok": True},
    ]
    assert report["quick"] is True
    assert report["metrics"]["extra"] == 1
    assert report["runs"] == {"a": [1]}


def test_a_gated_metric_the_benchmark_did_not_produce_raises(gates):
    with pytest.raises(KeyError, match="metric .ceiling. was not measured"):
        gates.finish("demo", {"floor": 3.0, "flag": True}, False)
    assert not (gates.REPORT_DIR / "BENCH_demo.json").exists()


def test_a_benchmark_without_rows_raises(gates):
    with pytest.raises(KeyError, match="missing"):
        gates.finish("missing", {"floor": 3.0}, False)

