"""Self-tests of the ledger at smoke sizes (64 ranks, one op):
``python -m pytest ledger -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

from ledger import run
from ledger.common import END_TO_END, LEDGER, PER_LAYER, ROOT, SPEC, WORKLOADS
from ledger.layers import LAYERS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert END_TO_END["setup_s"]["unit"] == "s" and END_TO_END["setup_s"]["better"] == "lower"
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["paths"] == ["ledger"] and SPEC["command"] == ["python3", "ledger/run.py"]


def test_every_layer_has_a_share_and_a_count():
    for layer in LAYERS:
        assert f"{layer}.self_share" in PER_LAYER and f"{layer}.calls" in PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, capsys):
    record = run.measure(workload, seed=0, seconds=0.2, trace=False, smoke=True)
    assert record["failed"] == 0, record["failures"]
    assert all(v is not None and v > 0 for v in record["metrics"].values()), record["metrics"]
    line = json.loads(run.result_line(record))
    assert line["correct"] and line["attempted"] >= 1
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        n: m["unit"] for n, m in END_TO_END.items()
    }
    run.show(record)
    printed = capsys.readouterr().out
    for name, metric in END_TO_END.items():
        assert re.search(rf"{re.escape(name)}\s+\S+ {re.escape(metric['unit'])}", printed), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_exact_where_it_claims_to_be(workload, capsys):
    first = run.measure(workload, seed=0, seconds=0.2, trace=True, smoke=True)
    second = run.measure(workload, seed=0, seconds=0.2, trace=True, smoke=True)
    assert first["failed"] == 0, first["failures"]
    shares = [first["metrics"][f"{layer}.self_share"] for layer in LAYERS]
    assert abs(sum(shares) - 1.0) <= 0.01
    exact = [n for n in PER_LAYER if n.endswith(".calls") or n.startswith("sim.")]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}
    assert set(json.loads(run.result_line(first))["metrics"]) == set(PER_LAYER)
    run.show(first)
    printed = capsys.readouterr().out
    for name, metric in PER_LAYER.items():
        assert re.search(
            rf"{re.escape(name)}\s+(\S+ {re.escape(metric['unit'])}|n/a here|skipped)", printed
        ), name
    assert (ROOT / first["trace_file"]).is_file()


def test_a_checkout_without_the_program_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(LEDGER, tmp_path / "ledger", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()
