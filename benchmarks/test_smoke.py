"""Smoke test of the benchmark harness on one tiny case per workload.

Run from the root of a checkout: ``python3 -m pytest benchmarks/test_smoke.py -q``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import cases
import probe
import run
import spans

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """One case at m2 = 4 per workload, and one set-up sample."""
    monkeypatch.setattr(cases, "GRIDS", cases.GRIDS[:1])
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    return lambda name: dataclasses.replace(cases.WORKLOADS[name], m2_values=(4,))


def printed_metrics(text: str) -> dict:
    """{name: unit} of the printed metric lines."""
    found = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 3:
            found[parts[0]] = parts[2]
    return found


@pytest.mark.parametrize("name", sorted(cases.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(name, trace, tiny, capsys):
    result = run.measure(tiny(name), seed=0, seconds=0, trace=trace)
    out = capsys.readouterr().out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = printed_metrics(out)
    for metric, unit in declared.items():
        assert printed.get(metric) == unit, metric
    if trace:
        # every traced second belongs to exactly one layer
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert layers == pytest.approx(m["cli.total_s"], rel=1e-9)


def test_gate_rejects_perturbed_max_norm2(tmp_path):
    hs, cli, np = probe.set_up(cases.WORKLOADS["sweep-small"])
    kernels = cases.Kernels(hs, np)
    case = cases.Case("sweep", 4, 0.2, -1.0, 10.0)
    _, calls = cases.run_case(cli, case, tmp_path, lambda: 0.0)
    assert cases.gate(case, calls, kernels) == []

    csv = calls[0].out
    header, row = csv.read_text().splitlines()
    fields = row.split(",")
    col = header.split(",").index("max_norm2")
    fields[col] = repr(float(fields[col]) * (1 + 1e-6))
    csv.write_text(f"{header}\n{','.join(fields)}\n")
    problems = cases.gate(case, calls, kernels)
    assert len(problems) == 1 and "disagrees with SVD" in problems[0]
