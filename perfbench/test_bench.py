"""Self-test of the benchmark at L = 8.

    python3 -m pytest perfbench/test_bench.py

Checks that every metric is printed by name with a unit, that the JSON line
matches BENCHMARK.json, that exact counts repeat for one seed, and that a
perturbed pair or a truncated CSV is counted as a failed operation.
"""

import json
import os
import re

import pytest

import run

run._import_qozcp()

import qozcp.cli  # noqa: E402
import qozcp.solver  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


class TinyDesign(workloads.DesignWorkload):
    configs = ((8, 3),)
    max_iter = 200


class TinyZone(workloads.ZoneTargetWorkload):
    configs = ((8, 2),)
    iteration_cap = 500


class TinyEvaluate(workloads.EvaluateWorkload):
    L, Z, n_pri = 8, 3, 8
    sampled_lags = 3


TINY = {w.name: w for w in (TinyDesign, TinyZone, TinyEvaluate)}

# Every end-to-end name the issue defines, per workload, printed by report().
ISSUE_NAMES = {
    "design-L64-papr": ["design_s", "design_iters"],
    "zone-target-L4096-unimodular": ["time_to_zone_s", "iters_to_zone"],
    "evaluate-L256-N1024": ["evaluate_s"],
}
COMMON_NAMES = ["setup_s", "op_p50_s", "op_tail_s", "cpu_s", "peak_rss_mb", "fail_rate"]
COUNTS = ["solver.iterations", "solver.evals_per_iter", "solver.proj.calls_per_iter",
          "ambiguity.correlations_per_surface", "waveform.materialize.calls"]


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    for name, cls in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, cls)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _bench(capsys, name, trace, seed=1):
    assert run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.5",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {}
    for line in lines[:-1]:
        m = re.match(r"metric (\S+) = (\S+) (\S+)", line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    return result, printed


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_printed_with_unit(capsys, name):
    result, printed = _bench(capsys, name, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for key in list(want) + ISSUE_NAMES[name] + COMMON_NAMES:
        assert key in printed and printed[key][1], f"{key} not printed with a unit"

    traced, printed = _bench(capsys, name, trace=1)
    assert traced["correct"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == want
    assert all(printed[key][1] == unit for key, unit in want.items())


@pytest.mark.parametrize("name", sorted(TINY))
def test_exact_counts_repeat_for_one_seed(capsys, name):
    first, _ = _bench(capsys, name, trace=1, seed=7)
    second, _ = _bench(capsys, name, trace=1, seed=7)
    for key in COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_missing_name_is_reported_absent(capsys, monkeypatch):
    import numpy.fft
    originals = (qozcp.solver.sdamm_step, qozcp.cli.write_surface_table, numpy.fft.fft)
    missing = ("qozcp.solver", "renamed_away", "solver.renamed_away")
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [missing])
    result, _ = _bench(capsys, "zone-target-L4096-unimodular", trace=1)
    assert result["correct"]
    with open(os.path.join(run.OUT_DIR, "zone-target-L4096-unimodular-seed1-trace1.json")) as fh:
        assert "qozcp.solver.renamed_away" in json.load(fh)["absent"]
    assert (qozcp.solver.sdamm_step, qozcp.cli.write_surface_table, numpy.fft.fft) == originals


def test_perturbed_pair_counts_as_failed(capsys, monkeypatch):
    write = qozcp.cli.write_archive

    def perturbed(path, pair, *args, **kwargs):
        pair.x = pair.x.copy()
        pair.x[0] += 1e-3
        write(path, pair, *args, **kwargs)

    monkeypatch.setattr(qozcp.cli, "write_archive", perturbed)
    result, printed = _bench(capsys, "design-L64-papr", trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert printed["fail_rate"] == (1.0, "ratio")


def test_truncated_csv_counts_as_failed(capsys, monkeypatch):
    write = qozcp.cli.write_surface_table

    def truncated(path, surface):
        write(path, surface)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:-1])

    monkeypatch.setattr(qozcp.cli, "write_surface_table", truncated)
    result, _ = _bench(capsys, "evaluate-L256-N1024", trace=0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_predictions_cover_every_layer_metric_and_workload():
    with open(os.path.join(os.path.dirname(__file__), "predictions.json")) as fh:
        predictions = json.load(fh)
    layered = [m for layer in predictions["layers"] for m in layer["metrics"]]
    assert sorted(layered) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert set(predictions["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    assert set(predictions["workloads"]) == set(workloads.WORKLOADS)
