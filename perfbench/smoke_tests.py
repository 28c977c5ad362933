"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/smoke_tests.py -q

They run outside the repository's tier-1 suite (the file name does not
match pytest's default ``test_*.py`` pattern) because each one starts real
CLI processes.
"""

from __future__ import annotations

import copy
import filecmp
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from tracer import check_spans, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_matches_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_runs_clean_and_reports_every_metric(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1  # failed_frac is 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]
    if trace:
        calls = result["metrics"]["control.optimal_b.calls_per_b_optimal_op"]["value"]
        assert calls == (0.0 if workload == "draws_io" else 2.0)
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_generator_is_deterministic(tmp_path):
    for workload in gen.WORKLOADS:
        first, second, other = (tmp_path / f"{workload}-{k}" for k in "abc")
        gen.generate(workload, 5, first, gen.TINY)
        gen.generate(workload, 5, second, gen.TINY)
        gen.generate(workload, 6, other, gen.TINY)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
        assert mismatch == [] and errors == []
        assert not filecmp.cmp(first / "manifest.json", other / "manifest.json", shallow=False)


def test_generated_models_are_stable_and_cyclic(tmp_path):
    manifest = gen.generate("small_cmds", 9, tmp_path, gen.TINY)
    for info in manifest["models"][1:]:
        assert info["spectral_radius"] < 1.0
        model = oracle.SEM(tmp_path / info["file"])
        x, y = model.index["X"], model.index["Y"]
        assert model.coeff[y, x] != 0.0 and model.coeff[x, y] != 0.0
        assert set(info["covariates"]).isdisjoint(model.descendants("X"))


# Where each check looks: corrupting that value must turn a pass into a failure.
CORRUPT = {
    "reproduce-iverson": ("gamma_hat_iv_z3", lambda v: v * (1 + 1e-12)),
    "validate": ("valid", lambda v: False),
    "stability": ("spectral_radius_feedback_block", lambda v: v * (1 + 1e-6)),
    "effects": ("total_effect_on_response", lambda v: v * (1 + 1e-6)),
    "plan-eval": ("var_y", lambda v: v * (1 + 1e-6)),
    "plan-optimize": ("mean_y", lambda v: v + 1e-3),
    "estimate_cov": ("gamma_hat", lambda v: v * (1 + 1e-6)),
    "simulate": ("rows", lambda v: v + 1),
    "estimate_data": ("gamma_hat", lambda v: v * (1 + 1e-6)),
}


def _corrupting(check, key, change):
    def corrupted(report):
        report = copy.deepcopy(report)
        report["results"][key] = change(report["results"][key])
        return check(report)

    return corrupted


@pytest.fixture(scope="module")
def small_cycle(tmp_path_factory):
    work = tmp_path_factory.mktemp("small")
    manifest = gen.generate("small_cmds", 4, work, gen.TINY)
    ops = run.small_cmds(manifest, work)
    rotation = [next(ops) for _ in range(run.WORKLOADS["small_cmds"][1])]
    return run.Runner(work, deadline=time.monotonic() + run.RUN_LIMIT_S), rotation


def test_corrupted_report_values_count_as_failures(small_cycle):
    runner, ops = small_cycle
    assert {steps[0].kind for steps in ops} == set(CORRUPT)
    for steps in ops:
        step = steps[0]
        assert not runner.op([step], traced=False).failed, step.args
        key, change = CORRUPT[step.kind]
        bad = run.Step(step.args, _corrupting(step.check, key, change), step.csv, step.rows)
        result = runner.op([bad], traced=False)
        assert result.failed, f"corrupted {key} passed the {step.kind} check"


def test_corrupted_csv_row_counts_as_a_failure(small_cycle):
    runner, ops = small_cycle
    simulate = next(steps[0] for steps in ops if steps[0].kind == "simulate")
    assert not runner.op([simulate], traced=False).failed
    row = 1 + simulate.check.keywords["window"][0]  # a checked row, after the header
    lines = simulate.csv.read_text().splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[0] = repr(float(cells[0]) * (1 + 1e-15) or 1e-300)
    lines[row] = ",".join(cells) + "\n"
    simulate.csv.write_text("".join(lines))
    report = json.loads(runner.stdout.read_text())
    assert simulate.check(report)


def test_self_times_add_up_to_the_root_span():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
             ["c", 5.0, 9.0, 0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert check_spans(spans) == []
    assert check_spans(spans + [["d", 9.5, 11.0, 0]])  # escapes its parent


def test_tail_has_ten_values_beyond_it():
    values = list(range(100))
    value, percentile = run.tail(values)
    assert value == 89 and percentile == 90.0
    assert sum(v > value for v in values) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
