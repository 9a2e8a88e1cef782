"""Self-tests of the benchmark at tiny sizes.

Run from the checkout root: python3 -m pytest feqbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _tiny(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in WORKLOADS:
        result = _tiny(workload, 0, 1)
        trace = json.loads((ROOT / ".feqbench" / f"trace-{workload}.json")
                           .read_text())
        out[workload] = (result, trace)
    return out


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_passes_and_emits_every_end_to_end_metric(workload, seed):
    result = _tiny(workload, seed, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_and_emits_every_layer_metric(traced, workload):
    result, trace = traced[workload]
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace_overhead_ratio"]["value"] > 0
    assert trace["unwrapped"] == []
    assert trace["environment"]["blas_threads"] == 1


def test_trace_parses_and_names_every_layer(traced):
    from tracing import LAYERS
    names = set()
    for _, trace in traced.values():
        spans = trace["spans"]
        for name, start, end, parent in spans:
            assert end >= start
            if parent is not None:
                assert spans[parent][1] <= start and end <= spans[parent][2]
        names |= set(trace["span_names"])
    assert {n.split(".")[0] for n in names} == set(LAYERS)


# layer metric -> (the workload it dominates, workloads that never reach it)
OWN_LAYER = {
    "solver.nullspace_s": ("catalog-solve",
                           ["newton-search", "ball-audit", "ball-growth"]),
    "solver.newton_s": ("newton-search",
                        ["catalog-solve", "ball-audit", "ball-growth"]),
    "stability.audit_s": ("ball-audit",
                          ["catalog-solve", "newton-search", "ball-growth"]),
    "groups.ball_build_s": ("ball-growth", ["catalog-solve", "newton-search"]),
}


@pytest.mark.parametrize("metric", OWN_LAYER)
def test_each_layer_runs_only_where_expected(traced, metric):
    loaded, bypassed = OWN_LAYER[metric]
    assert traced[loaded][0]["metrics"][metric]["value"] > 0
    for workload in bypassed:
        assert traced[workload][0]["metrics"][metric]["value"] == 0, workload


def test_tiny_cases_reuse_the_stored_digests():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads
    stored = json.loads((HERE / "digests.json").read_text())["workloads"]
    # digests recorded on another numpy or OpenBLAS kernel are not applied
    assert run._load_digests({"numpy": "0"}) == {}
    for workload in ("catalog-solve", "newton-search"):
        cases = workloads.make_cases(workload, workloads.DEFAULT_SEED, "tiny")
        assert {c.id for c in cases} <= set(stored[workload])


def test_a_changed_output_fails_its_digest():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import workloads
    case = next(c for c in workloads.make_cases("catalog-solve", 0, "tiny")
                if c.id == "solve --group Z2 --sigma auto:0 --chi 0")
    out = case.run()
    stored = {case.id: workloads.digest(out.text)}
    assert run._check([case], [out], stored) == []
    out.text += "\n"
    assert run._check([case], [out], stored)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", WORKLOADS[0], "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_pass_time_is_divided_by_the_mean_slowdown(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import speed
    import workloads
    cases = workloads.make_cases("catalog-solve", 0, "tiny")[:4]
    monkeypatch.setattr(speed, "slowdown", lambda samples: 2.0)
    rec, _ = run._run_pass(cases, None)
    assert rec.norm == pytest.approx(rec.wall / 2.0)
    assert rec.wall == pytest.approx(sum(rec.case_times))
    assert rec.elapsed >= rec.wall
