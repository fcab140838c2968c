"""Smoke test of the benchmark at a tiny scale.

    python3 -m pytest perfbench/test_smoke.py

Checks that ``BENCHMARK.json`` matches the metric tables, that every
workload prints every end-to-end metric with its unit and, traced, every
per-layer metric, that the tracer's delegating generator is transparent,
and that the benchmark refuses to run without the program sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from run import ENGINE_LAYERS  # noqa: E402
from suites import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def test_spec_matches_tables():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_prints_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:] + done.stdout[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    assert info["digest"] and info["provenance"]["cpu_count"] >= 1
    if trace:
        values = {n: m["value"] for n, m in result["metrics"].items()}
        # the engine layers' self times come from their own checked pass
        self_sum = sum(v for n, v in values.items() if n.endswith("self_s")
                       and not n.startswith(tuple(ENGINE_LAYERS.values())))
        assert self_sum == pytest.approx(values["traced_wall_s"], rel=0.005)


def test_traced_fig3_checks_the_macro_engine():
    """The traced fig3-qmcpack run adds one macro-engine pass, compared
    with the fast engine cell by cell."""
    done = _run("fig3-qmcpack", 1)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert values["sim.macro.ops_seen"] > 0
    assert values["sim.macro.self_s"] > 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("fig3-qmcpack", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_traced_generator_is_transparent():
    tracer = Tracer(os.path.join(ROOT, "src"))

    def inner():
        got = yield "a"
        try:
            yield got * 2
        except KeyError as exc:
            yield f"caught {exc.args[0]}"
        return "done"

    gen = tracer.traced_gen(inner(), "workloads")
    assert next(gen) == "a"
    assert gen.send(21) == 42
    assert gen.throw(KeyError("k")) == "caught k"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    tracer.mark()
    assert tracer.self_s["workloads"] > 0
    assert tracer._stack == ["unattributed"]
