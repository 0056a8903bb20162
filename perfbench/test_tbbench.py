"""Tests for the end-to-end benchmark itself, at tiny sizes.

Each workload's tiny mix carries one crash of every kind through the
whole chain in well under a second, so these stay in the default lane.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _load_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()
_chain, _metrics, programs, spans = run._import_chain()


def _benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _args(workload: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=7, seconds=0.0,
                              trace=trace, setup_s=0.25,
                              setup_calibration=[1.0])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    correct, result, report = run.run_workload(
        _args(workload, trace), mix=programs.TINY[workload], out=str(tmp_path))
    assert report["failures"] == []
    assert correct and result["failed"] == 0 and result["attempted"] > 0
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert NAME.match(name) and UNIT.match(metric["unit"]), name
        assert isinstance(metric["value"], float | int), name
        assert math.isfinite(metric["value"]), name
        # Never zero: every workload carries every kind of crash.
        assert metric["value"] > 0 or name == "trace.overhead", name
    # JSON round trip: the result line is read by machines.
    assert json.loads(json.dumps(result)) == result


def test_wrong_expected_fault_line_fails_the_check(tmp_path):
    mix = programs.TINY["crash-fleet"]
    corpus = programs.build_corpus(mix, seed=7)
    victim = next(c for c in corpus if c.kind == "crasher")
    victim.fault = (victim.fault[0], victim.fault[1] + 1)
    correct, result, report = run.run_workload(
        _args("crash-fleet", 0), mix=mix, corpus=corpus, out=str(tmp_path))
    assert not correct
    assert result["failed"] == 1 and report["error_rate"] > 0
    assert "diagnosis does not mark" in report["failures"][0]


def test_engine_override_is_refused(monkeypatch, capsys):
    monkeypatch.setenv(run.ENGINE_ENV_VAR, "block")
    assert run.main(["--workload", "crash-fleet", "--seconds", "0"]) == 2
    assert "production default engine" in capsys.readouterr().err


def test_tracer_restores_every_binding():
    from repro.lang import minic
    from repro.vm.machine import Machine

    original_compile, original_run = minic.compile_source, Machine.run
    with spans.Tracer():
        assert minic.compile_source is not original_compile
        assert Machine.__dict__["run"] is not original_run
    assert minic.compile_source is original_compile
    assert Machine.__dict__["run"] is original_run
