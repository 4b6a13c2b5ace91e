"""The benchmark's tracer wraps library functions by module attribute name, and
its jobs read the scene records' attributes.

Installing and removing the tracer, and running the head check on each
workload's inputs, here makes a refactor that drops or renames one of those
bindings or attributes fail the test suite, not a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_every_binding():
    tracing = load("tracing")
    originals = [getattr(module, attr) for module, attr, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, attr, _ in tracing.WRAPPED:
            assert getattr(module, attr).__wrapped__ is not None
    finally:
        tracer.remove()
    assert [getattr(module, attr) for module, attr, _ in tracing.WRAPPED] == originals


@pytest.mark.parametrize("workload", ["train-desk", "train-wide", "oracle"])
def test_head_check_runs_on_each_workload(workload):
    jobs = load("jobs")
    inputs = jobs.build_inputs(workload, 1)
    if workload in jobs.TRAIN:
        scene = inputs["scenes"][0]
        args = ([f.values for f in scene.features], [t.embeddings for t in scene.tokens],
                [t.valid for t in scene.tokens], scene.masks, scene.positives, jobs.synth.benchmark_config())
    else:
        case = inputs["cases"][0]
        args = (case["features"], case["tokens"], case["valid"], case["masks"], case["positives"], case["cfg"])
    run = jobs.Run()
    jobs.check_head(run, *args, workload)
    assert (run.attempted, run.failed) == (1, 0), run.problems
