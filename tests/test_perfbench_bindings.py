"""The benchmark's tracer wraps library functions by module attribute name, and
its jobs read the scene records' attributes.

Installing and removing the tracer, and running the head check on each
workload's inputs, here makes a refactor that drops or renames one of those
bindings or attributes fail the test suite, not a benchmark run.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from expalign import fusion, gaco, gradients, semantic

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


def test_traced_bindings_are_called_by_attribute(monkeypatch):
    # the tracer counts gaco.regions through gaco.region_stats and top-k work
    # through semantic.topk_select, and times the fusion and gaco_forward where
    # gradients.forward looks them up
    calls = Counter()
    for module, attr in ((gaco, "region_stats"), (semantic, "topk_select"), (fusion, "fuse_down"),
                         (fusion, "fuse_up"), (gradients, "gaco_forward")):
        def counted(*args, _fn=getattr(module, attr), _attr=attr, **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    rng = np.random.default_rng(0)
    features = [rng.normal(size=(3, 8 // f, 8 // f)) for f in (1, 2, 4)]
    tokens = [rng.normal(size=(2, 3)) for _ in range(3)]
    masks = np.zeros((3, 8, 8), dtype=bool)
    masks[0, 1:4, 2:5] = True
    masks[2, 6, 6] = True  # prompt 1 has no region
    gradients.forward(features, tokens, masks, [0])
    assert calls == {"region_stats": 2, "topk_select": 3, "fuse_down": 1, "fuse_up": 1, "gaco_forward": 1}
