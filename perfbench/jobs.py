"""Workloads and the jobs that measure them.

Every workload reports the same end-to-end metrics. Each metric names one kind
of operation (a training step, a per-seed job, a verification pass, a
finite-difference forward), applied to the workload's own inputs;
perfbench/README.md lists what each one is on each workload.
"""

import dataclasses
import itertools
import statistics
import time
from contextlib import nullcontext

import numpy as np

from expalign import eah, gradients, synth, verify

LR = synth.BENCHMARK_LR
FD_DIRECTIONS = 3
# Median over a run's verification passes of the directional error relative to
# |dL/dT|. Training drives the top-k cut toward ties, so a few passes straddle a
# selection change where differences are meaningless; a wrong gradient fails most.
FD_TOLERANCE = 1e-5
LOSS_RTOL = 1e-12        # re-evaluated objective against the step's own loss
HEAD_TOLERANCE = 1e-12   # public per-prompt head against the batched head
GRADCHECK_TOLERANCE = 1e-5

# Train workloads: scene parameters (on top of synth.benchmark_spec), descent
# episode length, steps between verification passes, steps per step-time
# sample, scenes in the descent pool, the frozen seeds of the per-seed job with
# its step count, and how many times a run repeats that job. A desk step (about
# 2 ms) is shorter than the host's scheduling stalls, so its step-time sample
# is the mean step over the stretch between two verification passes.
TRAIN = {
    "train-desk": dict(scene={}, episode=500, every=25, sample_steps=25, pool=6,
                       seeds=synth.BENCHMARK_SEEDS[:5], seed_steps=synth.BENCHMARK_STEPS, seed_jobs=3),
    "train-wide": dict(scene=dict(height3=64, width3=64, channels=32, prompts=12, tokens=12,
                                  n_negatives=3),
                       episode=40, every=4, sample_steps=1, pool=3,
                       seeds=synth.BENCHMARK_SEEDS[:2], seed_steps=10, seed_jobs=6),
}
SETUP_PROBES = 12  # fresh set-ups timed per train run, spread over its seed jobs
ORACLE = dict(cases=20, anchors=100, passes=5)  # passes over all cases per round
CRITERION_4_BASE_SEED = 4000  # tests/test_acceptance.py, criterion 4

# Host-speed reference: fixed numpy and Python work of the library's kind (the
# head's einsums, a softmax, a per-prompt top-k loop) on fixed arrays. Every
# timed sample is also kept divided by this kernel's time, measured next to it.
RATES = ("fd_forwards_per_s",)  # scaled by multiplying, not dividing
# The kernel's time jumps by up to 1.8x from one call to the next, so a speed
# is the median of the last three timings' calls; on train-desk this halved
# the step tail's spread over runs against the latest timing alone.
SPEED_WINDOW = 9
_REF_RNG = np.random.default_rng(0)
_REF_F = _REF_RNG.standard_normal((16, 24, 24))
_REF_T = _REF_RNG.standard_normal((4, 4, 16))


def reference_kernel():
    acc = 0.0
    for _ in range(8):
        sim = np.einsum("cxy,plc->pxyl", _REF_F, _REF_T)
        sbar = sim.mean(axis=(1, 2))
        pi = np.exp(sbar - sbar.max(axis=1, keepdims=True))
        pi /= pi.sum(axis=1, keepdims=True)
        eam = np.einsum("pxyl,pl->pxy", sim, pi)
        for p in range(eam.shape[0]):
            acc += float(np.sort(eam[p].ravel())[-5:].mean())
    return acc


def scene_spec(workload, seed):
    return dataclasses.replace(synth.benchmark_spec(seed), **TRAIN[workload]["scene"])


def build_inputs(workload, seed):
    """Everything the run hands the library, from the workload seed.

    The verify suite runs at the workload seed itself, as ``expalign verify
    --seed`` would. The gradcheck cases are acceptance criterion 4's own twenty.
    """
    rng = np.random.default_rng(seed)
    draw = lambda n: [int(x) for x in rng.integers(0, 2**31 - 1, size=n)]
    if workload in TRAIN:
        w = TRAIN[workload]
        return dict(scenes=[synth.generate_scene(scene_spec(workload, s)) for s in draw(w["pool"])],
                    direction_seed=draw(1)[0],
                    cases=verify.find_gradcheck_cases(1, base_seed=CRITERION_4_BASE_SEED))
    return dict(cases=verify.find_gradcheck_cases(ORACLE["cases"], base_seed=CRITERION_4_BASE_SEED),
                anchor_seeds=draw(ORACLE["anchors"]))


class Run:
    """Samples, results and check outcomes of one benchmark run."""

    def __init__(self, tracer=None, setup_probe=None):
        self.tracer = tracer
        self.setup_probe = setup_probe
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}  # as measured
        self.scaled = {}   # each divided by the reference time measured next to it
        self.final_accuracy = None
        self.traced_steps = []
        self.untraced_steps = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def add(self, name, value, speed=None):
        """Record a sample; with the local reference time ``speed``, also its scaled value."""
        self.samples.setdefault(name, []).append(value)
        if speed is not None:
            scaled = value * speed if name in RATES else value / speed
            self.scaled.setdefault(name, []).append(scaled)

    def reference(self, calls):
        """Times of ``calls`` reference-kernel calls, in ms."""
        times = [timed(reference_kernel)[1] * 1e3 for _ in range(calls)]
        self.samples.setdefault("reference_ms", []).extend(times)
        return times

    def speed(self):
        """The host's speed now, in ms: three more reference-kernel calls, and
        the median of the last SPEED_WINDOW calls of the run."""
        self.reference(3)
        return statistics.median(self.samples["reference_ms"][-SPEED_WINDOW:])

    def op(self, run_id):
        return self.tracer.op(run_id) if self.tracer is not None else nullcontext()

    def span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def step(self, run_id, traced):
        """Scope of one timed step: an op when traced, the bare library when not."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.op(run_id) if traced else self.tracer.paused()

    def probe_setup(self, times):
        """Time fresh set-ups at this point of the run, when the run measures
        them; each is scaled by its reference launch, not by the kernel."""
        for _ in range(times if self.setup_probe else 0):
            self.add("setup_s", *self.setup_probe())

    def add_step(self, ms, traced, speed):
        self.add("step_ms", ms, speed)
        (self.traced_steps if traced else self.untraced_steps).append(ms)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def check_suite(run, seed):
    """One full verify suite; with tracing, one call per group so each group gets a span."""
    if run.tracer is None:
        results, elapsed = timed(verify.run_suite, seed=seed)
    else:
        results, start = [], time.perf_counter()
        for group in ("fusion", "eah", "sem", "gaco", "gibbs", "mil", "grad"):
            with run.span(f"verify.group.{group}"):
                part = verify.run_suite(groups=[group], seed=seed)
            run.tracer.count("verify.checks.failed", sum(not r.passed for r in part))
            results += part
        elapsed = time.perf_counter() - start
    for r in results:
        run.check(r.passed, f"verify seed {seed}: {r.name} residual {r.residual:.3e} > {r.tolerance:.1e}")
    return elapsed


def fd_forwards(case):
    """Forwards one objective_fd_gradients call makes: the base point plus two per coordinate."""
    coords = sum(np.size(f) for f in case["features"]) + sum(np.size(t) for t in case["tokens"])
    return 1 + 2 * coords


def check_gradcheck_case(run, case, label):
    """Criterion 4 on one case; returns the seconds the finite differences took."""
    args = (case["features"], case["tokens"], case["masks"], case["positives"], case["cfg"], case["valid"])
    analytic = gradients.objective_with_gradients(*args)
    numeric, t_fd = timed(gradients.objective_fd_gradients, *args)
    err = gradients.relative_gradient_error(analytic, numeric)
    run.check(err <= GRADCHECK_TOLERANCE, f"gradcheck {label}: relative error {err:.3e}")
    return t_fd


def check_head(run, fvals, toks, valids, masks, positives, cfg, label):
    """Traced runs only: the public per-prompt head, timed per scale over all prompts."""
    ref = gradients.forward(fvals, toks, masks, positives, cfg, valids)
    batches = [eah.TokenBatch(t, v) for t, v in zip(toks, valids)]
    worst = 0.0
    for s, fv in enumerate(fvals):
        with run.span(f"eah.head.p{s + 3}"):
            maps = [eah.alignment_map(fv, b, cfg.tau_t) for b in batches]
        worst = max(worst, max(float(np.abs(m - r).max()) for m, r in zip(maps, ref.eams[s])))
    run.check(worst <= HEAD_TOLERANCE, f"{label}: eah head differs from the batched head by {worst:.3e}")


# ------------------------------------------------------------------ train

def directional_fd(fvals, toks, masks, positives, cfg, valids, d_tokens, rng):
    """Central differences of the objective along the gradient and two random
    directions in token space, against the analytic directional derivatives.

    The advantage is frozen at the base point, the stop-gradient rule the
    analytic pass follows (as in gradients.objective_fd_gradients)."""
    frozen = gradients.forward(fvals, toks, masks, positives, cfg, valids).gaco.adv
    g = np.stack(d_tokens).ravel()
    gnorm = float(np.linalg.norm(g))
    basis = np.column_stack([g / gnorm, rng.standard_normal((g.size, FD_DIRECTIONS - 1))])
    dirs = np.linalg.qr(basis)[0].T
    shape = np.stack(toks).shape

    def value(x):
        step = (dirs.T @ x).reshape(shape)
        return gradients.forward(fvals, [t + s for t, s in zip(toks, step)], masks, positives,
                                 cfg, valids, frozen_adv=frozen).total

    numeric = gradients.finite_difference_gradient(value, np.zeros(FD_DIRECTIONS))
    return float(np.abs(numeric - dirs @ g).max()) / gnorm


def verify_step(run, scene, fvals, toks, valids, cfg, bundle, rng, label):
    """Check the loss a step reported and its token gradient; returns the pass's
    seconds and its finite-difference forwards per second."""
    start = time.perf_counter()
    again = gradients.objective(fvals, toks, scene.masks, scene.positives, cfg, valids).total
    mid = time.perf_counter()
    err = directional_fd(fvals, toks, scene.masks, scene.positives, cfg, valids, bundle.d_tokens, rng)
    end = time.perf_counter()
    run.add("directional_error", err)
    run.check(abs(again - bundle.total) <= LOSS_RTOL * max(1.0, abs(bundle.total)),
              f"{label}: objective {again!r} != step loss {bundle.total!r}")
    return end - start, (1 + 2 * FD_DIRECTIONS) / (end - mid)


def descent(run, workload, inputs):
    """Gradient descent on the token offsets, as synth.demo_train does, timed per
    step. A generator: it yields after each verification pass, so the caller
    can interleave other jobs and stop at its deadline."""
    w = TRAIN[workload]
    cfg = synth.benchmark_config()
    rng = np.random.default_rng(inputs["direction_seed"])
    step_no = 0
    block_ms = 0.0
    pending = []  # step-time samples waiting for the next reference timing
    for episode in itertools.count():
        scene = inputs["scenes"][episode % len(inputs["scenes"])]
        fvals = [f.values for f in scene.features]
        tvals = [t.embeddings for t in scene.tokens]
        valids = [t.valid for t in scene.tokens]
        delta = np.zeros((len(tvals),) + tvals[0].shape)
        for t in range(w["episode"]):
            # with tracing, alternate traced and untraced blocks to measure its cost
            traced = run.tracer is not None and (step_no // w["every"]) % 2 == 0
            toks = [tvals[p] + delta[p] for p in range(len(tvals))]
            with run.step(f"step:{step_no}", traced):
                bundle, dt = timed(gradients.objective_with_gradients,
                                   fvals, toks, scene.masks, scene.positives, cfg, valids)
            step_no += 1
            block_ms += dt * 1e3
            if step_no % w["sample_steps"] == 0:
                pending.append((block_ms / w["sample_steps"], traced))
                block_ms = 0.0
            label = f"{workload} episode {episode} step {t}"
            finite = bool(np.isfinite(bundle.total))
            run.check(finite, f"{label}: non-finite loss {bundle.total!r}")
            if not finite:
                break
            if (t + 1) % w["every"] == 0:
                with run.op(f"check:{step_no}"):
                    verify_s, fd_rate = verify_step(run, scene, fvals, toks, valids, cfg, bundle, rng, label)
                    if traced:
                        check_head(run, fvals, toks, valids, scene.masks, scene.positives, cfg, label)
                speed = run.speed()
                run.add("verify_s", verify_s, speed)
                run.add("fd_forwards_per_s", fd_rate, speed)
                for ms, was_traced in pending:
                    run.add_step(ms, was_traced, speed)
                pending.clear()
                yield
            for p in range(len(tvals)):
                delta[p] -= LR * bundle.d_tokens[p]


def seed_job(run, workload):
    """The per-seed training job on the workload's frozen seeds, one sample per
    seed, each scaled by reference timings just before and after it."""
    w = TRAIN[workload]
    reports = []
    before = run.speed()
    for s in w["seeds"]:
        if workload == "train-desk":
            result, elapsed = timed(synth.run_benchmark, seeds=[s], steps=w["seed_steps"])
            report = result["runs"][0]
        else:
            report, elapsed = timed(synth.demo_train, scene_spec(workload, s), steps=w["seed_steps"],
                                    learning_rate=LR)
        after = run.speed()
        run.add("seed_s", elapsed, (before + after) / 2)
        reports.append(report)
        before = after
    for r in reports:
        run.check(not r.diverged and all(np.isfinite(r.losses_total)),
                  f"{workload} seed {r.seed} diverged")
    accuracy = float(np.mean([r.final_accuracy for r in reports]))
    if run.final_accuracy is None:
        run.final_accuracy = accuracy
    run.check(accuracy == run.final_accuracy,
              f"{workload}: the same seeds reached accuracy {accuracy!r}, before {run.final_accuracy!r}")


def self_check(run, inputs, seed):
    """One verify suite and one gradcheck case: the library's own oracles still hold."""
    with run.op("selfcheck:0"):
        check_suite(run, seed)
        check_gradcheck_case(run, inputs["cases"][0], "self-check")


def train_workload(run, workload, inputs, seed, seconds):
    """Seed jobs alternate with stretches of descent, so that both are sampled
    across the whole run rather than in one stretch of the host's load."""
    start = time.perf_counter()
    self_check(run, inputs, seed)
    jobs = TRAIN[workload]["seed_jobs"]
    passes = descent(run, workload, inputs)
    for i in range(jobs):
        run.probe_setup(max(1, SETUP_PROBES // jobs))
        with run.op(f"seed:{i}"):
            seed_job(run, workload)
        stretch_end = start + seconds * (i + 1) / jobs
        for _ in passes:
            if time.perf_counter() >= stretch_end:
                break
    err = statistics.median(run.samples["directional_error"])
    run.check(err <= FD_TOLERANCE, f"{workload}: median directional gradient error {err:.3e}")


# ----------------------------------------------------------------- oracle

def oracle_workload(run, inputs, seed, seconds):
    """Rounds of one verify suite and analytic passes over every case, with the
    next gradcheck case every other round, until every case was checked and the
    time is up."""
    start = time.perf_counter()
    cases = inputs["cases"]
    anchors(run, inputs["anchor_seeds"])
    for i in itertools.count():
        if i >= 2 * len(cases) and time.perf_counter() >= start + seconds:
            break
        if i % 4 == 0:
            run.probe_setup(1)
        refs = run.reference(3)
        with run.op(f"suite:{i}"):
            verify_s = check_suite(run, seed)
        if i % 2 == 0:
            k = i // 2 % len(cases)
            case = cases[k]
            with run.op(f"case:{i}"):
                t_fd = check_gradcheck_case(run, case, f"case {k}")
                if run.tracer is not None:
                    check_head(run, case["features"], case["tokens"], case["valid"], case["masks"],
                               case["positives"], case["cfg"], f"case {k}")
        # a single call (under 1 ms) is shorter than the host's scheduling
        # stalls, so a step sample is the mean call over the round's passes
        # of all cases; the reference is timed after each pass
        traced = run.tracer is not None and i % 2 == 0
        step_s = 0.0
        for n in range(ORACLE["passes"]):
            with run.step(f"step:{i}.{n}", traced):
                _, dt = timed(analytic_pass, cases)
            step_s += dt
            refs += run.reference(1)
        speed = statistics.median(refs)
        run.add("verify_s", verify_s, speed)
        if i % 2 == 0:
            run.add("fd_forwards_per_s", fd_forwards(case) / t_fd, speed)
        run.add_step(step_s * 1e3 / (ORACLE["passes"] * len(cases)), traced, speed)
    run.samples["seed_s"] = run.samples["verify_s"]
    run.scaled["seed_s"] = run.scaled["verify_s"]


def analytic_pass(cases):
    for c in cases:
        gradients.objective_with_gradients(c["features"], c["tokens"], c["masks"], c["positives"],
                                           c["cfg"], c["valid"])


def anchors(run, seeds):
    """Acceptance criterion 7b on the workload's seeds: strong signal localizes
    untrained, zero signal sits at chance."""
    with run.op("anchor:0"):
        strong = [synth.localization_accuracy(synth.generate_scene(synth.benchmark_spec(s, signal=5.0)))
                  for s in seeds]
        accs, fracs = [], []
        for s in seeds:
            scene = synth.generate_scene(synth.benchmark_spec(s, signal=0.0))
            accs.append(synth.localization_accuracy(scene))
            n_pos = len(scene.positives)
            fracs.append(scene.masks[:n_pos].sum() / (n_pos * scene.masks[0].size))
    run.final_accuracy = float(np.mean(strong))
    run.check(np.mean(strong) >= 0.9, f"strong-signal anchors localize {np.mean(strong):.3f} < 0.9")
    gap = abs(np.mean(accs) - np.mean(fracs))
    run.check(gap <= 0.1, f"zero-signal anchors {gap:.3f} away from chance")
