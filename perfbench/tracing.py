"""In-memory spans and counts around calls into expalign's public functions.

Tracing replaces module attributes at run time and puts them back afterwards;
nothing inside the library is edited. A function imported by name into another
module (``gaco_forward`` into ``gradients``, ``fused_maps`` into ``synth``) is
looked up in that module's namespace, so each such binding is wrapped where it
is looked up. Spans are kept in memory, in flat arrays because a traced run
makes hundreds of thousands, and written out once, at the end.
"""

import gzip
import itertools
import json
import statistics
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from expalign import fusion, gaco, gradients, semantic, synth, variational, verify

FD_SPAN = "gradients.objective_fd_gradients"

# (module, attribute, span name): every binding a caller can reach
WRAPPED = (
    (gradients, "objective_with_gradients", "gradients.objective_with_gradients"),
    (gradients, "objective", "gradients.objective"),
    (gradients, "forward", "gradients.forward"),
    (gradients, "backward", "gradients.backward"),
    (gradients, "coerce_inputs", "gradients.coerce_inputs"),
    (gradients, "fused_maps", "gradients.fused_maps"),
    (gradients, "objective_fd_gradients", FD_SPAN),
    (gradients, "gaco_forward", "gaco.gaco_forward"),
    (verify, "objective_with_gradients", "gradients.objective_with_gradients"),
    (verify, "forward", "gradients.forward"),
    (verify, "objective_fd_gradients", FD_SPAN),
    (synth, "objective_with_gradients", "gradients.objective_with_gradients"),
    (synth, "fused_maps", "gradients.fused_maps"),
    (synth, "generate_scene", "synth.generate_scene"),
    (synth, "localization_accuracy", "synth.localization_accuracy"),
    (gaco, "gaco_forward", "gaco.gaco_forward"),
    (gaco, "region_stats", "gaco.region_stats"),
    (semantic, "pooled_logits", "semantic.pooled_logits"),
    (semantic, "infonce_multi_positive", "semantic.infonce_multi_positive"),
    (semantic, "topk_select", "semantic.topk_select"),
    (fusion, "fuse_down", "fusion.fuse_down"),
    (fusion, "fuse_up", "fusion.fuse_up"),
    (fusion, "fuse_down_adjoint", "fusion.fuse_down_adjoint"),
    (fusion, "fuse_up_adjoint", "fusion.fuse_up_adjoint"),
    (variational, "minimize_free_energy_numeric", "variational.minimize_free_energy_numeric"),
)
COUNTS = ("gradients.fd.forwards", "topk.k", "topk.cells", "gaco.regions", "verify.checks.failed",
          "variational.minimize_free_energy_numeric.iters")


class Tracer:
    """Spans (id, name, start, end, parent id, run id) and counts (name, value, run id).

    A run id names the benchmark operation (``step:12``, ``suite:3``) that every
    span and count recorded inside it belongs to. Worker threads of the verify
    pool record into the same arrays: one ``array.extend`` per record is a
    single call, so records from different threads do not interleave."""

    def __init__(self):
        self.names = [n for _, _, n in WRAPPED] + list(COUNTS)
        self._name_index = {n: i for i, n in enumerate(self.names)}
        self.run_ids = [None]
        self._run = 0
        self._spans = array("d")   # id, name, start, end, parent (0: none), run; per span
        self._counts = array("d")  # name, value, run; per count
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self.origin = time.perf_counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _index(self, name):
        # new names come only from the benchmark's own spans, on the main thread
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    @contextmanager
    def op(self, run_id):
        """Mark every span and count recorded inside as belonging to one operation."""
        previous = self._run
        self.run_ids.append(run_id)
        self._run = len(self.run_ids) - 1
        try:
            yield
        finally:
            self._run = previous

    @contextmanager
    def span(self, name):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        name_index = self._index(name)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._spans.extend((sid, name_index, start, end, parent, self._run))

    def count(self, name, value):
        self._counts.extend((self._name_index[name], value, self._run))

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            self._before(name, args, kwargs)
            if name == FD_SPAN:
                outer, self._local.fd_forwards = getattr(self._local, "fd_forwards", None), 0
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == FD_SPAN:
                self.count("gradients.fd.forwards", self._local.fd_forwards)
                self._local.fd_forwards = outer
            elif name == "variational.minimize_free_energy_numeric":
                self.count("variational.minimize_free_energy_numeric.iters", result.iterations)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _before(self, name, args, kwargs):
        if name == "gradients.forward":
            if getattr(self._local, "fd_forwards", None) is not None:
                self._local.fd_forwards += 1
        elif name == "semantic.topk_select":
            m = args[0] if args else kwargs["m"]
            k = args[1] if len(args) > 1 else kwargs["k"]
            self.count("topk.k", k)
            self.count("topk.cells", getattr(m, "size", 0))
        elif name == "gaco.region_stats":
            self.count("gaco.regions", 1)

    def install(self):
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def remove(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def paused(self):
        """Run the body with the library's own functions, recording nothing."""
        self.remove()
        try:
            yield
        finally:
            self.install()

    def spans(self):
        """Every span as (id, name, start, end, parent id or None, run id)."""
        s = self._spans
        for i in range(0, len(s), 6):
            yield (int(s[i]), self.names[int(s[i + 1])], s[i + 2], s[i + 3],
                   int(s[i + 4]) or None, self.run_ids[int(s[i + 5])])

    def counts(self):
        """Every count as (name, value, run id)."""
        c = self._counts
        for i in range(0, len(c), 3):
            yield self.names[int(c[i])], c[i + 1], self.run_ids[int(c[i + 2])]

    def span_count(self):
        return len(self._spans) // 6

    def write(self, path, env):
        """Gzipped JSON: spans with times in ns from the tracer's start."""
        dumps = json.dumps
        with gzip.open(path, "wt") as fh:
            fh.write('{"env": %s, "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "run_id"],'
                     ' "spans": [' % dumps(env))
            for i, (sid, name, start, end, parent, run_id) in enumerate(self.spans()):
                fh.write("%s[%d, %s, %d, %d, %s, %s]" % (
                    ",\n" if i else "", sid, dumps(name), round((start - self.origin) * 1e9),
                    round((end - self.origin) * 1e9), dumps(parent), dumps(run_id)))
            fh.write('],\n"count_fields": ["name", "value", "run_id"], "counts": %s}\n'
                     % dumps(list(self.counts())))


def _kind(run_id):
    return run_id.split(":", 1)[0] if isinstance(run_id, str) else None


def span_ms(tracer, avoid=("selfcheck",)):
    """Median span duration in ms per span name, leaving out ops of the avoided
    kinds for every name that other ops also reached."""
    kept, fallback = defaultdict(list), defaultdict(list)
    for _, name, start, end, _, run_id in tracer.spans():
        (fallback if _kind(run_id) in avoid else kept)[name].append((end - start) * 1e3)
    return {name: statistics.median(kept.get(name) or fallback[name])
            for name in set(kept) | set(fallback)}


def kind_total(tracer, name, kind):
    """Sum of a count over every op of one kind."""
    return sum(v for n, v, run_id in tracer.counts() if n == name and _kind(run_id) == kind)


def kind_calls(tracer, name, kind):
    """Number of spans of one name inside ops of one kind."""
    return sum(1 for _, n, _, _, _, run_id in tracer.spans() if n == name and _kind(run_id) == kind)
