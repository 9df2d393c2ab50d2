"""Span tracer that wraps mcdesign's public callables from the outside.

``Tracer.instrument()`` replaces every public function of the traced
modules (and a few methods) by a wrapper that records one span per call:
name, start, end, parent span and task id.  Spans stay in a list in memory;
``summary()`` turns them into per-name calls, total and self time, where
self time is a span's duration minus the time its child spans cover.  The
benchmark's own spans (``bench.run`` around the traced loop, ``bench.task``
around each task, ``bench.verify`` around each oracle check) make the self
times add up to the traced wall time: ``bench.task`` self time is the part
of a task that no wrapped call accounts for.

Counters are recorded at the same boundaries (nodes per factory, points per
potential sample, energies per scan) so that ratios are measured where the
work happens.  Nothing in the package changes; leaving the context restores
every original attribute.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

import numpy as np

from mcdesign import bands, domain, dressing, engine, gl, marchenko, susy

TRACED_MODULES = (engine, marchenko, gl, susy, bands, dressing)
ALL_MODULES = TRACED_MODULES + (domain,)

# spans that evaluate the scattering data at one energy
SCATTER_ENERGY = ("engine.scattering_matrix", "engine.scattering_state",
                  "engine._entrance_amplitude")
CUMULATIVE = ("dressing.interval_contributions", "dressing.cumulative_from_start",
              "dressing.cumulative_from_end")


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent index, task id)
        self.counts = defaultdict(float)
        self._stack = []           # open span indices
        self._names = []           # names of the open spans
        self.task_id = None

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        self._names.append(name)
        task = self.task_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._names.pop()
            self.spans[idx] = (name, start, end, parent, task)

    def inside(self, names) -> bool:
        return any(n in names for n in self._names)

    def count(self, key: str, value: float = 1.0):
        self.counts[key] += value

    # -- instrumentation -------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _hooks(self):
        """Counters keyed by span name: (before-call, after-call) hooks."""
        c = self.count

        def factory(args):
            c("engine.factory.builds")
            c("engine.factory.nodes", len(args[2]))
            if self.inside(SCATTER_ENERGY):
                c("scatter.factory_builds")

        def propagators(args, out):
            c("engine.propagators.nodes", out.shape[0])
            c("engine.propagators.bytes_computed", out.nbytes)

        def transfer(args):
            if self.inside(SCATTER_ENERGY):
                c("scatter.transfer_products")

        def scatter_energy(args):
            if not self.inside(SCATTER_ENERGY):
                c("scatter.energies")

        def matching(args):
            if self.inside(("engine.find_bound_states",)):
                c("bound.energies")

        def bound(args, out):
            c("bound.levels", len(out))

        def entrance(args):
            scatter_energy(args)
            if self.inside(("engine.estimate_resonance_width",)):
                c("resonance.energies")

        def trajectory(args, out):
            c("engine.propagate_trajectory.nodes", out.shape[0])

        def sample(args):
            if not self.inside(("domain.matrix_batch",)):
                c("domain.matrix_batch.points", np.size(args[1]))

        def dressing_build(args):
            c("dressing.Dressing.builds")

        return {
            "engine.factory": (factory, None),
            "engine.propagators": (None, propagators),
            "engine.transfer_product": (transfer, None),
            "engine.scattering_matrix": (scatter_energy, None),
            "engine.scattering_state": (scatter_energy, None),
            "engine._entrance_amplitude": (entrance, None),
            "engine.matching_matrix": (matching, None),
            "engine.find_bound_states": (None, bound),
            "engine.propagate_trajectory": (None, trajectory),
            "domain.matrix_batch": (sample, None),
            "dressing.Dressing": (dressing_build, None),
        }

    def _targets(self):
        """(owner, attribute, span name) of every callable to wrap."""
        out = []
        for mod in TRACED_MODULES:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    out.append((mod, attr, f"{short}.{attr}"))
        # private helpers that mark one resonance-sweep energy
        out.append((engine, "_entrance_amplitude", "engine._entrance_amplitude"))
        out.append((engine.PropagatorFactory, "__init__", "engine.factory"))
        out.append((engine.PropagatorFactory, "propagators", "engine.propagators"))
        for cls in vars(engine).values():
            if inspect.isclass(cls) and "matching_matrix" in vars(cls):
                out.append((cls, "matching_matrix", "engine.matching_matrix"))
        out.append((dressing.Dressing, "__init__", "dressing.Dressing"))
        for meth in ("delta_v", "map_values", "state", "kernel_diagonal"):
            out.append((dressing.Dressing, meth, f"dressing.{meth}"))
        for mod in ALL_MODULES:
            for cls in vars(mod).values():
                if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                        and "matrix_batch" in vars(cls)):
                    out.append((cls, "matrix_batch", "domain.matrix_batch"))
        return out

    @contextlib.contextmanager
    def instrument(self):
        """Wrap the targets; every module binding of a wrapped function is
        replaced too, so calls through ``from .x import f`` are traced."""
        hooks = self._hooks()
        saved = []
        try:
            for owner, attr, name in self._targets():
                orig = vars(owner)[attr]
                before, after = hooks.get(name, (None, None))
                wrapped = self._wrap(name, orig, before, after)
                saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                if inspect.ismodule(owner):
                    for mod in ALL_MODULES:
                        for other, obj in list(vars(mod).items()):
                            if obj is orig and mod is not owner:
                                saved.append((mod, other, orig))
                                setattr(mod, other, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def _self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self) -> dict:
        """Per span name: calls, self_s, and total_s (a span nested inside a
        span of the same name is not counted twice)."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, self_s in enumerate(self._self_times()):
            name, start, end, parent, _ = self.spans[i]
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                row["total_s"] += end - start
        return dict(out)

    def task_remainders(self) -> list[float]:
        """Unattributed self time of each bench.task span."""
        return [t for t, sp in zip(self._self_times(), self.spans) if sp[0] == "bench.task"]
