"""Per-layer tracing of chromsched from outside the package.

The tracer replaces the module-level names that chromsched modules call
through (for example ``annealing.place_sequences`` or
``list_scheduler.select_assignment``) with timing wrappers, and puts the
originals back on exit.  Nothing under ``src/`` is changed.

Hot kernels (``find_earliest``, ``reserve_step``, ``place_sequences``, ...)
run millions of times per workload, so they are kept as aggregate counts and
times per layer and caller module.  Coarse calls (one per solver run or
less) also leave a span each: name, start, end, parent span, run id and self
time.  Self time is a call's duration minus the time of the traced calls
made inside it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from chromsched import (annealing, engine, experiments, generator, jsonio,
                        list_scheduler, model)
from chromsched.errors import NoSlotError


@dataclass
class LayerStat:
    """Aggregate of every call through one wrapped name."""

    calls: int = 0
    seconds: float = 0.0
    child_seconds: float = 0.0
    noslot: int = 0
    size: int = 0  # summed per-call size, see `_SIZES`

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


# (module, attribute looked up there, layer name, keeps spans).  The layer
# name is `<defining module>.<function>`; when the same function is reached
# through several modules, the caller module is appended so the two call
# paths stay apart.
_WRAPPED = (
    (generator, "generate_instance", "generator.generate_instance", True),
    (jsonio, "instance_to_dict", "jsonio.instance_to_dict", True),
    (jsonio, "instance_from_dict", "jsonio.instance_from_dict", True),
    (list_scheduler, "run_lta", "list_scheduler.run_lta", True),
    (list_scheduler, "compile_instance", "engine.compile_instance", True),
    (list_scheduler, "commit_assignment", "list_scheduler.commit_assignment", False),
    (list_scheduler, "select_assignment", "rules.select_assignment", False),
    (list_scheduler, "find_earliest", "availability.find_earliest.list_scheduler", False),
    (list_scheduler, "reserve_step", "availability.reserve_step.list_scheduler", False),
    (annealing, "run_sa", "annealing.run_sa", True),
    (annealing, "compile_instance", "engine.compile_instance", True),
    (annealing, "place_sequences", "engine.place_sequences", False),
    (annealing, "total_tardiness", "model.total_tardiness", True),
    (engine, "find_earliest", "availability.find_earliest.engine", False),
    (engine, "reserve_step", "availability.reserve_step.engine", False),
    (model, "total_tardiness", "model.total_tardiness", True),
    (model, "validate_schedule", "model.validate_schedule", True),
    (experiments, "anova_effects", "experiments.anova_effects", True),
)

# Per-call work sizes, summed into LayerStat.size:
# breakpoints in the column profile a find_earliest call scans from,
# operations one place_sequences call decodes, and candidates one
# select_assignment call scores.
_SIZES = {
    "availability.find_earliest.engine": lambda args: len(args[2]),
    "availability.find_earliest.list_scheduler": lambda args: len(args[2]),
    "engine.place_sequences": lambda args: args[0].n_ops,
    "rules.select_assignment": lambda args: len(args[0]),
}

#: Layer names the tracer can report, in a fixed order.
LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in _WRAPPED))


class Tracer:
    """Context manager that traces every layer in `LAYERS` while active.

    `run_id` names the solver run that spans recorded now belong to; the
    caller sets it before each run.
    """

    def __init__(self):
        self.stats = {layer: LayerStat() for layer in LAYERS}
        self.spans: list[dict] = []
        self.run_id = None
        # One frame per active traced call: [child seconds, span id].
        self._stack: list[list] = [[0.0, None]]
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module, attr, layer, keep_span in _WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original, keep_span))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, layer, fn, keep_span):
        stat = self.stats[layer]
        size = _SIZES.get(layer)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, None]
            if keep_span:
                frame[1] = len(spans)
                spans.append(None)  # reserve the id; filled in on return
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except NoSlotError:
                stat.noslot += 1
                raise
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                parent[0] += elapsed
                stat.calls += 1
                stat.seconds += elapsed
                stat.child_seconds += frame[0]
                if size is not None:
                    stat.size += size(args)
                if keep_span:
                    spans[frame[1]] = {
                        "id": frame[1], "parent": parent[1],
                        "run": self.run_id, "name": layer,
                        "start": start, "end": end,
                        "self": elapsed - frame[0]}

        return traced
