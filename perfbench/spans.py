"""Per-layer span accounting for the traced benchmark run.

Spans are kept as running totals per layer name (calls, total seconds,
self seconds), never as individual records: the doubling workload makes
about 80 k gradient calls per op. A layer's self time is its duration
minus the time of the spans opened inside it. When a span opens inside a
span of the same name (``load_config`` calls ``validate_config``), only the
outer one adds to the total, so totals are never counted twice.

The tracer wraps the public callables the workloads call or hand to the
program; nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    """Running per-layer totals: ``spans[name] = [calls, s, self_s]``."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child seconds]

    def _enter(self, name: str) -> None:
        self._stack.append([name, _now(), 0.0])

    def _exit(self) -> None:
        end = _now()
        name, start, child = self._stack.pop()
        dur = end - start
        stat = self.spans[name]
        stat[0] += 1
        stat[2] += dur - child
        if not any(frame[0] == name for frame in self._stack):
            stat[1] += dur
        if self._stack:
            self._stack[-1][2] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def traced_solver(self, solve):
        """Wrap ``smoothed_weiszfeld``: a span plus iteration and stop counts."""
        inner = self.wrap("geomed.solve", solve)

        def traced(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.counts["geomed.iterations"] += result.iterations
            self.counts["geomed.budget_stops"] += result.converged_by == "budget"
            return result

        return traced


class TracedTask:
    """A task whose ``gradient`` and ``loss`` are traced; all else delegates."""

    def __init__(self, task, tracer: Tracer) -> None:
        self._task = task
        self.gradient = tracer.wrap("tasks.gradient", task.gradient)
        self.loss = tracer.wrap("tasks.loss", task.loss)

    def __getattr__(self, name):
        return getattr(self._task, name)


class TracedOracle:
    """A secure-average oracle whose ``average`` is traced; counters delegate."""

    def __init__(self, oracle, tracer: Tracer) -> None:
        self._oracle = oracle
        self.average = tracer.wrap("secure_avg", oracle.average)

    def __getattr__(self, name):
        return getattr(self._oracle, name)


@contextlib.contextmanager
def patched(*replacements):
    """Set ``(module, name, value)`` attributes, restoring them on exit."""
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in replacements]
    try:
        for mod, name, value in replacements:
            setattr(mod, name, value)
        yield
    finally:
        for mod, name, value in reversed(saved):
            setattr(mod, name, value)


def instrument(tracer: Tracer):
    """Trace the program's module-level names that the round loop and CLI call.

    ``fedgm.fl_core`` and ``fedgm.cli`` look these names up at call time, so
    replacing them routes every call through a span.
    """
    from fedgm import cli, fl_core

    def traced_generate(*args, **kwargs):
        with tracer.span("tasks.generate"):
            task, partition = generate(*args, **kwargs)
        return TracedTask(task, tracer), partition

    def traced_oracle(*args, **kwargs):
        return TracedOracle(oracle_cls(*args, **kwargs), tracer)

    generate, oracle_cls = cli.generate_ls_task, cli.SecureAverageOracle
    w = tracer.wrap
    return patched(
        (fl_core, "local_update_sgd", w("fl_core.local_update", fl_core.local_update_sgd)),
        (
            fl_core,
            "local_update_tail_avg_sgd",
            w("fl_core.local_update", fl_core.local_update_tail_avg_sgd),
        ),
        (fl_core, "aggregate", w("fl_core.aggregate", fl_core.aggregate)),
        (fl_core, "omniscient_updates", w("corruption.omniscient", fl_core.omniscient_updates)),
        (fl_core, "smoothed_weiszfeld", tracer.traced_solver(fl_core.smoothed_weiszfeld)),
        (cli, "load_config", w("cli.config", cli.load_config)),
        (cli, "validate_config", w("cli.config", cli.validate_config)),
        (cli, "write_trace_csv", w("cli.write", cli.write_trace_csv)),
        (cli, "write_summary_json", w("cli.write", cli.write_summary_json)),
        (cli, "run_federated", w("fl_core.run", cli.run_federated)),
        (cli, "generate_ls_task", traced_generate),
        (cli, "SecureAverageOracle", traced_oracle),
    )
