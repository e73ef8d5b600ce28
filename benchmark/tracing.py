"""In-memory span tracing for the benchmark's traced run.

The tracer replaces a module attribute (for example the ``step_market`` name
that ``market_learn.simulate`` imported) with a wrapper that records a span:
id, parent id, name, start and end.  Self time is a span's duration minus the
time of its direct child spans.  Per-name totals are kept for every traced
round; raw spans only for the first one, which is written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

CLI_SPAN = "cli.main"


def _episode_hook(kind):
    def hook(tracer, result):
        periods = len(result.price_path) - 1
        freeze = result.cascade_time
        tracer.counters[f"{kind}.periods"] += periods
        tracer.counters[f"{kind}.stepped"] += periods if freeze is None else freeze
        tracer.counters["path_bytes"] += result.price_path.nbytes + result.belief_path.nbytes
        if tracer.inside(CLI_SPAN):
            tracer.counters["cli_episodes_run"] += 1
    return hook


# (module, attribute, span name, result hook): each attribute is the name the
# calling module looks up at call time, so patching it catches every call.
TARGETS = [
    ("market_learn.cli", "main", CLI_SPAN, None),
    ("market_learn.cli", "load_scenario", "scenario.load_scenario", None),
    ("market_learn.cli", "run_episodes", "simulate.run_episodes", None),
    ("market_learn.cli", "compare_modes", "simulate.compare_modes", None),
    ("market_learn.cli", "summarize_episodes", "simulate.summarize_episodes", None),
    ("market_learn.simulate", "summarize_episodes", "simulate.summarize_episodes", None),
    ("market_learn.simulate", "run_private_episode", "simulate.run_private_episode", _episode_hook("private")),
    ("market_learn.simulate", "run_public_episode", "simulate.run_public_episode", _episode_hook("public")),
    ("market_learn.simulate", "step_market", "engine.step_market", None),
    ("market_learn.engine", "solve_quotes", "engine.solve_quotes", None),
    ("market_learn.cli", "solve_quotes", "engine.solve_quotes", None),
    ("market_learn.engine", "update_public_belief_on_action", "model.update_public_belief_on_action", None),
    ("market_learn.simulate", "bayes_posterior", "model.bayes_posterior", None),
    ("market_learn.simulate", "expectation", "model.expectation", None),
    ("market_learn.cli", "emit_plots", "plots.emit_plots", None),
    ("market_learn.cli", "azc_audit", "conditions.azc_audit", None),
    ("market_learn.cli", "scan_cascades", "conditions.scan_cascades", None),
    ("market_learn.conditions", "scan_cascades", "conditions.scan_cascades", None),
    ("market_learn.conditions", "find_cascade_beliefs", "conditions.find_cascade_beliefs", None),
    ("market_learn.cli", "is_mlrp", "conditions.is_mlrp", None),
    ("market_learn.cli", "run_martingale_suite", "verify.run_martingale_suite", None),
]


class Tracer:
    def __init__(self):
        self.raw = []           # (id, parent, name, start, end) of the first traced round
        self.keep_raw = True
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total s, self s]
        self.counters = defaultdict(float)
        self._stack = []        # open spans: [id, child seconds, name]
        self._next_id = 0
        self._patched = []

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    def wrap(self, name, fn, hook=None):
        stack, stats = self._stack, self.stats

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0, name]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                entry = stats[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if self.keep_raw:
                    self.raw.append((frame[0], parent, name, start, end))
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:   # the layer is gone; its metrics read 0
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, hook))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def take_round(self) -> dict:
        """Per-name totals and counters since the last call; stops keeping
        raw spans after the first round."""
        snapshot = {"stats": {k: list(v) for k, v in self.stats.items()}, "counters": dict(self.counters)}
        self.stats.clear()
        self.counters.clear()
        self.keep_raw = False
        return snapshot

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": self.raw}, handle)
