"""Layer timing for the traced pass, installed from outside the package.

Each target is a public function looked up as a module attribute by its
caller (``shorsim.factorizer.pick_y`` is the name ``run_session`` calls),
so replacing that attribute with a timing wrapper sees every call without
editing ``src/``. Spans nest: a span's self time is its duration minus the
time its child spans cover, so ``orderfinder.self_s`` is ``find_order``
without the draws, convergents and modpows it made.

A target whose attribute no longer exists is skipped and its metrics are
reported as not measured, so a later change that deletes a function does
not break the benchmark.
"""

from __future__ import annotations

import importlib
import time
import weakref

_clock = time.perf_counter_ns

# (owner, attribute, span name, timed). The owner is a module path, or a
# module path plus a class name after a colon. An untimed span only counts
# calls: prob runs millions of times per workload and a clock read on each
# call would double its cost.
TARGETS = (
    ("shorsim.factorizer", "pick_y", "factorizer.pick_y", True),
    ("shorsim.factorizer", "multiplicative_order", "numtheory.multiplicative_order", True),
    ("shorsim.factorizer", "ReadoutSampler", "sampler.build", True),
    ("shorsim.factorizer", "find_order", "orderfinder.find_order", True),
    ("shorsim.factorizer", "extract_factors", "factorizer.extract_factors", True),
    ("shorsim.sampler:ReadoutSampler", "draw", "sampler.draw", True),
    ("shorsim.sampler", "dominant_readouts", "model.dominant_readouts", True),
    ("shorsim.sampler", "prob", "model.prob", False),
    ("shorsim.orderfinder", "convergents", "numtheory.convergents", True),
    ("shorsim.orderfinder", "modpow", "numtheory.modpow", True),
    ("shorsim", "to_jsonl", "transcript.to_jsonl", True),
    ("shorsim", "render_text", "transcript.render_text", True),
    ("shorsim", "from_jsonl", "transcript.from_jsonl", True),
)


class Span:
    """Totals for one span name: calls, busy time and time in child spans."""

    __slots__ = ("calls", "total_ns", "child_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0


class Tracer:
    """Wraps the TARGETS that exist; restores every original on uninstall."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {name: Span() for _, _, name, _ in TARGETS}
        self.missing: set[str] = set()
        # Counters read from return values where the work happens.
        self.ceiling_rejections = 0
        self.shared_factor_hits = 0
        self.accepted_bases = 0
        self.splits_succeeded = 0
        self.trials = 0
        self.verified_trials = 0
        self.first_draw_ns = 0
        self._drawn: weakref.WeakSet = weakref.WeakSet()
        self._stack: list[int] = []  # child time accumulated per open span
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner_path, attr, name, timed in TARGETS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add(name)
                continue
            wrapper = self._timed(name, original) if timed else self._counted(name, original)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _counted(self, name: str, fn):
        span = self.spans[name]

        def counted(*args, **kwargs):
            span.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, name: str, fn):
        span = self.spans[name]
        stack = self._stack
        observe = {
            "factorizer.pick_y": self._picked,
            "numtheory.multiplicative_order": self._order_computed,
            "orderfinder.find_order": self._order_found,
            "factorizer.extract_factors": self._split,
            "sampler.draw": self._drawn_once,
        }.get(name)

        def timed(*args, **kwargs):
            stack.append(0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                span.child_ns += stack.pop()
                span.calls += 1
                span.total_ns += elapsed
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, result, elapsed)
            return result

        return timed

    def _picked(self, args, result, elapsed):
        if isinstance(result, tuple):
            self.accepted_bases += 1
        else:
            self.shared_factor_hits += 1

    def _order_computed(self, args, result, elapsed):
        if result is None:
            self.ceiling_rejections += 1

    def _order_found(self, args, result, elapsed):
        self.trials += len(result)
        self.verified_trials += sum(1 for t in result if t.verified)

    def _split(self, args, result, elapsed):
        if result[0].value == "success":
            self.splits_succeeded += 1

    def _drawn_once(self, args, result, elapsed):
        sampler = args[0]
        if sampler not in self._drawn:
            self._drawn.add(sampler)
            self.first_draw_ns += elapsed

    def metrics(
        self, sessions: int, gcd_shortcuts: int, events: int, jsonl_bytes: int
    ) -> dict[str, tuple[float | None, str]]:
        """Per-layer metrics as name -> (value, unit); None means not measured."""
        s = self.spans

        def measured(*names_then_value):
            *names, value = names_then_value
            return None if self.missing.intersection(names) else value

        def seconds(name: str) -> float | None:
            return measured(name, s[name].total_ns / 1e9)

        def ratio(num: float | None, den: float | None) -> float | None:
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        draws = measured("sampler.draw", s["sampler.draw"].calls)
        built = measured("sampler.build", s["sampler.build"].calls)
        prob_calls = measured("model.prob", s["model.prob"].calls)
        first_s = measured("sampler.draw", self.first_draw_ns / 1e9)
        order_calls = measured(
            "numtheory.multiplicative_order", s["numtheory.multiplicative_order"].calls
        )
        bases = measured(
            "factorizer.pick_y",
            "numtheory.multiplicative_order",
            s["numtheory.multiplicative_order"].calls + self.shared_factor_hits,
        )
        find_order = s["orderfinder.find_order"]
        trials = measured("orderfinder.find_order", self.trials)
        splits = measured("factorizer.extract_factors", s["factorizer.extract_factors"].calls)
        return {
            "sampler.draw_s": (seconds("sampler.draw"), "s"),
            "sampler.draws": (draws, "count"),
            "sampler.samplers_built": (built, "count"),
            "sampler.draws_per_sampler": (ratio(draws, built), "count"),
            "sampler.first_draw_s": (first_s, "s"),
            "sampler.later_draw_s": (
                measured("sampler.draw", (s["sampler.draw"].total_ns - self.first_draw_ns) / 1e9),
                "s",
            ),
            "model.prob_calls": (prob_calls, "count"),
            "sampler.prob_calls_per_draw": (ratio(prob_calls, draws), "count"),
            "model.dominant_readouts_s": (seconds("model.dominant_readouts"), "s"),
            "factorizer.pick_y_s": (seconds("factorizer.pick_y"), "s"),
            "factorizer.bases_drawn": (bases, "count"),
            "factorizer.ceiling_rejections": (
                measured("numtheory.multiplicative_order", self.ceiling_rejections),
                "count",
            ),
            "factorizer.base_accept_ratio": (
                ratio(measured("factorizer.pick_y", self.accepted_bases), bases),
                "ratio",
            ),
            "numtheory.multiplicative_order_s": (seconds("numtheory.multiplicative_order"), "s"),
            "numtheory.multiplicative_order_calls": (order_calls, "count"),
            "factorizer.gcd_shortcut_share": (ratio(gcd_shortcuts, sessions), "ratio"),
            "factorizer.extract_factors_s": (seconds("factorizer.extract_factors"), "s"),
            "factorizer.split_success_ratio": (
                ratio(measured("factorizer.extract_factors", self.splits_succeeded), splits),
                "ratio",
            ),
            "orderfinder.find_order_s": (seconds("orderfinder.find_order"), "s"),
            "orderfinder.self_s": (
                measured(
                    "orderfinder.find_order",
                    (find_order.total_ns - find_order.child_ns) / 1e9,
                ),
                "s",
            ),
            "orderfinder.trials": (trials, "count"),
            "orderfinder.verified_ratio": (
                ratio(measured("orderfinder.find_order", self.verified_trials), trials),
                "ratio",
            ),
            "numtheory.convergents_s": (seconds("numtheory.convergents"), "s"),
            "numtheory.modpow_s": (seconds("numtheory.modpow"), "s"),
            "transcript.to_jsonl_s": (seconds("transcript.to_jsonl"), "s"),
            "transcript.render_text_s": (seconds("transcript.render_text"), "s"),
            "transcript.from_jsonl_s": (seconds("transcript.from_jsonl"), "s"),
            "transcript.events": (events, "count"),
            "transcript.jsonl_bytes": (jsonl_bytes, "bytes"),
        }


def _resolve(path: str):
    module_path, _, class_name = path.partition(":")
    try:
        owner = importlib.import_module(module_path)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner
