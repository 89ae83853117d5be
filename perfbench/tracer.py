"""Span tracer that wraps chorefair's public entry points from the outside.

``Tracer.install`` replaces each entry point in every ``chorefair`` module
that binds it, so calls between modules go through the wrapper too. Each
wrapped call records a span (id, name, start, end, parent id) in memory;
``write`` saves them once the run ends. A span's self time is its duration
minus the time its child spans cover. The evaluator closures returned by
``mask_evaluator`` are the hottest leaf: they are counted and timed in
aggregate, without a span per call.

An entry point that no longer exists is skipped, so its metrics are absent
rather than zero.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# Per-layer metrics in the order they are reported: (name, unit, better).
LAYER_METRICS = (
    [("model.eval.calls", "count", "lower"), ("model.eval.self_s", "s", "lower")]
    + [(f"model.{p}.{k}", u, "lower") for p in ("check", "from_json") for k, u in (("calls", "count"), ("self_s", "s"))]
    + [
        (f"mms.{r}.{k}", u, "lower")
        for r in ("additive", "capped", "cardinality", "coverage", "table", "enumerate", "pairwise")
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        (f"criteria.{c}.{k}", u, "lower")
        for c in ("EF", "EF1", "EFX", "EFX_STRONG", "MMS", "PMMS", "context_for")
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [("criteria.context.builds", "count", "lower")]
    + [("search.best_fair.calls", "count", "lower"), ("search.best_fair.self_s", "s", "lower")]
    + [("search.space", "count", "lower"), ("search.alpha_checks", "count", "lower")]
    + [("search.alpha_check_ratio", "ratio", "lower")]
    + [
        (f"allocate.{a}.{k}", u, "lower")
        for a in ("round_robin", "best_rr_order", "alg1", "pmms32", "optimal")
        for k, u in (("calls", "count"), ("self_s", "s"))
    ]
    + [("cli.main.calls", "count", "lower"), ("cli.main.self_s", "s", "lower")]
    + [("trace.overhead_ratio", "ratio", "lower")]
)

_ROUTE_OF_VARIANT = {
    "Additive": "additive",
    "CappedAdditive": "capped",
    "CappedCardinality": "cardinality",
    "RowCoverage": "coverage",
    "TableCost": "table",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _variant_route(args, kwargs) -> str:
    inst, agent = _arg(args, kwargs, 0, "inst"), _arg(args, kwargs, 1, "agent")
    return "mms." + _ROUTE_OF_VARIANT.get(type(inst.costs[agent]).__name__, "other")


def _criteria_route(args, kwargs) -> str:
    # The criteria kernel asks for k=2 shares over the union of two bundles
    # for PMMS; whole-set shares (k=n, all chores) keep the variant's route.
    if _arg(args, kwargs, 2, "k") == 2 and _arg(args, kwargs, 3, "chores") is not None:
        return "mms.pairwise"
    return _variant_route(args, kwargs)


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.stack: list[list] = []  # [name, start, child seconds, span id]
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total seconds, self seconds]
        self.counts: dict[str, int] = {}
        self.present: set[str] = set()  # metric bases whose entry point exists
        self._next_id = 1

    # -- recording ---------------------------------------------------------

    def _stat(self, name: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        return stat

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [name, perf_counter(), 0.0, span_id]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - frame[1]
            stat = self._stat(name)
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
            self.spans.append((span_id, name, frame[1], end, parent[3] if parent else 0))

    def leaf(self, name: str, fn):
        """Wrap a hot leaf: aggregate count and time, no span per call."""
        stat = self._stat(name)
        stack = self.stack

        def timed(*args):
            if not self.active:
                return fn(*args)
            start = perf_counter()
            result = fn(*args)
            duration = perf_counter() - start
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration
            if stack:
                stack[-1][2] += duration
            return result

        return timed

    # -- installation ------------------------------------------------------

    def wrap(self, module, attr: str, name, present, before=None, nested: str | None = None, everywhere=True):
        """Wrap ``module.attr`` where chorefair binds it (only in ``module``
        when ``everywhere`` is false).

        ``name`` is a span name or a function of the call's arguments;
        ``present`` lists the metric bases the entry point provides;
        ``before`` runs ahead of the call to update counters; a call made
        while a span whose name starts with ``nested`` is on top of the stack
        passes straight through (dispatch inside one layer).
        """
        original = getattr(module, attr, None)
        if original is None:
            return
        self.present.update([present] if isinstance(present, str) else present)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active or (nested and tracer.stack and tracer.stack[-1][0].startswith(nested)):
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span = name(args, kwargs) if callable(name) else name
            return tracer.call(span, original, args, kwargs)

        self._rebind(original, wrapper, module if not everywhere else None)

    def _rebind(self, original, wrapper, only=None) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "chorefair" or mod_name.startswith("chorefair.")):
                continue
            if only is not None and mod is not only:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import chorefair.allocate as allocate
        import chorefair.cli as cli
        import chorefair.criteria as criteria
        import chorefair.mms as mms
        import chorefair.model as model
        import chorefair.search as search

        tracer = self

        # model: the evaluator closures, the structure checks, JSON parsing.
        factory = getattr(model, "mask_evaluator", None)
        if factory is not None:
            self.present.add("model.eval")

            def mask_evaluator(*args, **kwargs):
                return tracer.leaf("model.eval", factory(*args, **kwargs))

            self._rebind(factory, mask_evaluator)
        for attr in ("check_monotone", "check_submodular"):
            self.wrap(model, attr, "model.check", "model.check")
        for attr in ("instance_from_json", "allocation_from_json"):
            self.wrap(model, attr, "model.from_json", "model.from_json")

        # mms: one span per outermost call, named by route. The criteria
        # module's binding of mms_value is wrapped first and alone, so that
        # its k=2 calls over bundle unions count as the pairwise route.
        routes = [f"mms.{r}" for r in _ROUTE_OF_VARIANT.values()]
        self.wrap(mms, "mms_share", "mms.enumerate", "mms.enumerate", nested="mms.")
        self.wrap(mms, "pairwise_mms", "mms.pairwise", "mms.pairwise", nested="mms.")
        self.wrap(mms, "mms_share_additive_fast", "mms.additive", "mms.additive", nested="mms.")
        if getattr(criteria, "mms_value", None) is getattr(mms, "mms_value", None):
            self.wrap(criteria, "mms_value", _criteria_route, routes + ["mms.pairwise"], nested="mms.", everywhere=False)
        self.wrap(mms, "mms_value", _variant_route, routes, nested="mms.")

        # criteria: the kernel per criterion, context lookups and builds.
        context_cls = getattr(criteria, "InstanceContext", None)
        kernel = getattr(context_cls, "min_alpha_masks", None)
        if kernel is not None:
            self.present.update(f"criteria.{c.value}" for c in criteria.Criterion)
            self.present.add("criteria.context")

            def min_alpha_masks(ctx, masks, crit):
                if not tracer.active:
                    return kernel(ctx, masks, crit)
                if tracer.stack and tracer.stack[-1][0] == "search.best_fair":
                    tracer.count("search.alpha_checks")
                return tracer.call(f"criteria.{crit.value}", kernel, (ctx, masks, crit), {})

            init = context_cls.__init__

            def build(ctx, *args, **kwargs):
                if tracer.active:
                    tracer.count("criteria.context.builds")
                init(ctx, *args, **kwargs)

            context_cls.min_alpha_masks = min_alpha_masks
            context_cls.__init__ = build
        self.wrap(criteria, "context_for", "criteria.context_for", "criteria.context_for")

        # search: exhaustive search, with the size of each search space.
        def space(args, kwargs):
            inst = _arg(args, kwargs, 0, "inst")
            tracer.count("search.space", inst.n**inst.m)

        self.wrap(search, "best_fair_allocation", "search.best_fair", ["search.best_fair", "search"], before=space)

        for attr, short in (
            ("round_robin", "round_robin"),
            ("best_round_robin_order", "best_rr_order"),
            ("alg1_two_agent_ef1", "alg1"),
            ("pmms32_two_agent", "pmms32"),
            ("optimal_allocation", "optimal"),
        ):
            self.wrap(allocate, attr, f"allocate.{short}", f"allocate.{short}")
        self.wrap(cli, "main", "cli.main", "cli.main")
        self.active = True

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values for every metric whose entry point exists."""
        out: dict[str, float] = {}
        for name, _, _ in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if base not in self.present:
                continue
            if field in ("calls", "self_s"):
                stat = self.stats.get(base, [0, 0.0, 0.0])
                out[name] = stat[0] if field == "calls" else stat[2]
            elif name == "search.alpha_check_ratio":
                space = self.counts.get("search.space", 0)
                out[name] = self.counts.get("search.alpha_checks", 0) / space if space else 0.0
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"aggregates": self.stats, "counts": self.counts}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
