"""Span and count tracing of the capgames layers, from outside the package.

`Tracer.install` replaces every public function of each capgames module,
in every capgames namespace that holds it (so `equilibrium.best_response`
is wrapped where `equilibrium` looks it up), plus a few methods on their
classes. Wrapped functions record spans: name, start, end, parent span,
and the benchmark item they ran under. Very hot callables (Fraction
comparisons, lazy tensor lookups, correction-map evaluations) are
counted without spans. `uninstall` restores every original.

Self time is a span's duration minus its direct children's durations.
Inclusive time counts only the outermost span of a name, so recursion
is not counted twice. Aggregates are exact; the span list itself keeps
the first `SPAN_CAP` spans of a pass and counts the rest as dropped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import capgames

LAYERS = ("rational", "capacity", "sugeno", "tensor", "game", "equilibrium",
          "convexity", "generate", "io", "cli")
SPAN_CAP = 100_000
FRACTION_COMPARISONS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def layer_modules():
    return {name: importlib.import_module(f"capgames.{name}") for name in LAYERS}


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.self_time: list[float] = []
        self.active: list[int] = []
        self.counts: dict[str, int] = {}
        self.stack: list[list] = []
        self.next_id = 0
        self.item = -1
        self._restore: list[tuple] = []
        self._compares = [0]
        self._item = self.spanned("item", lambda thunk: thunk())

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.self_time.append(0.0)
            self.active.append(0)
        return self.name_ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def spanned(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span. `before(args, parent_name_id)` and
        `after(args, result, parent_name_id)` run outside the clock."""
        nid = self._name_id(name)
        stack, spans = self.stack, self.spans
        calls, inclusive, self_time, active = (
            self.calls, self.inclusive, self.self_time, self.active)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            pnid = parent[2] if parent else -1
            if before is not None:
                before(args, pnid)
            sid = self.next_id
            self.next_id = sid + 1
            # start, time in direct children, name id, span id
            frame = [0.0, 0.0, nid, sid]
            stack.append(frame)
            active[nid] += 1
            start = frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[nid] -= 1
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                calls[nid] += 1
                self_time[nid] += duration - frame[1]
                if not active[nid]:
                    inclusive[nid] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((sid, nid, start, end,
                                  parent[3] if parent else -1, self.item))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, result, pnid)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_item(self, item_index: int, thunk):
        """Run one benchmark item under a root span named `item`."""
        self.item = item_index
        return self._item(thunk)

    # ---------------------------------------------------------- installing

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = layer_modules()
        namespaces = [capgames, *mods.values()]
        counts = self.counts
        hooks = self._hooks()

        wrappers = {}
        for layer, mod in mods.items():
            for attr in dir(mod):
                fn = getattr(mod, attr)
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[fn] = self.spanned(name, fn, *hooks.get(name, (None, None)))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(ns, attr, wrappers[value])

        for cls_path, method in (("capacity.FiniteCapacity", "__init__"),
                                 ("tensor.LazyTensorCapacity", "__init__"),
                                 ("tensor.ProductDomain", "__post_init__")):
            layer, cls_name = cls_path.split(".")
            cls = getattr(mods[layer], cls_name)
            name = f"{cls_path}.{method}"
            self._patch(cls, method, self.spanned(
                name, getattr(cls, method), *hooks.get(name, (None, None))))

        lazy = mods["tensor"].LazyTensorCapacity
        value_mask = lazy.value_mask

        def counted_value_mask(cap, mask):
            counts["tensor.lazy_evals"] = counts.get("tensor.lazy_evals", 0) + 1
            if mask in cap._memo:
                counts["tensor.lazy_memo_hits"] = counts.get("tensor.lazy_memo_hits", 0) + 1
            return value_mask(cap, mask)

        self._patch(lazy, "value_mask", counted_value_mask)

        correction = mods["sugeno"].CorrectionMap
        evaluate = correction.evaluate

        def counted_evaluate(cmap, level):
            counts["sugeno.psi_evals"] = counts.get("sugeno.psi_evals", 0) + 1
            return evaluate(cmap, level)

        self._patch(correction, "evaluate", counted_evaluate)

        for op in FRACTION_COMPARISONS:
            self._patch(Fraction, op, _counting(getattr(Fraction, op), self._compares))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.counts["rational.fraction_compares"] = self._compares[0]

    def _hooks(self):
        """Per-name (before, after) hooks that count work at the boundary."""
        count = self.count
        grid_id = self._name_id("equilibrium.find_equilibria_grid")

        def capacity_build(args, pnid):
            count("capacity.table_entries", args[1].subset_count)

        def profile_checked(args, result, pnid):
            count("equilibrium.profiles_checked")
            count("equilibrium.profile_hits", bool(result.holds))

        def system_checked(args, result, pnid):
            if pnid == grid_id:
                count("equilibrium.systems_checked")
                count("equilibrium.system_hits", bool(result.holds))

        def enumerated(args, result, pnid):
            count("convexity.capacities", len(result))

        def binarity(args, result, pnid):
            count("convexity.intervals", result.interval_count)
            count("convexity.linked_pairs", result.linked_pairs)
            count("convexity.triples_checked", result.triples_checked)

        def t2(args, result, pnid):
            count("convexity.t2_pairs", result.pairs_checked)

        def parsed(args, pnid):
            count("io.bytes_in", len(args[0].encode("utf-8")))

        def serialized(args, result, pnid):
            count("io.bytes_out", len(result.encode("utf-8")))

        hooks = {
            "capacity.FiniteCapacity.__init__": (capacity_build, None),
            "equilibrium.check_support_profile": (None, profile_checked),
            "equilibrium.is_equilibrium": (None, system_checked),
            "convexity.enumerate_capacities": (None, enumerated),
            "convexity.check_binarity": (None, binarity),
            "convexity.check_t2": (None, t2),
        }
        for kind in ("capacity", "game", "function"):
            hooks[f"io.loads_{kind}"] = (parsed, None)
            hooks[f"io.serialize_{kind}"] = (None, serialized)
        return hooks

    # ------------------------------------------------------------- results

    def calls_of(self, name: str) -> int:
        nid = self.name_ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def incl(self, name: str) -> float:
        nid = self.name_ids.get(name)
        return self.inclusive[nid] if nid is not None else 0.0

    def self_s(self, *names: str) -> float:
        return sum(self.self_time[self.name_ids[n]] for n in names
                   if n in self.name_ids)

    def layer_counts(self) -> dict[str, int]:
        """Every count the pass produced; two traced passes over the same
        inputs must agree on all of them exactly."""
        out = dict(self.counts)
        for name, nid in self.name_ids.items():
            if name != "item":
                out[f"calls:{name}"] = self.calls[nid]
        return out

    def metrics(self) -> dict[str, float]:
        c = self.counts.get
        io_parse = [f"io.{p}_{k}" for p in ("parse", "loads")
                    for k in ("capacity", "game", "function")]
        io_serialize = [f"io.serialize_{k}" for k in ("capacity", "game", "function")]
        profiles = c("equilibrium.profiles_checked", 0)
        systems = c("equilibrium.systems_checked", 0)
        evals = c("tensor.lazy_evals", 0)
        binarity_s = self.incl("convexity.check_binarity")
        t2_s = self.incl("convexity.check_t2")
        return {
            "rational.fraction_compares": c("rational.fraction_compares", 0),
            "capacity.builds": self.calls_of("capacity.FiniteCapacity.__init__"),
            "capacity.table_entries": c("capacity.table_entries", 0),
            "capacity.validate_s": self.self_s("capacity.FiniteCapacity.__init__"),
            "sugeno.integrals": self.calls_of("sugeno.sugeno_integral"),
            "sugeno.integral_s": self.self_s("sugeno.sugeno_integral"),
            "sugeno.psi_evals": c("sugeno.psi_evals", 0),
            "sugeno.oracle_s": self.incl("sugeno.sugeno_oracle"),
            "tensor.dense_products": self.calls_of("tensor.tensor2"),
            "tensor.dense_product_s": self.self_s("tensor.tensor2"),
            "tensor.marginal_s": self.incl("tensor.marginal"),
            "tensor.lazy_builds": self.calls_of("tensor.LazyTensorCapacity.__init__"),
            "tensor.lazy_evals": evals,
            "tensor.lazy_memo_hit_ratio": _ratio(c("tensor.lazy_memo_hits", 0), evals),
            "tensor.product_domain_builds": self.calls_of("tensor.ProductDomain.__post_init__"),
            "game.best_responses": self.calls_of("game.best_response"),
            "game.best_response_s": self.incl("game.best_response"),
            "equilibrium.profiles_checked": profiles,
            "equilibrium.profile_hit_ratio": _ratio(c("equilibrium.profile_hits", 0), profiles),
            "equilibrium.support_scan_s": self.incl("equilibrium.find_equilibria_supports"),
            "equilibrium.systems_checked": systems,
            "equilibrium.system_hit_ratio": _ratio(c("equilibrium.system_hits", 0), systems),
            "equilibrium.grid_scan_s": self.incl("equilibrium.find_equilibria_grid"),
            "equilibrium.is_equilibrium_s": self.incl("equilibrium.is_equilibrium"),
            "convexity.capacities": c("convexity.capacities", 0),
            "convexity.intervals": c("convexity.intervals", 0),
            "convexity.linked_pairs": c("convexity.linked_pairs", 0),
            "convexity.triples_checked": c("convexity.triples_checked", 0),
            "convexity.t2_pairs": c("convexity.t2_pairs", 0),
            "convexity.enumerate_s": self.incl("convexity.enumerate_capacities"),
            "convexity.binarity_s": binarity_s,
            "convexity.t2_s": t2_s,
            "convexity.triples_per_s": _ratio(c("convexity.triples_checked", 0), binarity_s),
            "convexity.t2_pairs_per_s": _ratio(c("convexity.t2_pairs", 0), t2_s),
            "io.parse_s": self.self_s(*io_parse),
            "io.serialize_s": self.self_s(*io_serialize),
            "io.bytes_in": c("io.bytes_in", 0),
            "io.bytes_out": c("io.bytes_out", 0),
            "cli.command_s": self.incl("cli.main"),
        }

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({
            "names": self.names,
            "span_fields": ["id", "name", "start", "end", "parent", "item"],
            "spans": self.spans,
            "dropped": self.dropped,
            "counts": self.layer_counts(),
        }))


def _counting(op, cell):
    def counted(a, b):
        cell[0] += 1
        return op(a, b)
    return counted


def _ratio(num, den) -> float:
    return num / den if den else 0.0
