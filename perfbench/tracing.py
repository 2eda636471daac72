"""Spans around calls into numerals, recorded from outside the package.

`Tracer.install()` replaces the public entry points of each module with
wrappers that record one span per call (name, start, end, parent span) and
counts made at the same boundary: calls per name, distinct arguments for
the builders, the largest stage or index asked of the real-source layer and
the engine's public `atomic_evals` counter. Every module attribute that holds
the same function object is wrapped, so copies imported by name (such as
`engine.classify` or `acceptance.dyadic_numeral`) are traced too;
`uninstall()` puts every original back.

Self time is computed as spans close: a span's duration minus the time
its child spans cover. Spans are kept in flat arrays and written out at the
end; past MAX_SPANS only the aggregates are kept.
"""

import json
import time
from array import array

# (module, function) pairs wrapped wherever the numerals modules hold them.
FUNCTIONS = (
    ("sexpr", "read"),
    ("formulas", "parse"),
    ("formulas", "classify"),
    ("formulas", "free_vars"),
    ("builders", "dyadic_numeral"),
    ("builders", "build_numeral"),
    ("spaces", "load_space"),
    ("spaces", "builtin_suite"),
    ("spaces", "random_repaired_space"),
)

# (module, class, method) triples patched on the class.
METHODS = (
    ("reals", "CutEnumerator", "hit"),
    ("reals", "SequenceExtraction", "s_approx"),
    ("reals", "SequenceExtraction", "r_approx"),
) + tuple(("engine", "Engine", name) for name in (
    "eval_exact", "eval_enclosure", "truncation_value", "sandwich",
    "independence_check", "classification_check", "convergence_report",
    "verify_recipe"))

GENERATORS = ("dyadic-upper-cut", "dyadic-lower-cut", "staged-approx",
              "successor-members", "limit-members")


class _TracedGenerator:
    """Delegates to a registered generator, tracing `member`."""

    def __init__(self, inner, member):
        self.inner = inner
        self.member = member

    def level_bound(self, params):
        return self.inner.level_bound(params)

    def monotone(self, params):
        return self.inner.monotone(params)


MAX_SPANS = 2_000_000  # raw spans kept; about 24 bytes each


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.calls = []
        self.self_s = []
        self.total_s = []
        self.distinct = {}
        self.maxima = {}
        self.engines = []
        self._stack = []
        self._saved = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def wrap(self, name, fn, on_call=None):
        """A function recording a span named `name` around each call of fn.

        on_call(args) runs before the call, outside the timed span."""
        nid = self._id(name)
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            if len(names) < MAX_SPANS:
                idx = len(names)
                names.append(nid)
                parents.append(stack[-1][0] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[nid] += 1
                total_s[nid] += dur
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if idx >= 0:
                    starts[idx] = start
                    ends[idx] = end

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ counters

    def _distinct(self, name, key):
        self.distinct.setdefault(name, set()).add(key)

    def _maximum(self, name, value):
        if value > self.maxima.get(name, -1):
            self.maxima[name] = value

    def _see_engine(self, engine):
        if not any(e is engine for e in self.engines):
            self.engines.append(engine)

    def atomic_evals(self):
        return sum(e.atomic_evals for e in self.engines)

    # ------------------------------------------------------ install/restore

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, numerals_modules):
        """Wrap every entry point in the given {name: module} map."""
        mods = numerals_modules
        hooks = {
            "builders.dyadic_numeral":
                lambda a: self._distinct("builders.dyadic_numeral",
                                         (a[0], a[1])),
            "reals.CutEnumerator.hit":
                lambda a: self._maximum("reals.cut_max_k", a[1]),
            "reals.SequenceExtraction.s_approx":
                lambda a: self._maximum("reals.extraction_max_stage", a[2]),
            "reals.SequenceExtraction.r_approx":
                lambda a: self._maximum("reals.extraction_max_stage", a[2]),
        }
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(mods[mod_name], fn_name)
            name = "%s.%s" % (mod_name, fn_name)
            traced = self.wrap(name, original, hooks.get(name))
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, traced)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            name = "%s.%s.%s" % (mod_name, cls_name, meth)
            hook = hooks.get(name)
            if mod_name == "engine":
                hook = lambda a: self._see_engine(a[0])
            self._patch(cls, meth, self.wrap(name, vars(cls)[meth], hook))
        formulas = mods["formulas"]
        for gen_name in GENERATORS:
            inner = formulas.get_generator(gen_name)
            name = "builders.member.%s" % gen_name
            member = self.wrap(
                name, inner.member,
                lambda a, _n=name: self._distinct(_n, (a[0], a[1])))
            self._saved.append((formulas, ("generator", gen_name), inner))
            formulas.register_generator(gen_name,
                                        _TracedGenerator(inner, member))
        acceptance = mods["acceptance"]
        self._patch(acceptance, "CRITERIA", tuple(
            self.wrap("acceptance.criterion_%d" % (i + 1), fn)
            for i, fn in enumerate(acceptance.CRITERIA)))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if isinstance(attr, tuple):
                owner.register_generator(attr[1], original)
            else:
                setattr(owner, attr, original)
        self._saved = []

    # --------------------------------------------------------------- output

    def summary(self):
        """Aggregates by span name, JSON-ready."""
        return {
            "spans": {name: {"calls": self.calls[i], "self_s": self.self_s[i],
                             "total_s": self.total_s[i]}
                      for i, name in enumerate(self.names)},
            "distinct": {name: len(keys)
                         for name, keys in self.distinct.items()},
            "maxima": dict(self.maxima),
            "atomic_evals": self.atomic_evals(),
            "recorded_spans": len(self.span_name),
            "dropped_spans": self.dropped,
        }

    def write_spans(self, path):
        """Raw spans: a JSON header line, then the four arrays as binary."""
        with open(path, "wb") as fh:
            fh.write((json.dumps({"names": self.names,
                                  "count": len(self.span_name),
                                  "arrays": ["name:i", "parent:i",
                                             "start:d", "end:d"]})
                      + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)
