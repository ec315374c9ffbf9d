"""Span tracing of the vfree layers, installed from outside the library.

The tracer rebinds every public module-level function of the eight vfree
modules, in every vfree module namespace that binds it, so both
cross-module calls (``bstree.path_multiply``) and intra-module calls
through module globals are seen.  ``FiniteGroup.__init__`` and
``GraphOfGroups.__init__`` are wrapped to count construction.  Methods
such as ``FiniteGroup.mul`` and ``inv`` are left alone, and so is
``gogwords.end_vertex``: they are too fine-grained (``end_vertex`` alone
doubled the span count of a Whitehead op), and their cost lands in the
calling span's self time.

Each span records its name, start, end, parent span and op id.  Spans
stay in memory (flat arrays) until the benchmark writes them out at the
end.  Per-name call counts, self time (span duration minus child spans)
and inclusive time are accumulated as spans close; a few names also
feed counters and size samples for the scaling fits.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import statistics
from array import array
from time import perf_counter

MODULES = ("fingroup", "gogwords", "bstree", "genericity", "defspace",
           "folds", "folog", "cli")
CLASSES = (("fingroup", "FiniteGroup"), ("gogwords", "GraphOfGroups"))
UNWRAPPED = ("gogwords.end_vertex",)
ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op_id = -1
        self.counters: dict[str, float] = {}
        # name -> {bucket: [count, sum of sizes, span seconds]}
        self.samples: dict[str, dict] = {}
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._observers: dict[int, object] = {}
        self.name_id(ROOT)

    def name_id(self, name: str) -> int:
        idx = self.index.get(name)
        if idx is None:
            idx = self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return idx

    # -- spans -------------------------------------------------------------

    def enter(self, idx: int, count: bool = True) -> list:
        if count:
            self.calls[idx] += 1
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        frame = [sid, idx, start, 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        sid, idx, start, child = self._stack.pop()
        dur = end - start
        self.span_end[sid] = end
        self.self_s[idx] += dur - child
        self.total_s[idx] += dur
        if self._stack:
            self._stack[-1][3] += dur
        return dur

    def active(self, name: str) -> bool:
        idx = self.index[name]
        return any(f[1] == idx for f in self._stack)

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def sample(self, name: str, size: int, seconds: float) -> None:
        """Record one (size, span seconds) point for a scaling fit, in the
        bucket of sizes with the same bit length."""
        row = self.samples.setdefault(name, {}).setdefault(
            size.bit_length(), [0, 0, array("d")])
        row[0] += 1
        row[1] += size
        row[2].append(seconds)

    def op_span(self, op_id: int):
        self.op_id = op_id
        return self.enter(0)

    # -- installing wrappers -------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = self.name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A generator is timed over its consumption: each resumption
            # is one span segment, and the call is counted once.
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not tracer.enabled:
                    return (yield from it)
                first = True
                while True:
                    frame = tracer.enter(idx, count=first)
                    first = False
                    try:
                        item = next(it)
                    except StopIteration as stop:
                        tracer.exit(frame)
                        return stop.value
                    except BaseException:
                        tracer.exit(frame)
                        raise
                    tracer.exit(frame)
                    yield item
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                frame = tracer.enter(idx)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = tracer.exit(frame)
                observe = tracer._observers.get(idx)
                if observe is not None:
                    observe(tracer, args, kwargs, result, dur)
                return result

        traced.__bench_original__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, lib: dict) -> None:
        """Wrap the public functions of every module in ``lib`` (short
        name -> module) and the two constructors."""
        for short in MODULES:
            mod = lib[short]
            originals = [(name, obj) for name, obj in vars(mod).items()
                         if not name.startswith("_")
                         and inspect.isfunction(obj)
                         and obj.__module__ == mod.__name__]
            for name, fn in originals:
                if f"{short}.{name}" in UNWRAPPED:
                    continue
                wrapper = self._wrap(f"{short}.{name}", fn)
                for other in lib.values():
                    for attr, val in list(vars(other).items()):
                        if val is fn:
                            self._patch(other, attr, wrapper)
        for short, cls_name in CLASSES:
            cls = getattr(lib[short], cls_name)
            self._patch(cls, "__init__",
                        self._wrap(f"{short}.{cls_name}", cls.__init__))
        for name, observe in OBSERVERS.items():
            self._observers[self.name_id(name)] = observe

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path, t0: float) -> int:
        """Write every span as one tab-separated line; times in seconds
        from t0.  Returns the number of spans written."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for sid in range(len(self.span_name)):
                fh.write(f"{sid}\t{self.names[self.span_name[sid]]}\t"
                         f"{self.span_start[sid] - t0:.9f}\t"
                         f"{self.span_end[sid] - t0:.9f}\t"
                         f"{self.span_parent[sid]}\t{self.span_op[sid]}\n")
        return len(self.span_name)


def assert_untraced(lib: dict) -> None:
    """Fail unless every name a tracer could wrap is bound to the
    library's own function."""
    for short, mod in lib.items():
        for attr, val in vars(mod).items():
            if hasattr(val, "__bench_original__"):
                raise RuntimeError(f"{short}.{attr} is still traced")
    for short, cls_name in CLASSES:
        if hasattr(getattr(lib[short], cls_name).__init__,
                   "__bench_original__"):
            raise RuntimeError(f"{short}.{cls_name}.__init__ is still traced")


# -- observers: counters and size samples at layer boundaries ------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _path_multiply(t, args, kwargs, result, dur):
    n = len(_arg(args, kwargs, 1, "p").steps)
    t.count("gogwords.path_multiply.left_syllables", n)
    t.sample("gogwords.path_multiply", n, dur)


def _axis_window(t, args, kwargs, result, dur):
    n = len(result.vertices)
    t.count("bstree.axis_window.vertices", n)
    t.sample("bstree.axis_window", n, dur)


def _sample_walk(t, args, kwargs, result, dur):
    t.count("genericity.sample_walk.steps", _arg(args, kwargs, 2, "length"))


def _translate(t, args, kwargs, result, dur):
    if t.active("genericity.fills"):
        t.count("genericity.fills.translate_calls")


def _fills(t, args, kwargs, result, dur):
    t.count("genericity.fills.edges", sum(len(g.edges) for g in result.graphs))


def _graph_of_groups(t, args, kwargs, result, dur):
    if t.active("defspace.enumerate_reduced"):
        t.count("defspace.candidates")


def _enumerate_reduced(t, args, kwargs, result, dur):
    t.count("defspace.kept", len(result))
    if kwargs.get("vertex_groups") is None and len(args) < 4:
        t.sample("defspace.enumerate_reduced",
                 _arg(args, kwargs, 2, "max_order"), dur)


def _are_gog_isomorphic(t, args, kwargs, result, dur):
    if result:
        t.count("defspace.are_gog_isomorphic.true")


def _normal_form(t, args, kwargs, result, dur):
    w = _arg(args, kwargs, 1, "w")
    n = len(w.steps) if hasattr(w, "steps") else len(w.items)
    t.count("gogwords.normal_form.input_syllables", n)
    t.sample("gogwords.normal_form", n, dur)


OBSERVERS = {
    "gogwords.path_multiply": _path_multiply,
    "bstree.axis_window": _axis_window,
    "genericity.sample_walk": _sample_walk,
    "bstree.translate": _translate,
    "genericity.fills": _fills,
    "gogwords.GraphOfGroups": _graph_of_groups,
    "defspace.enumerate_reduced": _enumerate_reduced,
    "defspace.are_gog_isomorphic": _are_gog_isomorphic,
    "gogwords.normal_form": _normal_form,
}


def fit_exponent(buckets: dict) -> float:
    """Least-squares slope of log(median span seconds) against log(mean
    size) over the size buckets holding at least three calls of size at
    least 1.  Medians keep the odd call that absorbed a garbage
    collection from bending the fit.  0.0 when fewer than two buckets
    qualify."""
    pts = [(math.log(s / n), math.log(statistics.median(d)))
           for n, s, d in buckets.values() if n >= 3 and s >= n]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
