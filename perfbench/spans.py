"""In-memory timing spans around the public functions of the sheffer package.

A span wraps one call. Its self time is its duration minus the part of that
interval covered by child spans, so nested layers are not counted twice. A
span that opens on a worker thread with nothing open there (``verify`` fans
suites out on a thread pool) is a child of the span open on the main thread;
concurrent ones count once, by the union of their intervals. The wrapper's
own bookkeeping after a call is charged to the parent as child time, so it
shows only in the traced run's total wall time (``trace.overhead_s``), not
in any layer's self time.

Wrappers are installed by rebinding every ``sheffer.*`` module attribute and
class attribute that is the same object as the wrapped function. Calls made
through references held elsewhere -- inside closures, dicts or ``lru_cache``
objects -- are not seen; their time stays in the calling span's self time.
"""

import importlib
import sys
import threading
import time


class Stat:
    __slots__ = ("calls", "self_s", "durations", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = []
        self.extra = {}


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


class Frame:
    """An open span: time covered by same-thread children, and intervals of
    spans from worker threads that it started."""

    __slots__ = ("child_s", "foreign")

    def __init__(self):
        self.child_s = 0.0
        self.foreign = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread = []
        self._main_stack = []

    def _state(self):
        local = self._local
        try:
            return local.stack, local.stats
        except AttributeError:
            is_main = threading.current_thread() is threading.main_thread()
            local.stack = self._main_stack if is_main else []
            local.stats = {}
            with self._lock:
                self._per_thread.append(local.stats)
            return local.stack, local.stats

    def wrap(self, name, fn, observe=None):
        """Return a function that records a span named ``name`` per call.

        ``observe(extra, result)`` runs after the span closes and may add
        counts to the span's ``extra`` dict.
        """
        perf_counter = time.perf_counter

        main_stack = self._main_stack

        def traced(*args, **kwargs):
            stack, stats = self._state()
            frame = Frame()
            stack.append(frame)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                stat = stats.get(name)
                if stat is None:
                    stat = stats[name] = Stat()
                stat.calls += 1
                stat.self_s += (end - start - frame.child_s
                                - _covered(frame.foreign, start, end))
                stat.durations.append(end - start)
                if ok and observe is not None:
                    observe(stat.extra, result)
                if stack:
                    stack[-1].child_s += perf_counter() - start
                elif stack is not main_stack and main_stack:
                    main_stack[-1].foreign.append((start, perf_counter()))
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def merged(self):
        """Per-name totals over all threads: {name: Stat}."""
        out = {}
        with self._lock:
            tables = list(self._per_thread)
        for table in tables:
            for name, stat in table.items():
                total = out.setdefault(name, Stat())
                total.calls += stat.calls
                total.self_s += stat.self_s
                total.durations.extend(stat.durations)
                for key, value in stat.extra.items():
                    if key.startswith("max_"):
                        total.extra[key] = max(total.extra.get(key, 0), value)
                    else:
                        total.extra[key] = total.extra.get(key, 0) + value
        return out


def _resolve(module_name, qualname):
    module = sys.modules.get(f"sheffer.{module_name}")
    if module is None:
        return None
    owner_name, _, attr = qualname.rpartition(".")
    owner = vars(module).get(owner_name) if owner_name else module
    if owner is None:
        return None
    obj = vars(owner).get(attr)
    return obj if callable(obj) else None


def install(tracer, targets):
    """Wrap each ``(span_name, module, qualname, observe)`` target in place.

    Several targets may share a span name; their stats are then one layer.
    Returns ``(originals, absent)``: the unwrapped object per span name (the
    last one, for a shared name), and ``"span: module.qualname"`` for each
    target whose function does not exist in this version.
    """
    for module_name in sorted({t[1] for t in targets}):
        try:
            importlib.import_module(f"sheffer.{module_name}")
        except ImportError:
            pass
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "sheffer" or n.startswith("sheffer."))]
    classes = {}
    for module in modules:
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__.startswith("sheffer"):
                classes[id(value)] = value
    owners = modules + list(classes.values())

    originals, absent = {}, []
    for span_name, module_name, qualname, observe in targets:
        obj = _resolve(module_name, qualname)
        if obj is None:
            absent.append(f"{span_name}: {module_name}.{qualname}")
            continue
        wrapper = tracer.wrap(span_name, obj, observe)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is obj:
                    setattr(owner, attr, wrapper)
        originals[span_name] = obj
    return originals, absent
