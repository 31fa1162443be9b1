"""Outside-in tracer for the pathcrystal layers.

The library is not edited.  Instead, every public function of every layer
module is replaced by a wrapper wherever a ``pathcrystal`` module holds it:
as a module attribute (``from .paths import region_sums`` binds the name
separately in ``paths``, ``geom``, ``tropical`` and ``suites``) or as a
value of a module-level dict (``suites.SUITES``).  Patching only the
defining module would miss every call made through another module's
binding.

Each wrapped call records a span (function, parent span, start, end) in
memory.  :meth:`Tracer.collect` turns the recorded spans into per-function
call counts and self times (duration minus the child spans) and clears the
log, so the caller decides when spans are written out.

The two semiring instances are not span-traced: their ``add``/``mul``/
``ratio`` attributes are replaced by counters that also add their time to
the enclosing span's child time, so a layer's self time excludes the
arithmetic it delegates to ``RATIONAL`` or ``MAXPLUS``.  Point
constructions are counted by wrapping ``_BasePoint.__init__``.
"""

import inspect
import sys
from array import array
from time import perf_counter

PACKAGE = "pathcrystal"

# module -> layer; ``reporting`` is part of the suites layer
MODULE_LAYERS = {
    "pathcrystal.semiring": "semiring",
    "pathcrystal.lattice": "lattice",
    "pathcrystal.paths": "paths",
    "pathcrystal.birational": "birational",
    "pathcrystal.geom": "geom",
    "pathcrystal.tropical": "tropical",
    "pathcrystal.bkinf": "bkinf",
    "pathcrystal.iso": "iso",
    "pathcrystal.fundrep": "fundrep",
    "pathcrystal.suites": "suites",
    "pathcrystal.reporting": "suites",
    "pathcrystal.cli": "cli",
}
LAYERS = tuple(dict.fromkeys(MODULE_LAYERS.values()))

SEMIRING_OPS = ("add", "mul", "ratio")

# functions whose result size is tallied: the tuple family enumeration
RESULT_TALLIES = {"bkinf.all_ctuples": "bkinf.tuples_scanned"}

COUNTERS = (
    "semiring.rational.ops",
    "semiring.maxplus.ops",
    "semiring.self_s",
    "lattice.points_built",
) + tuple(RESULT_TALLIES.values())

# encoders that build a witness when a suites-layer span is open
WITNESS_ENCODERS = ("lattice.point_to_json", "bkinf.to_json")


def package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions():
    """(key, function) for every public function defined in a layer module."""
    out = []
    for mod in package_modules():
        layer = MODULE_LAYERS.get(mod.__name__)
        if layer is None:
            continue
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in sorted(vars(mod).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                out.append(("%s.%s" % (short, name), obj))
    return out


def _bindings(originals):
    """Every (container, key) in a package module that holds an original.

    A module-level dict imported into several modules is listed once.
    """
    def held(value):
        return originals.get(id(value), held) is value

    found = {}
    for mod in package_modules():
        namespace = vars(mod)
        for name, value in list(namespace.items()):
            if held(value):
                found[id(namespace), name] = namespace
            elif type(value) is dict:
                for key, item in value.items():
                    if held(item):
                        found[id(value), key] = value
    return [(container, name) for (_, name), container in found.items()]


class Tracer:
    """Install with :meth:`install`, read with :meth:`collect`, then :meth:`uninstall`."""

    def __init__(self):
        self.keys = []  # function id -> "module.function"
        self.layer_of = []  # function id -> layer name
        self._parent = array("l")
        self._fid = array("l")
        self._t0 = array("d")
        self._t1 = array("d")
        self._inner = array("d")  # semiring time spent directly under the span
        self._stack = []
        # counters without spans; reset in place because wrappers hold the dict
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._restore = []  # (container, key, original) for uninstall

    # -- installation -----------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        from pathcrystal import lattice, semiring

        originals = {}
        wrappers = {}
        for key, fn in public_functions():
            originals[id(fn)] = fn
            wrappers[id(fn)] = self._wrap(key, fn)
        for container, name in _bindings(originals):
            original = container[name]
            self._restore.append((container, name, original))
            container[name] = wrappers[id(original)]
        for spec in (semiring.RATIONAL, semiring.MAXPLUS):
            for op in SEMIRING_OPS:
                fn = getattr(spec, op)
                self._restore.append((vars(spec), op, fn))
                setattr(spec, op, self._count_op(spec.name, fn))
        base = lattice._BasePoint
        init = base.__dict__["__init__"]
        self._restore.append((base, "__init__", init))
        base.__init__ = self._count_points(init)

    def uninstall(self):
        for container, name, original in reversed(self._restore):
            if isinstance(container, dict):
                container[name] = original
            else:
                setattr(container, name, original)
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, key, fn):
        fid = len(self.keys)
        self.keys.append(key)
        self.layer_of.append(MODULE_LAYERS[fn.__module__])
        tally = RESULT_TALLIES.get(key)
        counts = self.counts
        stack, parent, fids = self._stack, self._parent, self._fid
        t0s, t1s, inner = self._t0, self._t1, self._inner

        def traced(*args, **kwargs):
            idx = len(fids)
            parent.append(stack[-1] if stack else -1)
            fids.append(fid)
            t1s.append(0.0)
            inner.append(0.0)
            stack.append(idx)
            t0s.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = perf_counter()
                stack.pop()
            if tally is not None:
                counts[tally] += len(result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _count_op(self, name, fn):
        stack, inner, counts = self._stack, self._inner, self.counts
        key = "semiring.%s.ops" % name

        def counted(a, b):
            t0 = perf_counter()
            result = fn(a, b)
            dt = perf_counter() - t0
            counts[key] += 1
            counts["semiring.self_s"] += dt
            if stack:
                inner[stack[-1]] += dt
            return result

        return counted

    def _count_points(self, init):
        counts = self.counts

        def counted_init(point, *args, **kwargs):
            counts["lattice.points_built"] += 1
            return init(point, *args, **kwargs)

        return counted_init

    def abort(self):
        """Close the spans an asynchronous exception (a timeout) left open.

        A signal handler can raise between any two bytecodes, including
        inside a wrapper's bookkeeping, so the log is first cut back to the
        last span whose fields were all appended.
        """
        logs = (self._parent, self._fid, self._t0, self._t1, self._inner)
        n = min(len(log) for log in logs)
        for log in logs:
            del log[n:]
        now = perf_counter()
        t1s = self._t1
        for idx in range(n):
            if t1s[idx] == 0.0:
                t1s[idx] = now
        self._stack.clear()

    # -- results ----------------------------------------------------------

    def collect(self):
        """Fold the recorded spans into counts and self times, then clear.

        Returns a flat dict: ``<layer>.calls``, ``<layer>.self_s`` for every
        layer, ``fn:<module.function>`` call counts, the semiring counts,
        ``lattice.points_built``, the result tallies and
        ``suites.witnesses_built``.
        """
        if self._stack:
            raise RuntimeError("collect() called inside an open span")
        parent, fids, t0s, t1s = self._parent, self._fid, self._t0, self._t1
        n = len(fids)
        child = [0.0] * n
        for idx in range(n):
            p = parent[idx]
            if p >= 0:
                child[p] += t1s[idx] - t0s[idx]
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = 0
            out[layer + ".self_s"] = 0.0
        calls = [0] * len(self.keys)
        suites_layer = [layer == "suites" for layer in self.layer_of]
        encoders = {fid for fid, key in enumerate(self.keys) if key in WITNESS_ENCODERS}
        witnesses = 0
        for idx in range(n):
            fid = fids[idx]
            layer = self.layer_of[fid]
            calls[fid] += 1
            out[layer + ".self_s"] += t1s[idx] - t0s[idx] - child[idx] - self._inner[idx]
            if fid in encoders:
                p = parent[idx]
                while p >= 0 and not suites_layer[fids[p]]:
                    p = parent[p]
                witnesses += p >= 0
        for fid, count in enumerate(calls):
            out[self.layer_of[fid] + ".calls"] += count
            out["fn:" + self.keys[fid]] = count
        out.update(self.counts)
        out["semiring.calls"] = out["semiring.rational.ops"] + out["semiring.maxplus.ops"]
        out["suites.witnesses_built"] = witnesses
        for arr in (parent, fids, t0s, t1s, self._inner):
            del arr[:]
        for name in self.counts:
            self.counts[name] = 0
        return out
