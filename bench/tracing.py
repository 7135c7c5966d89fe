"""Out-of-tree tracing of the `plectic` layers.

`install()` wraps functions of the imported `plectic` package from outside,
so nothing under `src/` changes:

- every public module-level function of every `plectic.*` module, and the
  layer methods in `SPANNED_METHODS`, get a span: a call count, total time
  and self time (total minus the time of the spans opened inside it);
- the scalar operations in `COUNTED_METHODS` get a call count only, because
  a t2 run makes ~800k of them and a span each would swamp the figures;
- each runner suite gets a span named `runner.suite.<name>`.

A wrapped function can be reachable under several names (`from . import`
aliases, the package re-exports, `runner.SUITE_FUNCS`); every such name is
rebound to the wrapper, and `stale_aliases()` lists any that still reach an
unwrapped original.
"""

import importlib
import pkgutil
import time

# (module, class, method, span name): the layer boundaries that are methods
SPANNED_METHODS = [
    ("units", "UnitCompletion", "complete", "units.complete"),
    ("tate", "TateCurve", "phi", "tate.phi"),
    ("tate", "TateCurve", "add", "tate.add"),
    ("grpalg", "GroupAlgebraElem", "__mul__", "grpalg.mul"),
    ("grpalg", "GroupAlgebraElem", "involution", "grpalg.involution"),
    ("symalg", "SymTensor", "__mul__", "symalg.mul"),
    ("plectic_ops", "PlecticTensor", "coords", "plectic_ops.coords"),
]

# (module, class, method, counter name): scalar operations, counted only
COUNTED_METHODS = [
    ("padic", "PadicScalar", "__init__", "padic.scalar_new"),
    ("padic", "QuadExtScalar", "__mul__", "padic.quad_mul"),
    ("padic", "QuadExtScalar", "inverse", "padic.quad_inverse"),
]

# modules whose functions are not layers: the CLI is the traced process itself
SKIPPED_MODULES = ("plectic.cli", "plectic.errors")

# span names that differ from `<module>.<function>`
RENAMED = {"tate.tate_coefficients": "tate.coefficients"}


class Tracer:
    """Span and counter store; all figures stay in memory until `summary()`."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.counts = {}
        self.stats = {"grpalg.mul.pairs": 0, "grpalg.mul.kept": 0,
                      "grpalg.max_terms": 0, "plectic_ops.det_map.terms": 0}
        self._stack = []  # time spent in wrapped children, per open span
        self.originals = {}  # id(original) -> (original, wrapper)

    def span(self, name, fn, after=None):
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return self._register(fn, wrapper)

    def count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return self._register(fn, wrapper)

    def _register(self, fn, wrapper):
        self.originals[id(fn)] = (fn, wrapper)
        return wrapper

    # -- layer-specific work counts -------------------------------------------

    def _after_grpalg_mul(self, args, result):
        a, b = args
        self.stats["grpalg.mul.pairs"] += len(a.coeffs) * len(b.coeffs)
        self.stats["grpalg.mul.kept"] += len(result.coeffs)
        self._note_terms(result)

    def _note_terms(self, elem):
        if len(elem.coeffs) > self.stats["grpalg.max_terms"]:
            self.stats["grpalg.max_terms"] = len(elem.coeffs)

    def _after_det_map(self, args, result):
        self.stats["plectic_ops.det_map.terms"] += len(result.terms)

    def summary(self):
        return {"spans": self.spans, "counts": self.counts, "stats": self.stats}


def plectic_modules():
    """Every `plectic.*` module, imported, with the package itself first."""
    import plectic

    mods = [plectic]
    for info in pkgutil.iter_modules(plectic.__path__):
        mods.append(importlib.import_module("plectic." + info.name))
    return mods


def install(tracer):
    """Wrap the layers and rebind every alias; returns the tracer."""
    mods = plectic_modules()
    by_name = {m.__name__: m for m in mods}
    runner = by_name["plectic.runner"]
    suite_names = {id(fn): name for name, fn in runner.SUITE_FUNCS.items()}
    after = {"grpalg.mul": tracer._after_grpalg_mul,
             "grpalg.involution":
                 lambda args, result: tracer._note_terms(result),
             "plectic_ops.det_map": tracer._after_det_map}

    for mod in mods:
        if mod.__name__ in SKIPPED_MODULES or mod.__name__ == "plectic":
            continue
        short = mod.__name__.split(".", 1)[1]
        for attr, value in list(vars(mod).items()):
            if (attr.startswith("_") or not callable(value)
                    or isinstance(value, type)
                    or getattr(value, "__module__", None) != mod.__name__):
                continue
            if id(value) in suite_names:
                name = "runner.suite." + suite_names[id(value)]
            else:
                name = RENAMED.get(short + "." + attr, short + "." + attr)
            tracer.span(name, value, after.get(name))

    # a method the program no longer has is skipped; its metrics read 0
    for table, wrap in ((SPANNED_METHODS,
                         lambda name, fn: tracer.span(name, fn, after.get(name))),
                        (COUNTED_METHODS, tracer.count)):
        for modname, cls, meth, name in table:
            klass = getattr(by_name.get("plectic." + modname), cls, None)
            if klass is not None and meth in vars(klass):
                setattr(klass, meth, wrap(name, getattr(klass, meth)))

    # rebind every module-level alias and the suite table
    for mod in mods:
        for attr, value in list(vars(mod).items()):
            hit = tracer.originals.get(id(value))  # originals stay alive
            if hit is not None:
                setattr(mod, attr, hit[1])
    for key, fn in list(runner.SUITE_FUNCS.items()):
        runner.SUITE_FUNCS[key] = tracer.originals[id(fn)][1]
    return tracer


def stale_aliases(tracer):
    """Names in `plectic.*` that still reach an unwrapped original."""
    stale = []
    wrapped = {id(orig) for orig, _ in tracer.originals.values()}
    for mod in plectic_modules():
        for attr, value in vars(mod).items():
            if id(value) in wrapped:
                stale.append("%s.%s" % (mod.__name__, attr))
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, member in vars(value).items():
                    if id(member) in wrapped:
                        stale.append("%s.%s.%s" % (mod.__name__, attr, meth))
    runner = importlib.import_module("plectic.runner")
    for key, fn in runner.SUITE_FUNCS.items():
        if id(fn) in wrapped:
            stale.append("plectic.runner.SUITE_FUNCS[%r]" % key)
    return stale
