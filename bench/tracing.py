"""Layer spans and work counters installed on `extensor` from outside.

Nothing under ``src/`` knows about this module.  :class:`Instrument`
replaces the public functions and methods of the twelve layer modules
with wrappers, at every place that holds a reference to them: the
defining module, every module that took the name with ``from .x import
y``, the package namespace and module-level dicts such as
``identity_suite.SUITES``.  Classes are patched in place, so operator
dispatch (``a + b``, ``a ^ b``, ``str(a)``) goes through the wrappers
too.  :meth:`Instrument.uninstall` puts every original back.

Two modes:

* counting only (``trace=False``): just the work counters of
  ``straighten``, ``standard_expansion`` and ``wh_normal_form`` (calls,
  terms in, terms out).  Untraced passes use this, so that traced and
  untraced passes can be compared on the same counts.
* tracing (``trace=True``): additionally a span each time control
  enters a layer from another layer (or from the benchmark), with the
  per-function probes listed in ``TRACE_PROBES``.

A span records name, start, end, parent span and item id.  A layer's
self time is its span time minus the time covered by its child spans;
its inclusive time counts outermost entries only, so re-entry through
another layer is not counted twice.  Calls that stay inside one layer
do not open spans.  A generator function opens one span per resumption,
because that is when its work runs.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("words", "tensorops", "linalg", "exterior", "tensor_power",
          "cg_algebra", "span_invariants", "letterplace", "bitableau",
          "whitney", "identity_suite", "cli")

# operator and constructor methods wrapped besides the public names
_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__neg__", "__mul__",
                      "__rmul__", "__xor__", "__eq__", "__str__", "__call__"})


def _terms(x) -> int:
    return len(x.terms)


# (module, qualified name) -> (probe name, terms in from the arguments,
# terms out from the result).  Every probe counts calls and times its
# outermost calls.  WORK_PROBES run in both modes, TRACE_PROBES only
# when tracing.
WORK_PROBES = {
    ("bitableau", "straighten"):
        ("bitableau.straighten", lambda a: _terms(a[0]), _terms),
    ("bitableau", "standard_expansion"):
        ("bitableau.expansion", lambda a: _terms(a[0]), _terms),
    ("whitney", "wh_normal_form"):
        ("whitney.nf", lambda a: _terms(a[0].raw), _terms),
}
TRACE_PROBES = {
    ("exterior", "ExteriorElement.wedge"): ("exterior.wedge", None, None),
    ("exterior", "substitute"): ("exterior.substitute", None, None),
    ("cg_algebra", "OrderedBasis.star"): ("cg_algebra.star", None, None),
    ("cg_algebra", "PeanoSpace.meet"): ("cg_algebra.meet", None, None),
    ("tensor_power", "diamond"): ("tensor_power.diamond", None, None),
    ("tensorops", "graded_product_terms"): ("tensorops.kernel", None, len),
    ("tensorops", "diamond_terms"): ("tensorops.kernel", None, len),
    ("span_invariants", "minimal_representation"):
        ("span_invariants.minrep", None, None),
    ("linalg", "rref"): ("linalg.rref", lambda a: len(a[0]), None),
    ("letterplace", "biproduct_expand"): ("letterplace.expand", None, None),
    ("letterplace", "polarize"): ("letterplace.polarize", None, None),
    ("letterplace", "polarize_divided"): ("letterplace.polarize", None, None),
    ("whitney", "ideal_membership_bruteforce"): ("whitney.oracle", None, None),
    ("cli", "parse"): ("cli.parse", None, None),
    ("cli", "Evaluator.eval"): ("cli.eval", None, None),
}


class Probe:
    """Calls, outermost time and term counts of one function (or two
    functions sharing a name, such as the two tensorops kernels)."""

    __slots__ = ("calls", "time_s", "depth", "terms_in", "terms_out",
                 "measure_in", "measure_out", "bases", "reused")

    def __init__(self, measure_in=None, measure_out=None):
        self.calls = 0
        self.time_s = 0.0
        self.depth = 0
        self.terms_in = 0
        self.terms_out = 0
        self.measure_in = measure_in
        self.measure_out = measure_out
        self.bases = None      # first arguments seen, when reuse is tracked
        self.reused = 0


class Instrument:
    """Wraps the package; use as a context manager or install/uninstall."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.probes: dict[str, Probe] = {}
        self._restore: list = []
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    # -- state ---------------------------------------------------------

    def reset(self):
        """Drop everything recorded so far (set-up work, say)."""
        self.layer = None
        self.item = -1
        self._stack: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = dict.fromkeys(LAYERS, 0)
        self.time_s = dict.fromkeys(LAYERS, 0.0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self._depth = dict.fromkeys(LAYERS, 0)
        for probe in self.probes.values():
            probe.calls = probe.depth = probe.terms_in = probe.terms_out = 0
            probe.reused = 0
            probe.time_s = 0.0
            probe.bases = {} if probe.bases is not None else None

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- spans ---------------------------------------------------------

    def _open(self, layer, name_id: int):
        parent = self._stack[-1][4] if self._stack else -1
        idx = len(self.span_start)
        start = perf_counter()
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_item.append(self.item)
        self.span_start.append(start)
        self.span_end.append(start)
        if layer is not None:
            self._depth[layer] += 1
        frame = [layer, start, 0.0, self.layer, idx]
        self._stack.append(frame)
        self.layer = layer
        return frame

    def _close(self, frame, error: bool):
        end = perf_counter()
        layer, start, child, outer_layer, idx = frame
        self._stack.pop()
        self.span_end[idx] = end
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.layer = outer_layer
        if layer is None:
            return
        self.calls[layer] += 1
        self.self_s[layer] += dur - child
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            self.time_s[layer] += dur
        if error:
            self.errors[layer] += 1

    def begin_item(self, item: int):
        """Open the root span of one benchmark item."""
        self.item = item
        if self.trace:
            return self._open(None, self._name_id("item"))
        return None

    def end_item(self, frame, error: bool):
        if frame is not None:
            self._close(frame, error)

    # -- wrappers ------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, probe: Probe | None):
        inst = self
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(layer, name, fn)
        name_id = self._name_id(name)

        if probe is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if inst.layer == layer:
                    return fn(*args, **kwargs)
                frame = inst._open(layer, name_id)
                failed = True
                try:
                    result = fn(*args, **kwargs)
                    failed = False
                finally:
                    inst._close(frame, failed)
                return result
            return wrapper

        trace = self.trace

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            probe.calls += 1
            if probe.measure_in is not None:
                probe.terms_in += probe.measure_in(args)
            if probe.bases is not None:
                key = id(args[0])
                if key in probe.bases:
                    probe.reused += 1
                else:
                    probe.bases[key] = args[0]
            frame = None
            if trace and inst.layer != layer:
                frame = inst._open(layer, name_id)
            probe.depth += 1
            start = perf_counter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                probe.depth -= 1
                if probe.depth == 0:
                    probe.time_s += perf_counter() - start
                if frame is not None:
                    inst._close(frame, failed)
            if probe.measure_out is not None:
                probe.terms_out += probe.measure_out(result)
            return result
        return probed

    def _wrap_generator(self, layer: str, name: str, fn):
        inst = self
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = None
                if inst.layer != layer:
                    frame = inst._open(layer, name_id)
                failed = True
                try:
                    value = next(inner)
                    failed = False
                except StopIteration:
                    failed = False
                    return
                finally:
                    if frame is not None:
                        inst._close(frame, failed)
                yield value
        return wrapper

    # -- installation --------------------------------------------------

    def _probe_for(self, layer: str, qualname: str) -> Probe | None:
        spec = WORK_PROBES.get((layer, qualname))
        if spec is None and self.trace:
            spec = TRACE_PROBES.get((layer, qualname))
        if spec is None:
            return None
        key, measure_in, measure_out = spec
        if key not in self.probes:
            self.probes[key] = Probe(measure_in, measure_out)
            if key == "cg_algebra.star":
                self.probes[key].bases = {}
        return self.probes[key]

    def _set(self, target, attr, value):
        if isinstance(target, dict):
            self._restore.append((target, attr, target[attr]))
            target[attr] = value
        else:
            self._restore.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, value)

    def _wrap_member(self, layer, fn):
        probe = self._probe_for(layer, fn.__qualname__)
        if self.trace or probe is not None:
            return self._wrap(layer, f"{layer}.{fn.__qualname__}", fn, probe)
        return None

    def install(self) -> "Instrument":
        package = importlib.import_module("extensor")
        modules = {layer: importlib.import_module(f"extensor.{layer}")
                   for layer in LAYERS}
        wrapped: dict[int, tuple] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    new = self._wrap_member(layer, obj)
                    if new is not None:
                        wrapped[id(obj)] = (obj, new)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj)
        # every reference to a wrapped function, wherever it was imported
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        hit = wrapped.get(id(val))
                        if hit is not None and hit[0] is val:
                            self._set(obj, key, hit[1])
        self.reset()
        return self

    def _install_class(self, layer, cls):
        generated = dataclasses.is_dataclass(cls)
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and (attr not in _DUNDERS or generated):
                continue
            if isinstance(val, (classmethod, staticmethod)):
                new = self._wrap_member(layer, val.__func__)
                if new is not None:
                    self._set(cls, attr, type(val)(new))
            elif inspect.isfunction(val):
                new = self._wrap_member(layer, val)
                if new is not None:
                    self._set(cls, attr, new)

    def uninstall(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------

    def work_counts(self) -> dict[str, int]:
        """The counts that must repeat exactly, in both modes."""
        out = {}
        for key in ("bitableau.straighten", "bitableau.expansion", "whitney.nf"):
            p = self.probes[key]
            out[f"{key}_calls"] = p.calls
            out[f"{key}_terms_in"] = p.terms_in
            out[f"{key}_terms_out"] = p.terms_out
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of a traced pass, by their benchmark names."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.time_s"] = self.time_s[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        p = self.probes
        star = p["cg_algebra.star"]
        out.update({
            "exterior.wedge_calls": p["exterior.wedge"].calls,
            "exterior.wedge_s": p["exterior.wedge"].time_s,
            "exterior.substitute_calls": p["exterior.substitute"].calls,
            "cg_algebra.star_calls": star.calls,
            "cg_algebra.star_s": star.time_s,
            "cg_algebra.star_basis_reuse":
                star.reused / star.calls if star.calls else 0.0,
            "cg_algebra.meet_calls": p["cg_algebra.meet"].calls,
            "cg_algebra.meet_s": p["cg_algebra.meet"].time_s,
            "tensor_power.diamond_calls": p["tensor_power.diamond"].calls,
            "tensor_power.diamond_s": p["tensor_power.diamond"].time_s,
            "tensorops.terms_out": p["tensorops.kernel"].terms_out,
            "span_invariants.minrep_calls": p["span_invariants.minrep"].calls,
            "linalg.rows_in": p["linalg.rref"].terms_in,
            "letterplace.expand_calls": p["letterplace.expand"].calls,
            "letterplace.polarize_calls": p["letterplace.polarize"].calls,
            "letterplace.polarize_s": p["letterplace.polarize"].time_s,
            "cli.parse_s": p["cli.parse"].time_s,
            "cli.eval_s": p["cli.eval"].time_s,
            "whitney.oracle_calls": p["whitney.oracle"].calls,
            "whitney.oracle_s": p["whitney.oracle"].time_s,
        })
        for key, short in (("bitableau.straighten", "bitableau.straighten"),
                           ("bitableau.expansion", "bitableau.expansion"),
                           ("whitney.nf", "whitney.nf")):
            probe = p[key]
            out[f"{short}_calls"] = probe.calls
            out[f"{short}_s"] = probe.time_s
            out[f"{short}_terms_in"] = probe.terms_in
            out[f"{short}_terms_out"] = probe.terms_out
        return out

    def write_spans(self, path) -> int:
        """Write the spans as gzipped tab-separated lines; returns the count."""
        n = len(self.span_start)
        origin = self.span_start[0] if n else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\titem\tname\tstart_s\tend_s\n")
            for i in range(n):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.span_item[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - origin:.9f}\t"
                         f"{self.span_end[i] - origin:.9f}\n")
        return n
