"""Spans around the package's public functions, recorded from outside it.

``Tracer`` wraps each traced function at every module binding that holds
it (``from .linalg import meet`` copies the reference into the importing
module), and the listed class attributes.  ``install`` and ``uninstall``
swap the bindings, so an untraced operation calls the original functions.
Spans are kept in memory as (name, start, end, parent) and reduced to
calls and self time at the end of the run.
"""
from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# Layer -> traced functions of that layer's module; "Class.attr" names a
# class attribute.  A function's time outside its traced children counts
# as self time of its layer.  ``cli.main`` is the operation boundary.
TRACED = {
    "cli": ("main",),
    "io": ("load_complex",),
    "complexes": (
        "FilteredComplex.validate",
        "FilteredComplex.cycles_at",
        "FilteredComplex.boundaries_at",
        "FilteredComplex.colimit_cycles",
    ),
    "posets": (
        "enumerate_diagram_pairs",
        "pair_blankets",
        "blankets_of_open",
        "degree_blankets",
        "min_elements",
    ),
    "linalg": ("meet", "join", "contains", "kernel", "Subspace.from_array"),
    "memory": (
        "cycles_on_open",
        "boundaries_on_open",
        "homological_memory",
        "blanket_union",
        "lifespan_rank",
    ),
    "calculus": ("pair_group_rank", "check_cad1", "check_cad2"),
    "diagrams": ("compute_diagram", "chain_diagram_counter"),
    "oracle": ("oracle_barcode",),
    "verify": ("run_verification",),
}

# Functions whose result length is counted as ``<name>.pairs_out``.
_PAIRS_OUT = ("posets.enumerate_diagram_pairs", "posets.degree_blankets")


class Tracer:
    """Wrappers for every traced binding, and the spans they record."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_op = array("i")
        self.op = -1
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.meet_cells = 0
        self.memory_args: set = set()
        self.memory_calls = 0
        self._bindings = []  # (holder, attribute, original, wrapped)
        for layer, attrs in TRACED.items():
            module = importlib.import_module(f"persdiff.{layer}")
            for attr in attrs:
                self._bind(layer, module, attr)

    def _bind(self, layer, module, attr):
        name = f"{layer}.{attr.rsplit('.', 1)[-1]}"
        if "." in attr:
            cls = getattr(module, attr.split(".")[0])
            method = attr.split(".")[1]
            original = cls.__dict__[method]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._bindings.append((cls, method, original, wrapped))
            return
        func = getattr(module, attr)
        wrapped = self._wrap(name, func)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "persdiff" and not mod_name.startswith("persdiff."):
                continue
            for key, value in list(vars(mod).items()):
                if value is func:
                    self._bindings.append((mod, key, func, wrapped))

    def _wrap(self, name, func):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self.name_ids[name]
        tracer = self
        stack = self.stack
        counts_out = name in _PAIRS_OUT
        is_meet = name == "linalg.meet"
        is_memory = name == "memory.homological_memory"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if is_meet:
                a, b = args[0], args[1]
                tracer.meet_cells += (a.dim + b.dim) * 2 * a.ambient_dim
            elif is_memory:
                tracer.memory_calls += 1
                tracer.memory_args.add((tracer.op, args[1], args[2]))
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            if counts_out:
                tracer.counts[name] = tracer.counts.get(name, 0) + len(result)
            return result

        traced.perfbench_span = name
        return traced

    def install(self, op: int) -> None:
        self.op = op
        for holder, attr, _, wrapped in self._bindings:
            setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, original, _ in self._bindings:
            setattr(holder, attr, original)

    def dump(self, path) -> None:
        """Write every span: name index, parent index, op, start and end."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per traced function and layer."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        inclusive = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        out = {}
        for i, fn in enumerate(self.names):
            out[fn] = {"calls": int(calls[i]), "incl_s": float(inclusive[i]), "self_s": float(own[i])}
        for layer in TRACED:
            rows = [v for fn, v in out.items() if fn.split(".")[0] == layer]
            out[layer] = {
                "calls": sum(r["calls"] for r in rows),
                "self_s": sum(r["self_s"] for r in rows),
            }
        return out

