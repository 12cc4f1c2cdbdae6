"""Span tracer for the traced benchmark run.

The hooks live here, not in the program: `install` rebinds each public
function of the layer modules on every striplex module that looks the name
up, so a call through `oracle.brute_force_u`, a global `solve_contact` or a
`from .ioutil import fmt_real` binding all land in the same wrapper.
`uninstall` restores every binding.

Spans are kept in memory as parallel arrays (id = index, parent id, name,
start, duration, self time) and written out once at the end.  A span's self
time is its duration minus the time of its child spans and leaf calls.
Leaf calls (`BoundarySpline.value`/`derivative`, `fmt_real`) run millions of
times per workload, so they are aggregated per name instead of recorded one
by one; their time is still subtracted from the enclosing span's self time.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("boundary", "params", "construction", "oracle", "analysis", "verify", "ioutil")
# holders: every module whose namespace may bind a layer function
MODULES = LAYERS + ("cli",)
LEAVES = ("ioutil.fmt_real",)
# region codes: boundary work inside a brute-force or envelope oracle call
OUTSIDE, BRUTE, MW = 0, 1, 2
REGIONS = {"oracle.brute_force_u": BRUTE, "oracle.mw_envelopes": MW}
ARRAY_ARGS = ("construction.contact_inverse", "construction.u_at_contact")
CHECK_NAMES = {
    "check_oracle_equivalence": "oracle_equivalence",
    "check_localization": "localization",
    "check_fixed_point": "fixed_point_contract",
    "check_gradient_identity": "gradient_identity",
    "check_kink_transfer": "kink_transfer",
    "check_envelope_coincidence": "envelope_coincidence",
    "check_segment_affinity": "segment_affinity",
    "check_lipschitz_quotient": "lipschitz_quotient",
    "check_residual_refinement": "residual_refinement",
    "check_degenerate_closed_forms": "degenerate_closed_forms",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array("l")
        self.code = array("l")
        self.start = array("d")
        self.dur = array("d")
        self.self_s = array("d")
        self._stack = [-1]
        self._child = [0.0]
        self._region = [OUTSIDE]
        # boundary leaf counters, indexed by region
        self.scalar_calls = [0, 0, 0]
        self.array_calls = [0, 0, 0]
        self.array_elems = [0, 0, 0]
        self.boundary_s = [0.0, 0.0, 0.0]
        self.leaf_calls: dict[str, int] = {}
        self.leaf_s: dict[str, float] = {}
        self.iterations = array("l")
        self.construction_elems = [0]
        self.bytes_out = [0]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap fn so that each call records one span named name."""
        code = len(self.names)
        self.names.append(name)
        parent, codes, start, dur, self_s = self.parent, self.code, self.start, self.dur, self.self_s
        stack, child, region = self._stack, self._child, self._region
        enter_region = REGIONS.get(name)
        after = self._after(name)
        pc = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(dur)
            parent.append(stack[-1])
            codes.append(code)
            start.append(0.0)
            dur.append(0.0)
            self_s.append(0.0)
            stack.append(sid)
            child.append(0.0)
            outer = region[0]
            if enter_region is not None:
                region[0] = enter_region
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                region[0] = outer
                stack.pop()
                start[sid] = t0
                dur[sid] = dt
                self_s[sid] = dt - child.pop()
                child[-1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after(self, name: str):
        if name == "construction.solve_contact":
            iterations = self.iterations
            return lambda args, result: iterations.append(result.iterations)
        if name in ARRAY_ARGS:
            elems = self.construction_elems

            def count(args, result):
                if not isinstance(args[0], (float, int)):
                    elems[0] += int(np.size(args[0]))

            return count
        if name == "ioutil.write_text":
            out = self.bytes_out

            def written(args, result):
                out[0] += len(args[1].encode("utf-8"))

            return written
        return None

    def leaf(self, name: str, fn):
        self.leaf_calls[name] = 0
        self.leaf_s[name] = 0.0
        calls, secs, child = self.leaf_calls, self.leaf_s, self._child
        pc = time.perf_counter

        def wrapper(*args):
            t0 = pc()
            result = fn(*args)
            dt = pc() - t0
            child[-1] += dt
            calls[name] += 1
            secs[name] += dt
            return result

        return wrapper

    def boundary_leaf(self, fn):
        scalar, arrays, elems, secs = self.scalar_calls, self.array_calls, self.array_elems, self.boundary_s
        child, region = self._child, self._region
        pc = time.perf_counter

        def wrapper(spline, y):
            t0 = pc()
            result = fn(spline, y)
            dt = pc() - t0
            child[-1] += dt
            r = region[0]
            secs[r] += dt
            if isinstance(y, (float, int)):
                scalar[r] += 1
            else:
                arrays[r] += 1
                elems[r] += int(np.size(y))
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"striplex.{m}") for m in MODULES}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.leaf(name, fn) if name in LEAVES else self.span(name, fn)
                for holder in mods.values():
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, hattr, wrapped)
        spline_cls = mods["boundary"].BoundarySpline
        for meth in ("value", "derivative"):
            self._patch(spline_cls, meth, self.boundary_leaf(getattr(spline_cls, meth)))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    # -- results ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tdur_s\tself_s\n")
            for i, (p, c, s, d, own) in enumerate(zip(self.parent, self.code, self.start, self.dur, self.self_s)):
                fh.write(f"{i}\t{p}\t{self.names[c]}\t{s:.9f}\t{d:.9f}\t{own:.9f}\n")

    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far; wall_s is the
        traced wall time the spans are accounted against."""
        codes = np.frombuffer(self.code, dtype=np.int_) if len(self.code) else np.zeros(0, dtype=np.int_)
        dur = np.frombuffer(self.dur) if len(self.dur) else np.zeros(0)
        own = np.frombuffer(self.self_s) if len(self.self_s) else np.zeros(0)
        n = len(self.names)
        calls = np.bincount(codes, minlength=n)
        total = np.bincount(codes, weights=dur, minlength=n)
        self_total = np.bincount(codes, weights=own, minlength=n)
        index = {name: i for i, name in enumerate(self.names)}

        def by(name, arr):
            i = index.get(name)
            return float(arr[i]) if i is not None else 0.0

        def pct(name, q, scale):
            i = index.get(name)
            sel = dur[codes == i] if i is not None else dur[:0]
            return float(np.percentile(sel, q)) * scale if sel.size else 0.0

        layer_self = {layer: 0.0 for layer in LAYERS + ("cli",)}
        for name, i in index.items():
            layer_self[name.split(".", 1)[0]] += float(self_total[i])
        for name, secs in self.leaf_s.items():
            layer_self[name.split(".", 1)[0]] += secs
        layer_self["boundary"] += sum(self.boundary_s)

        iters = np.frombuffer(self.iterations, dtype=np.int_) if len(self.iterations) else np.zeros(0, dtype=np.int_)
        m: dict[str, tuple[float, str]] = {
            "boundary.scalar_calls": (sum(self.scalar_calls), "count"),
            "boundary.array_calls": (sum(self.array_calls), "count"),
            "boundary.array_elems": (sum(self.array_elems), "count"),
            "boundary.self_s": (layer_self["boundary"], "s"),
            "boundary.in_brute_s": (self.boundary_s[BRUTE], "s"),
            "params.admit_s": (by("params.admit", total), "s"),
            "params.self_s": (layer_self["params"], "s"),
            "construction.solve_calls": (int(by("construction.solve_contact", calls)), "count"),
            "construction.solve_self_s": (by("construction.solve_contact", self_total), "s"),
            "construction.solve_us_p50": (pct("construction.solve_contact", 50, 1e6), "us"),
            "construction.solve_us_p99": (pct("construction.solve_contact", 99, 1e6), "us"),
            "construction.iters_mean": (float(iters.mean()) if iters.size else 0.0, "iters"),
            "construction.iters_max": (int(iters.max()) if iters.size else 0, "iters"),
            "construction.array_elems": (self.construction_elems[0], "count"),
            "construction.self_s": (layer_self["construction"], "s"),
            "oracle.brute_calls": (int(by("oracle.brute_force_u", calls)), "count"),
            "oracle.brute_s": (by("oracle.brute_force_u", total), "s"),
            "oracle.brute_self_s": (by("oracle.brute_force_u", self_total), "s"),
            "oracle.brute_ms_p50": (pct("oracle.brute_force_u", 50, 1e3), "ms"),
            "oracle.brute_ms_p99": (pct("oracle.brute_force_u", 99, 1e3), "ms"),
            "oracle.scan_elems": (self.array_elems[BRUTE], "count"),
            "oracle.refine_evals": (self.scalar_calls[BRUTE], "count"),
            "oracle.mw_calls": (int(by("oracle.mw_envelopes", calls)), "count"),
            "oracle.mw_self_s": (by("oracle.mw_envelopes", self_total), "s"),
            "oracle.mw_elems": (self.array_elems[MW], "count"),
            "oracle.export_s": (by("oracle.grid_to_csv", total) + by("oracle.grid_to_structured", total), "s"),
            "oracle.self_s": (layer_self["oracle"], "s"),
            "analysis.calls": (int(sum(calls[i] for name, i in index.items() if name.startswith("analysis."))), "count"),
            "analysis.self_s": (layer_self["analysis"], "s"),
        }
        for fn_name, check in CHECK_NAMES.items():
            m[f"verify.{check}_s"] = (by(f"verify.{fn_name}", total), "s")
        m["verify.self_s"] = (layer_self["verify"], "s")
        m["cli.self_s"] = (layer_self["cli"], "s")
        m["cli.bytes_out"] = (self.bytes_out[0], "bytes")
        m["ioutil.write_s"] = (by("ioutil.write_text", total), "s")
        m["ioutil.fmt_calls"] = (self.leaf_calls.get("ioutil.fmt_real", 0), "count")
        m["ioutil.self_s"] = (layer_self["ioutil"], "s")
        m["trace_spans"] = (len(self.dur), "count")
        m["unattributed_s"] = (wall_s - sum(layer_self.values()), "s")
        return m
