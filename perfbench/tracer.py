"""Span tracer for the kads benchmark, wrapped around the layers from outside.

``Tracer.install()`` replaces each traced function under every name a
``kads`` module looks it up by (``sklyanin`` and ``cli`` hold their own
``group_element``, ``ch``, ``sh``; ``liealg`` and ``rclass`` their own
``reduce_mod``), and each traced method on its class.  ``uninstall()``
puts the originals back.

A traced call is either

* a *span*: a record ``(id, name, start, end, parent span id, operation
  id, time in hot children, attributes)`` kept in memory and written out at
  the end of the run; or
* a *hot* call (exact-coefficient arithmetic, the curvature trig
  primitives), too frequent to record one by one: it is counted and timed
  per name, and its time is charged to the enclosing span.

Self time of a span is its duration minus its child spans and its hot
children; ``layer_metrics`` derives every per-layer number from the spans
of one pass.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict


def _nf_attrs(args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["p"]
    words = p.terms if hasattr(p, "terms") else p
    length = max((len(w) for w in words), default=0)
    dens = [c.den.total_degree() for c in result.terms.values()]
    return {"len": min(max(length, 2), 7), "den": max(dens, default=0),
            "terms": len(result.terms)}


def _mcybe_attrs(args, kwargs, result):
    from kads.liealg import is_exact
    r = args[1] if len(args) > 1 else kwargs["r"]
    return {"exact": all(is_exact(c) for c in r.components.values())}


def _verify_attrs(args, kwargs, result):
    return {"points": result["samples"]}


FRAC_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
            "__truediv__", "__neg__")
CURV_PRIMS = ("ct", "st", "ch", "sh", "tn", "sh_inv", "tn_inv")

# (span or hot-counter name, module, attribute or Class.method, hot, attrs)
TARGETS = (
    [("scalars.frac", "kads.scalars", f"Frac.{op}", True, None) for op in FRAC_OPS]
    + [("scalars.reduce_mod", "kads.scalars", "reduce_mod", False, None),
       ("scalars.poly_divmod", "kads.scalars", "poly_divmod", True, None),
       ("ncalg.normal_form", "kads.ncalg", "NCAlgebra.normal_form", False, _nf_attrs),
       ("ncalg.jacobi_certificate", "kads.ncalg", "NCAlgebra.jacobi_certificate", False, None),
       ("ncalg.certificates_json", "kads.ncalg", "NCAlgebra.certificates_json", False, None),
       ("ncalg.casimir_check", "kads.ncalg", "NCAlgebra.casimir_check", False, None),
       ("ncalg.flat_limits_ok", "kads.ncalg", "flat_limits_ok", False, None),
       ("ncalg.displayed_brackets_ok", "kads.ncalg", "displayed_brackets_ok", False, None),
       ("liealg.ads_algebra", "kads.liealg", "ads_algebra", False, None),
       ("liealg.rotate_basis", "kads.liealg", "rotate_basis", False, None),
       ("bialgebra.mcybe_residual", "kads.bialgebra", "mcybe_residual", False, _mcybe_attrs),
       ("bialgebra.mcybe_residual_components", "kads.bialgebra",
        "mcybe_residual_components", False, None),
       ("bialgebra.schouten", "kads.bialgebra", "schouten", False, None),
       ("bialgebra.cocommutator", "kads.bialgebra", "cocommutator", False, None),
       ("rclass.numeric_family_residual", "kads.rclass", "numeric_family_residual", False, None),
       ("rclass.canonicalize", "kads.rclass", "canonicalize", False, None),
       ("rclass.constraint_residuals", "kads.rclass", "constraint_residuals", False, None),
       ("rclass.impose_primitivity", "kads.rclass", "impose_primitivity", False, None)]
    + [("curvtrig.prim", "kads.curvtrig", p, True, None) for p in CURV_PRIMS]
    + [("group_geom.group_element", "kads.group_geom", "group_element", False, None),
       ("group_geom.coset_derivatives", "kads.group_geom", "coset_derivatives", False, None),
       ("group_geom.ambient_derivatives", "kads.group_geom", "ambient_derivatives", False, None),
       ("group_geom.metric_pullback", "kads.group_geom", "metric_pullback", False, None),
       ("sklyanin.verify_table", "kads.sklyanin", "verify_table", False, _verify_attrs),
       ("sklyanin.bracket_matrix", "kads.sklyanin", "bracket_matrix_local", False, None),
       ("sklyanin.bracket_matrix", "kads.sklyanin", "bracket_matrix_ambient", False, None),
       ("sklyanin.table_jacobi_residual", "kads.sklyanin", "table_jacobi_residual", False, None),
       ("cli.main", "kads.cli", "main", False, None)]
    + [("cli.suite", "kads.cli", f"cmd_{s}", False, None)
       for s in ("bialgebra", "classify", "poisson", "nc", "export")]
)

LAYERS = ("scalars", "ncalg", "liealg", "bialgebra", "rclass", "curvtrig",
          "group_geom", "sklyanin", "cli")

# every per-layer metric, in report order: (name, unit, better)
_TIMED = ("liealg.ads_algebra", "liealg.rotate_basis", "bialgebra.mcybe_residual.float",
          "bialgebra.mcybe_residual.exact", "bialgebra.mcybe_residual_components",
          "bialgebra.schouten", "bialgebra.cocommutator",
          "rclass.numeric_family_residual", "rclass.canonicalize",
          "rclass.constraint_residuals", "rclass.impose_primitivity",
          "group_geom.group_element", "group_geom.coset_derivatives",
          "group_geom.ambient_derivatives", "group_geom.metric_pullback",
          "sklyanin.verify_table", "sklyanin.bracket_matrix",
          "sklyanin.table_jacobi_residual", "scalars.reduce_mod",
          "ncalg.normal_form", "ncalg.jacobi_certificate", "ncalg.certificates_json",
          "ncalg.casimir_check")
NF_LENGTHS = tuple(range(2, 8))
METRICS = (
    [("scalars.frac_ops", "count", "lower"), ("scalars.frac_s", "s", "lower"),
     ("scalars.poly_divmod.calls", "count", "lower"), ("curvtrig.prim_calls", "count", "lower"),
     ("curvtrig.prim_s", "s", "lower")]
    + [(f"{n}.{k}", u, "lower") for n in _TIMED for k, u in (("calls", "count"), ("s", "s"))]
    + [(f"ncalg.normal_form.len{n}.{k}", u, "lower") for n in NF_LENGTHS
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("ncalg.max_den_degree", "count", "lower"), ("ncalg.result_terms", "count", "lower"),
       ("sklyanin.verify_table.points", "count", "higher"),
       ("cli.main.calls", "count", "lower"), ("cli.main.self_s", "s", "lower")]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("trace.spans", "count", "lower"), ("trace.overhead_pct", "%", "lower")]
)


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Installs the wrappers and keeps the spans of each traced pass."""

    def __init__(self):
        self.names = sorted({t[0] for t in TARGETS})
        self.nid = {n: i for i, n in enumerate(self.names)}
        self.hot = {t[0] for t in TARGETS if t[3]}
        self.patches = []       # (owner, attribute or key, original, wrapper)
        self.missing = []
        self.op = -1
        self._next_id = 0
        self.reset()

    def reset(self):
        """Start a new pass: clear spans and hot counters."""
        self.spans = []
        self.stack = [[-1, 0.0, 0.0]]   # [span id, hot child time, child span time]
        n = len(self.names)
        self.hot_calls = [0] * n
        self.hot_self = [0.0] * n

    # -- wrappers --------------------------------------------------------------

    def _span_wrapper(self, fn, nid, attrs):
        tr = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tr.stack
            parent = stack[-1]
            sid = tr._next_id
            tr._next_id = sid + 1
            frame = [sid, 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                parent[2] += t1 - t0
                tr.spans.append((sid, nid, t0, t1, parent[0], tr.op, frame[1],
                                 {"error": True}))
                raise
            t1 = clock()
            stack.pop()
            parent[2] += t1 - t0
            extra = attrs(args, kwargs, result) if attrs is not None else None
            tr.spans.append((sid, nid, t0, t1, parent[0], tr.op, frame[1], extra))
            return result

        return traced

    def _hot_wrapper(self, fn, nid):
        tr = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tr.stack
            frame = [None, 0.0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                stack[-1][1] += d
                tr.hot_calls[nid] += 1
                tr.hot_self[nid] += d - frame[1] - frame[2]

        return traced

    # -- patching --------------------------------------------------------------

    def install(self):
        if self.patches:
            return
        owners = {modname: importlib.import_module(modname) for _, modname, *_ in TARGETS}
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "kads" or k.startswith("kads."))]
        self.missing = []
        for name, modname, attr, hot, attrs in TARGETS:
            nid = self.nid[name]
            owner = owners[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                fn = vars(cls).get(meth) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                wrapper = self._hot_wrapper(fn, nid) if hot else self._span_wrapper(fn, nid, attrs)
                self.patches.append((cls, meth, fn, wrapper))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._hot_wrapper(fn, nid) if hot else self._span_wrapper(fn, nid, attrs)
            # patch the name wherever a caller looks the function up: module
            # globals and module-level tables such as cli.COMMANDS
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self.patches.append((mod, key, fn, wrapper))
                    elif isinstance(val, dict):
                        self.patches.extend((val, k, fn, wrapper)
                                            for k, v in val.items() if v is fn)
        for owner, key, _, wrapper in self.patches:
            _assign(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in reversed(self.patches):
            _assign(owner, key, original)
        self.patches = []

    # -- derived numbers -------------------------------------------------------

    def layer_metrics(self) -> tuple:
        """Per-layer metrics of the current pass, and the self-check counts."""
        spans = self.spans
        child = defaultdict(float)
        for _, _, t0, t1, parent, *_ in spans:
            child[parent] += t1 - t0
        out = defaultdict(float)
        checks = defaultdict(int)
        layer_self = defaultdict(float)
        for sid, nid, t0, t1, parent, op, hot_s, extra in spans:
            name = self.names[nid]
            dur = t1 - t0
            self_s = dur - child[sid] - hot_s
            layer_self[name.split(".")[0]] += self_s
            key = name
            if name == "bialgebra.mcybe_residual":
                key = f"{name}.{'exact' if extra and extra.get('exact') else 'float'}"
            out[f"{key}.calls"] += 1
            out[f"{key}.s"] += dur
            if name == "ncalg.normal_form" and extra and "len" in extra:
                out[f"{name}.len{extra['len']}.calls"] += 1
                out[f"{name}.len{extra['len']}.s"] += dur
                out["ncalg.max_den_degree"] = max(out["ncalg.max_den_degree"], extra["den"])
                out["ncalg.result_terms"] += extra["terms"]
                if parent == -1:
                    checks["ncalg.normal_form.top"] += 1
            elif name == "sklyanin.verify_table" and extra and "points" in extra:
                out["sklyanin.verify_table.points"] += extra["points"]
            elif name == "cli.main":
                out["cli.main.self_s"] += self_s
        for name in self.hot:
            nid = self.nid[name]
            layer_self[name.split(".")[0]] += self.hot_self[nid]
        frac = self.nid["scalars.frac"]
        out["scalars.frac_ops"] = self.hot_calls[frac]
        out["scalars.frac_s"] = self.hot_self[frac]
        out["scalars.poly_divmod.calls"] = self.hot_calls[self.nid["scalars.poly_divmod"]]
        prim = self.nid["curvtrig.prim"]
        out["curvtrig.prim_calls"] = self.hot_calls[prim]
        out["curvtrig.prim_s"] = self.hot_self[prim]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.spans"] = len(spans)
        for key in ("cli.main.calls", "sklyanin.verify_table.points",
                    "rclass.numeric_family_residual.calls"):
            checks[key] = int(out.get(key, 0))
        metrics = {name: int(out.get(name, 0)) if unit == "count" else out.get(name, 0.0)
                   for name, unit, _ in METRICS}
        return metrics, dict(checks)

    def dump(self, fh, pass_no: int, spans):
        """Write the spans of one traced pass as JSON lines."""
        for sid, nid, t0, t1, parent, op, hot_s, extra in spans:
            rec = {"pass": pass_no, "id": sid, "name": self.names[nid], "start": t0, "end": t1,
                   "parent": parent, "op": op, "hot_s": hot_s}
            if extra:
                rec.update(extra)
            fh.write(json.dumps(rec) + "\n")
