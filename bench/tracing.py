"""Spans and counters for the traced run, recorded from outside dqkin.

``Tracer.install`` replaces each traced function of a dqkin module with a
wrapper, at every place a caller binds it: the defining module and every
module that imported it by name (``dyads.common_lines``,
``transforms.verify_admissible``, ``quadrecon.join`` ...).  Methods are
replaced on their class.  A wrapper records a span (name, binding site,
parent span, start, end) in memory; ``uninstall`` puts every original
back.  Scalar arithmetic is only counted: a span per scalar operation
would cost more than the operation.

Untraced runs never call ``install``.
"""

import inspect
import json
import time

# Layers in dependency order; each traced module-level public function of
# these modules gets a span, plus the methods below.
LAYERS = ("quaternions", "linalg", "polys", "projgeom", "quadrics", "transforms",
          "dyads", "motions", "quadrecon", "jsonio", "cli")

METHODS = {
    "quaternions": {"Quaternion": ("__mul__", "__rmul__"),
                    "DualQuaternion": ("__mul__", "__rmul__")},
    "linalg": {"Matrix": ("__mul__", "apply", "transpose")},
    "polys": {"Poly": ("__mul__",)},
    "projgeom": {"Subspace": ("from_rows", "contains", "lift", "chart_coords"),
                 "ProjPoint": ("__eq__",)},
    "quadrics": {"QuadricForm": ("polar",)},
    "quadrecon": {"ProjectionCycle": ("spaces",)},
}

# The float tier of common_lines has no public entry point; this private
# helper is where it starts, so it is traced too.
PRIVATE = {"quadrics": ("_float_member_grams",)}

SCALAR_WORKERS = ("_add", "_sub", "_mul", "_div", "__neg__")


class Tracer:
    def __init__(self, dq):
        self.dq = dq
        self.spans = []
        self.stack = []
        self.counts = {"exact_ops": 0, "float_ops": 0, "dq_products": 0, "approx_lines": 0}
        self._undo = []

    # --- wrappers -------------------------------------------------------

    def _span(self, fn, name, site, post=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (name, site, parent, t0, t1)
            if post is not None:
                post(args, out)
            return out

        return wrapper

    def _counter(self, fn, key):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_op(self, op):
        """``op`` with a root span named after each item's kind."""
        by_kind = {}

        def traced(item):
            wrapped = by_kind.get(item.kind)
            if wrapped is None:
                wrapped = by_kind[item.kind] = self._span(op, "op." + item.kind, "bench")
            return wrapped(item)

        return traced

    # --- install / uninstall ----------------------------------------------

    def install(self):
        dq = self.dq
        modules = {name: getattr(dq, name) for name in LAYERS}
        sites = dict(modules, dqkin=dq)
        for layer, mod in modules.items():
            names = [n for n, f in vars(mod).items()
                     if inspect.isfunction(f) and f.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += PRIVATE.get(layer, ())
            for n in names:
                fn = getattr(mod, n)
                post = self._count_approx if (layer, n) == ("quadrics", "common_lines") else None
                for site_name, site in sites.items():
                    for attr, value in list(vars(site).items()):
                        if value is fn:
                            self._set(site, attr, self._span(fn, "%s.%s" % (layer, n),
                                                             site_name, post))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    raw = cls.__dict__[m]
                    name = "%s.%s.%s" % (layer, cls_name, m)
                    if isinstance(raw, staticmethod):
                        self._set(cls, m, staticmethod(self._span(raw.__func__, name, layer)))
                    else:
                        self._set(cls, m, self._span(raw, name, layer))
        dqmul = dq.quaternions.DualQuaternion.__dict__["__mul__"]
        self._set(dq.quaternions.DualQuaternion, "__mul__", self._count_dq(dqmul))
        sc = dq.scalars
        for cls, key in ((sc.ExactRational, "exact_ops"), (sc.GaussianRational, "exact_ops"),
                         (sc.ComplexFloat, "float_ops")):
            for m in SCALAR_WORKERS:
                self._set(cls, m, self._counter(cls.__dict__[m], key))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _count_approx(self, args, lines):
        self.counts["approx_lines"] += sum(1 for line in lines if line.approx)

    def _count_dq(self, fn):
        counts, DualQuaternion = self.counts, self.dq.quaternions.DualQuaternion

        def wrapper(a, b):
            if isinstance(b, DualQuaternion):
                counts["dq_products"] += 1
            return fn(a, b)

        return wrapper

    # --- reading the spans -------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, site, parent, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "site": site, "parent": parent,
                                     "start": t0, "end": t1}) + "\n")

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, site, parent, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, site, parent, t0, t1) in enumerate(spans):
            s = out.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t1 - t0 - child[i]
        return out

    def calls_under(self, name, ancestor, site=None):
        """Calls of ``name`` (bound at ``site``) made inside an ``ancestor`` call."""
        spans = self.spans
        n = 0
        for sname, ssite, parent, _, _ in spans:
            if sname != name or (site is not None and ssite != site):
                continue
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][2]
            n += parent >= 0
        return n
