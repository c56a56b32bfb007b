"""Spans around the public functions of each layer of toricomplex.

Only the traced pass installs these wrappers; end-to-end numbers come
from passes that never import this module.  A layer is one module of the
package.  Each public function of a layer is wrapped in every module
namespace that binds it, so calls between modules and inside a module
(which go through module globals) are both seen, and each span records
the namespace it was called through.  Spans stay in memory and are
written out when the pass ends.
"""

import gzip
import importlib
import inspect
import json
import threading
from time import perf_counter

LAYERS = ("lattice", "fan", "divisor", "pairmodel", "complexity",
          "adjunction", "birational", "conecox", "cli")

# Small integer helpers called from the inner loops of the other lattice
# functions.  A wrapper would cost more than the work they do, so their
# time counts toward the function that calls them.
UNWRAPPED = {"lattice": {"identity_matrix", "mat_mul", "mat_vec", "vec_dot",
                         "transpose", "vec_gcd", "primitive_vector",
                         "is_primitive"}}

# Functions whose distinct fan arguments are recorded for redundant_ratio.
KEYED = ("fan.validate_fan", "divisor.class_group")

# (function, namespace it is called through) pairs counted on their own:
# rank_q bound in complexity is the grouping search's leaf rank.
VIA = (("lattice.rank_q", "complexity"),)


def _fan_key(fan):
    return (fan.rank, fan.rays, fan.max_cones)


class Tracer:
    """Collects spans [name, site, op, parent, start, end] in memory."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.fan_keys = {name: set() for name in KEYED}
        self._local = threading.local()
        self._lock = threading.Lock()  # check suite runs a thread pool
        self._root = -1  # outermost open span of the main thread

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, site, fn):
        spans = self.spans
        keys = self.fan_keys.get(name)

        def traced(*args, **kwargs):
            stack = self._stack()
            if keys is not None:
                keys.add(_fan_key(args[0]))
            span = [name, site, self.op, -1, 0.0, 0.0]
            with self._lock:
                index = len(spans)
                spans.append(span)
            if stack:
                span[3] = stack[-1]
            elif threading.current_thread() is threading.main_thread():
                self._root = index
            else:
                # a worker thread's first span was caused by the main
                # thread's open span
                span[3] = self._root
            stack.append(index)
            span[4] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap every public function of every layer, in every namespace."""
        package = importlib.import_module("toricomplex")
        modules = {layer: importlib.import_module(f"toricomplex.{layer}")
                   for layer in LAYERS}
        names = {}
        for layer, mod in modules.items():
            skip = UNWRAPPED.get(layer, set())
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in skip):
                    names[obj] = f"{layer}.{attr}"
        for site, ns in [("toricomplex", package)] + list(modules.items()):
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in names:
                    setattr(ns, attr, self.wrap(names[obj], site, obj))
        return modules

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i] + span) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(tracer, factors):
    """Per-function and per-layer calls and self time, each span's time
    multiplied by ``factors[op]`` of the op it belongs to.

    A span's self time is its duration minus the part of it that its
    child spans cover; children on worker threads may overlap, so the
    covered part is a union of intervals.  ``charged`` is the self time
    per layer with each lattice span charged to the nearest calling
    layer that is not lattice.
    """
    spans = tracer.spans
    children = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[4], span[5]))
    funcs = {}
    layers = {layer: 0.0 for layer in LAYERS}
    charged = {layer: 0.0 for layer in LAYERS}
    payer = []  # layer charged with each span's self time
    via = {key: 0 for key in VIA}
    for i, (name, site, op, parent, start, end) in enumerate(spans):
        own = ((end - start) - _covered(children.get(i, ()))) * factors[op]
        entry = funcs.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += own
        layer = name.partition(".")[0]
        layers[layer] += own
        # lattice kernels are charged to the layer that called them; a
        # parent always precedes its children in the list
        if layer == "lattice" and parent >= 0:
            layer = payer[parent]
        payer.append(layer)
        charged[layer] += own
        if (name, site) in via:
            via[name, site] += 1
    distinct = {name: len(keys) for name, keys in tracer.fan_keys.items()}
    return {"funcs": funcs, "layers": layers, "charged": charged,
            "distinct_fans": distinct,
            "via": {f"{name}@{site}": n for (name, site), n in via.items()},
            "spans": len(spans)}
