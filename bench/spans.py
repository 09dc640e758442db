"""Spans around the public functions of each partrans module.

The tracer replaces each listed function by a wrapper that records a span
(name, start, end, parent span, op) in flat arrays, and rebinds every name
under which a partrans module imported the original, so calls between
modules are caught too. Methods and the CurveModel.identity_name property
are wrapped on their class. JacobianElement constructions are counted
without spans: there are thousands per op. Spans are recorded only while
an op runs, never during the benchmark's own checks.
"""

import functools
import json
import sys
import time
from array import array

# layer -> public functions timed as spans
LAYERS = {
    "picard": ["lincomb", "pullback", "of_divisor", "apply_jac_aut", "divide_by_r"],
    "curve": ["compose_autos", "inverse_auto", "find_entry", "load_config", "validate_model"],
    "intmat": ["mat_vec", "mat_mul", "det_int", "inverse_unimodular", "solve_integer_system"],
    "transform": [
        "normalize_word", "compose", "inverse", "act_det", "act_weights", "act_invariant",
        "stabilizer_xi", "t_d_quotient_reps", "stabilizer_d_alpha_quotient",
    ],
    "weights": ["is_generic", "chamber_fingerprint", "same_chamber", "hecke_weights", "dual_weights"],
    "extended": ["compose_ext", "ext_inverse", "act_ext", "automorphism_group_report"],
    "dsl": ["parse_expression", "evaluate", "format_canonical", "divisor_form"],
    "classify": [
        "curves_isomorphic", "torelli_3birational", "bridge_transformation", "verify_decomposition",
    ],
}
CURVE_METHODS = ("compose_autos", "inverse_auto", "find_entry")
# a span whose calls are a metric and whose time is kept for the span file
IDENTITY = "curve.identity_name"
CONSTRUCTED = "picard.JacobianElement.constructed"
# measured over the traced set-up (op 0) of the library workloads
SETUP_SPANS = ("curve.load_config", "curve.validate_model")
CLI_SUBCOMMANDS = (
    "normalize", "compose", "act", "weights", "stabilizer", "aut-report", "torelli", "bridge", "verify",
)


def timed_names():
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def per_layer_spec():
    """(name, unit) of every per-layer metric, in a fixed order."""
    out = []
    for name in timed_names():
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_ms", "ms"))
    out.append((f"{IDENTITY}.calls", "count"))
    out.append((CONSTRUCTED, "count"))
    out += [(f"cli.{sub}.wall_ms", "ms") for sub in CLI_SUBCOMMANDS]
    return out


class Tracer:
    def __init__(self):
        self.names = timed_names() + [IDENTITY]
        self.name_a = array("i")
        self.parent_a = array("i")
        self.op_a = array("i")
        self.start_a = array("q")
        self.end_a = array("q")
        self.stack = []
        self.active = False
        self.op = 0
        self.labels = ["set-up"]  # op index -> "<op kind>@<model>"
        self.constructed = 0

    def begin_op(self, label):
        self.labels.append(label)
        self.op = len(self.labels) - 1
        self.active = True

    def end_op(self):
        self.active = False

    def _wrap(self, nid, fn):
        names, parents, ops = self.name_a, self.parent_a, self.op_a
        starts, ends, stack = self.start_a, self.end_a, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def install(self):
        """Wrap every listed function of the loaded partrans modules in place."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "partrans" or k.startswith("partrans."))]
        curve = sys.modules["partrans.curve"]
        picard = sys.modules["partrans.picard"]
        for nid, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            if name == IDENTITY:
                prop = curve.CurveModel.identity_name
                curve.CurveModel.identity_name = property(self._wrap(nid, prop.fget))
                continue
            if layer == "curve" and fn_name in CURVE_METHODS:
                cls = curve.CurveModel
                setattr(cls, fn_name, self._wrap(nid, getattr(cls, fn_name)))
                continue
            orig = getattr(sys.modules[f"partrans.{layer}"], fn_name)
            wrapped = self._wrap(nid, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

        tracer = self
        init = picard.JacobianElement.__init__

        def counted_init(self, coords):
            if tracer.active:
                tracer.constructed += 1
            init(self, coords)

        picard.JacobianElement.__init__ = counted_init

    def totals(self, setup):
        """Per span name: (calls, self time in ns), over the set-up spans
        (op 0) when `setup`, else over the op spans."""
        n = len(self.names)
        calls = [0] * n
        self_ns = [0] * n
        starts, ends, names, parents, ops = (
            self.start_a, self.end_a, self.name_a, self.parent_a, self.op_a)
        for i in range(len(starts)):
            if (ops[i] == 0) != setup:
                continue
            dur = ends[i] - starts[i]
            nid = names[i]
            calls[nid] += 1
            self_ns[nid] += dur
            p = parents[i]
            if p >= 0:
                self_ns[names[p]] -= dur
        return calls, self_ns

    def metrics(self, ops):
        """Per-op means of calls, self time and constructions.

        Where a set-up was traced, load_config and validate_model are
        reported per set-up instead: no library op loads a model.
        """
        calls, self_ns = self.totals(setup=False)
        setup_calls, setup_ns = self.totals(setup=True)
        out = {}
        for nid, name in enumerate(self.names):
            if name in SETUP_SPANS and setup_calls[nid]:
                c, t = setup_calls[nid], setup_ns[nid]
            else:
                c, t = calls[nid] / ops, self_ns[nid] / ops
            out[f"{name}.calls"] = c
            out[f"{name}.self_ms"] = t / 1e6
        out[CONSTRUCTED] = self.constructed / ops
        return out

    def dump(self, path):
        """Write the spans as JSON lines [name, start_ns, end_ns, parent, op]
        after one header line naming the fields and labelling every op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                                 "op_labels": self.labels}) + "\n")
            names = self.names
            for i in range(len(self.start_a)):
                fh.write('["%s",%d,%d,%d,%d]\n' % (
                    names[self.name_a[i]], self.start_a[i], self.end_a[i],
                    self.parent_a[i], self.op_a[i]))
