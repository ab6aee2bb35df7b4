"""In-memory spans around calls into each loglap module, and the per-layer
metrics computed from them.

`instrument` replaces the public functions listed in `LAYERS` with timing
wrappers wherever loglap (or the benchmark) holds a reference to them, so
calls between modules are traced too.  A span is `[name, start, end,
parent, op]`; a layer's self time is its spans' durations minus the time
their child spans cover.  Byte and flop counts are computed from array
shapes, not measured.
"""

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

SUBCOMMANDS = ("spectrum", "solve", "cauchy", "extract", "compare", "ucp",
               "recover", "gauge", "heatcheck")


def _basis_entries(args, kwargs, result):
    yield "models.basis_entries", result.size


def _gram_flops(args, kwargs, result):
    model, V = args[0], args[1]
    if not V.is_zero:
        yield "solver.gram_flops", 2 * model.nodes.shape[0] * model.total_dim ** 2


def _hankel_bytes(args, kwargs, result):
    J, channels = args[0].values.shape
    L = J // 2
    yield "extraction.hankel_bytes", 8 * channels * (J - L) * (L + 1)


def _ucp_bytes(args, kwargs, result):
    model = args[0]
    dim = int(model.block_offsets[result.truncation])
    rows = result.n_points * (2 if result.include_image else 1)
    yield "recovery.ucp_matrix_bytes", 8 * rows * dim


def _bytes_written(args, kwargs, result):
    path = kwargs.get("path", args[-1])
    yield "serialize.bytes_written", os.path.getsize(path)


# (module, function or Class.method, span name, counter)
LAYERS = [
    ("loglap.models", "build_model", "models.build", None),
    ("loglap.models", "SpectralModel.eigenfunction_values", "models.basis", _basis_entries),
    ("loglap.models", "interior_points", "models.points", None),
    ("loglap.solver", "make_source_basis", "solver.sources", None),
    ("loglap.solver", "assemble_potential_matrix", "solver.gram", _gram_flops),
    ("loglap.solver", "solve_schrodinger", "solver.solve", None),
    ("loglap.solver", "cauchy_record", "solver.record", None),
    ("loglap.extraction", "heat_trace_of_solution", "extraction.trace", None),
    ("loglap.extraction", "heat_trace_of_field", "extraction.trace", None),
    ("loglap.extraction", "extract_exponents", "extraction.fit", _hankel_bytes),
    ("loglap.extraction", "build_gelfand_data", "extraction.gelfand", None),
    ("loglap.extraction", "compare_gelfand", "extraction.compare", None),
    ("loglap.calculus", "heat_kernel", "calculus.kernel", None),
    ("loglap.calculus", "heat_kernel_matrix", "calculus.kernel", None),
    ("loglap.calculus", "grigoryan_check", "calculus.kernel", None),
    ("loglap.recovery", "ucp_nullspace_test", "recovery.ucp", _ucp_bytes),
    ("loglap.recovery", "recover_potential", "recovery.recover", None),
    ("loglap.recovery", "isometry_gauge_check", "recovery.gauge", None),
    ("loglap.config", "load_config", "config.load", None),
]
_WRITERS = ("dump_model", "dump_record", "dump_manifest", "dump_gelfand", "dump_report",
            "dump_solution", "trace_to_csv", "recovered_to_csv", "spectrum_to_csv",
            "match_report_to_csv", "solution_to_csv")
_READERS = ("load_model", "load_record", "load_manifest", "load_gelfand", "load_report",
            "load_solution", "trace_from_csv", "recovered_from_csv")
LAYERS += [("loglap.serialize", f, "serialize.write", _bytes_written) for f in _WRITERS]
LAYERS += [("loglap.serialize", f, "serialize.read", None) for f in _READERS]

# per-layer metrics: self times and span counts per op, computed counts per
# op, and CLI wall times per call
PER_OP_TIMES = ["models.build", "models.basis", "models.points", "solver.sources",
                "solver.gram", "solver.solve", "solver.record", "extraction.trace",
                "extraction.fit", "extraction.gelfand", "extraction.compare",
                "calculus.kernel", "recovery.ucp",
                "recovery.recover", "recovery.gauge", "config.load",
                "serialize.write", "serialize.read"]
PER_OP_CALLS = {"models.basis_calls": "models.basis", "solver.gram_calls": "solver.gram",
                "solver.solves": "solver.solve", "recovery.ucp_calls": "recovery.ucp"}
PER_OP_COUNTS = {"models.basis_entries": "count/op", "solver.gram_flops": "flop/op",
                 "extraction.hankel_bytes": "B/op", "recovery.ucp_matrix_bytes": "B/op",
                 "serialize.bytes_written": "B/op"}
PER_CALL_TIMES = ["cli.import"] + [f"cli.{sub}" for sub in SUBCOMMANDS]
COMPUTED = {"models.basis_bytes", "solver.gram_flops", "extraction.hankel_bytes",
            "recovery.ucp_matrix_bytes", "serialize.bytes_written"}


class Tracer:
    """Collects spans and computed counts in memory for one process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []

    def call(self, name, fn, args, kwargs, counter=None):
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            for key, value in counter(args, kwargs, result):
                self.counts[key] += int(value)
        return result

    def merge(self, spans, counts):
        """Add the spans and counts of a child process to the current op."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               self.op])
        for key, value in counts.items():
            self.counts[key] += value

    def self_times(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, calls = defaultdict(float), defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start - child[i]
            calls[name] += 1
        return total, calls


def _wrap(tracer, fn, name, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, counter)
    return traced


def instrument(tracer):
    """Route every listed function through `tracer`; returns an undo callable."""
    undo = []
    for module_name, qualname, name, counter in LAYERS:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, _wrap(tracer, orig, name, counter))
            undo.append((cls, attr, orig))
            continue
        orig = getattr(module, qualname)
        traced = _wrap(tracer, orig, name, counter)
        for holder in list(sys.modules.values()):
            if getattr(holder, "__name__", "").startswith("loglap") or \
                    getattr(holder, "_TRACE_TARGET", False):
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, attr, traced)
                        undo.append((holder, attr, orig))

    def restore():
        for holder, attr, orig in reversed(undo):
            setattr(holder, attr, orig)
    return restore


def layer_metrics(self_s, calls, counts, n_ops):
    """Per-layer metrics of traced loops from summed self times, span calls
    and computed counts: per op for the library layers, and mean wall time
    per call for the CLI layers."""
    per_op = max(n_ops, 1)
    out = {}
    for name in PER_OP_TIMES:
        out[f"{name}_s"] = (self_s.get(name, 0.0) / per_op, "s/op")
    for metric, span in PER_OP_CALLS.items():
        out[metric] = (calls.get(span, 0) / per_op, "count/op")
    for metric, unit in PER_OP_COUNTS.items():
        out[metric] = (counts.get(metric, 0) / per_op, unit)
    out["models.basis_bytes"] = (8 * counts.get("models.basis_entries", 0) / per_op, "B/op")
    for name in PER_CALL_TIMES:
        out[f"{name}_s"] = (self_s[name] / calls[name] if calls.get(name) else 0.0, "s")
    return out
