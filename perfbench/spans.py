"""Spans around the public functions of every cusp_ledger module.

The tracer wraps functions from outside: it rebinds every name under which
a function is reachable in the package (the defining module and each
`from ... import` binding), and restores the originals when it is removed.
Spans live in flat arrays in memory and are written out once, at the end.
A span records its name, start, end, parent span and op id; a layer's self
time is its spans' duration minus the part covered by their child spans.

A child covers more of its parent than its own duration: the wrapper's
bookkeeping and the result counters run outside the child's start and end.
The wrapper stamps that part too, and the rest of its cost (the call into the
wrapper and the return) is calibrated on an empty function, so neither lands
in the parent's self time.
"""

from __future__ import annotations

import functools
import gzip
import multiprocessing
import statistics
from array import array
from collections import Counter
from time import perf_counter_ns


# (layer, module, attribute path, counter name, counter taken from the result)
TRACED = (
    ("series.div", "series", "QSeries.__truediv__", "terms_out",
     lambda out: len(out.support())),
    ("series.div", "series", "QSeries.invert", "terms_out",
     lambda out: len(out.support())),
    ("series.mul", "series", "QSeries.__mul__", "terms_out",
     lambda out: len(out.support())),
    ("series.pow", "series", "QSeries.__pow__", None, None),
    ("series.slice", "series", "QSeries.progression_slice", None, None),
    ("series.u", "series", "QSeries.u_operator", None, None),
    ("series.pentagonal", "series", "pochhammer_expansion", None, None),
    ("eta.expand_inf", "eta", "expand_at_infinity", None, None),
    ("eta.expand_zero", "eta", "expand_at_zero", None, None),
    ("eta.validate", "eta", "validate_on_gamma0", "valid",
     lambda out: int(out.valid)),
    ("eta.order", "eta", "order_at_cusp", None, None),
    ("eta.search", "eta", "search_eta_quotients", "found", len),
    ("families.coeff_series", "families", "coefficient_series", None, None),
    ("families.verify", "families", "verify_congruence", "qualifying",
     lambda out: out.qualifying_count),
    ("families.tower_direct", "families", "tower_series_direct", None, None),
    ("families.tower_recursive", "families", "tower_series_recursive",
     None, None),
    ("families.pochhammer", "families", "PochhammerProduct.expand",
     None, None),
    ("families.certify", "families", "certified_identity_chart", None, None),
    ("families.basis_build", "families", "BasisEntry.build", None, None),
    ("families.catalog_load", "families", "catalog_load", None, None),
    ("reduction.reduce", "reduction", "reduce_module", "steps",
     lambda out: len(out.coeffs)),
    ("reduction.localize", "reduction", "localize_reduce", None, None),
    ("reduction.monomial", "reduction", "ModuleBasis.monomial", None, None),
    ("reduction.x_power", "reduction", "ModuleBasis.x_power", None, None),
    ("reduction.valuation_table", "reduction", "valuation_table", None, None),
    ("curves.profile", "curves", "curve_profile", None, None),
    ("curves.divisors", "curves", "divisors", None, None),
    ("cli.main", "cli", "main", None, None),
)

# per-layer metrics by layer; the order is the order of BENCHMARK.json
LAYER_KEYS = (
    ("series.div", ("calls", "self_s", "terms_out")),
    ("series.mul", ("calls", "self_s", "terms_out")),
    ("series.pow", ("calls", "self_s")),
    ("series.slice", ("calls", "self_s")),
    ("series.u", ("calls", "self_s")),
    ("series.pentagonal", ("calls", "self_s")),
    ("eta.expand_inf", ("calls", "self_s")),
    ("eta.expand_zero", ("calls", "self_s")),
    ("eta.validate", ("calls", "self_s", "valid_ratio")),
    ("eta.order", ("calls", "self_s")),
    ("eta.search", ("calls", "self_s", "found")),
    ("families.coeff_series", ("calls", "self_s")),
    ("families.verify", ("calls", "self_s", "qualifying")),
    ("families.tower_direct", ("calls", "self_s")),
    ("families.tower_recursive", ("calls", "self_s")),
    ("families.pochhammer", ("calls", "self_s")),
    ("families.certify", ("calls", "self_s")),
    ("families.basis_build", ("calls", "self_s")),
    ("families.catalog_load", ("calls", "self_s")),
    ("reduction.reduce", ("calls", "self_s", "steps")),
    ("reduction.localize", ("calls", "self_s")),
    ("reduction.monomial", ("calls", "self_s")),
    ("reduction.x_power", ("calls",)),
    ("reduction.valuation_table", ("calls", "self_s")),
    ("curves.profile", ("calls", "self_s")),
    ("curves.divisors", ("calls",)),
    ("cli.main", ("calls", "self_s")),
    ("cli.pool", ("calls", "wait_s")),
)
UNITS = {"self_s": "s", "wait_s": "s", "valid_ratio": "ratio"}
METRICS = [(f"{layer}.{key}", UNITS.get(key, "count"))
           for layer, keys in LAYER_KEYS for key in keys]
METRICS += [("cli.json_bytes", "bytes"), ("trace.overhead_ratio", "ratio")]


class Tracer:
    """Collects spans and result counters for one traced batch."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("q")  # the wrapper's whole cost, 0 if unknown
        self.current = -1       # innermost open span
        self.op_id = -1         # index of the op being run
        self.counters: Counter = Counter()
        self.residual_ns = 0.0  # per call, set by calibrate()

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0)
        self.outer.append(0)
        self.current = sid
        self.start.append(perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self.current = self.parent[sid]

    def wrap(self, layer, fn, counter=None, count=None):
        key = f"{layer}.{counter}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter_ns()
            sid = self.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                self.counters[key] += count(out)
            self.outer[sid] = perf_counter_ns() - enter
            return out
        return traced

    def calibrate(self, calls: int = 20000, trials: int = 5) -> None:
        """Measure the cost of a wrapper call that its own stamps miss, as
        the median over `trials` loops of `calls` calls of an empty function."""
        probe = Tracer()
        empty = probe.wrap("probe", lambda: None)
        residuals = []
        for _ in range(trials):
            t = perf_counter_ns()
            for _ in range(calls):
                pass
            loop = perf_counter_ns() - t
            first = len(probe.outer)
            t = perf_counter_ns()
            for _ in range(calls):
                empty()
            total = perf_counter_ns() - t
            covered = sum(probe.outer[first:])
            residuals.append((total - loop - covered) / calls)
        self.residual_ns = max(0.0, statistics.median(residuals))

    def install(self, package) -> callable:
        """Wrap every traced function wherever the package binds it;
        return a function that puts the originals back."""
        modules = [package] + [getattr(package, m) for m in
                               ("series", "curves", "eta", "reduction",
                                "families", "cli")]
        undo = []

        def rebind(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        def remove():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        for layer, module, path, counter, count in TRACED:
            owner = getattr(package, module)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = owner.__dict__[attr]
            wrapped = self.wrap(layer, original, counter, count)
            holders = [owner] if cls else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        rebind(holder, name, wrapped)
        rebind(package.cli, "ProcessPoolExecutor",
               _traced_pool(self, package.cli.ProcessPoolExecutor, remove))
        return remove

    def layer_totals(self) -> tuple[Counter, Counter]:
        """(calls, self nanoseconds) per span name; a pool span's self time
        is the whole time the parent waited on its workers.  A child covers
        its wrapper's stamped cost plus the calibrated residual."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += (self.outer[i] or self.end[i] - self.start[i]) \
                    + self.residual_ns
        calls, self_ns = Counter(), Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_ns[name] += self.end[i] - self.start[i] - child[i]
        return calls, self_ns

    def dump(self, path) -> None:
        """Write the spans as tab-separated lines, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\touter_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t"
                         f"{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.outer[i]}\n")


def _traced_pool(tracer: Tracer, base, untrace):
    """A ProcessPoolExecutor whose `with` block is one cli.pool span, timed
    in the parent: the time spent waiting for the workers.  Forked workers
    inherit the wrappers, whose spans would be lost, so they remove them."""

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            if multiprocessing.get_start_method() == "fork":
                kwargs["initializer"] = untrace
            super().__init__(*args, **kwargs)

        def __enter__(self):
            self._span = tracer.open("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    return TracedPool


def layer_metrics(tracer: Tracer, json_bytes: int,
                  overhead_ratio: float) -> dict[str, float]:
    calls, self_ns = tracer.layer_totals()
    values = {}
    for name, _unit in METRICS:
        layer, _, key = name.rpartition(".")
        if key == "calls":
            values[name] = calls[layer]
        elif key in ("self_s", "wait_s"):
            values[name] = self_ns[layer] / 1e9
        elif key == "valid_ratio":
            valid = tracer.counters[f"{layer}.valid"]
            values[name] = valid / calls[layer] if calls[layer] else 0.0
        elif name == "cli.json_bytes":
            values[name] = json_bytes
        elif name == "trace.overhead_ratio":
            values[name] = overhead_ratio
        else:
            values[name] = tracer.counters[name]
    return values
