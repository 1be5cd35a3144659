"""Per-layer tracer: wraps the public functions of each ``qwalk`` layer from
outside the package, so the program itself carries no tracing code.

A wrapped name is rebound in every module that holds it: ``transfer`` does
``from .spectral import prepare``, so patching ``qwalk.spectral`` alone would
record nothing.  Methods are patched on their class.

Each wrapped call adds to its key's count, inclusive time and self time (its
time minus the time of the wrapped calls it made).  Calls of hot functions
are only aggregated; every other call also keeps one span
``(id, parent, op, key, start, end)`` in memory, written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, name, key, hot): plain functions, rebound wherever imported
FUNCTIONS = (
    ("qwalk.spectral", "prepare", "spectral.prepare", False),
    ("qwalk.spectral", "adjacency", "spectral.adjacency", False),
    ("qwalk.spectral", "required_truncation", "spectral.truncation", False),
    ("qwalk.transfer", "check_pst", "transfer.query", False),
    ("qwalk.transfer", "search_pst", "transfer.query", False),
    ("qwalk.transfer", "pgst_witness", "transfer.query", False),
    ("qwalk.transfer", "sedentary_estimate", "transfer.query", False),
    ("qwalk.graphs", "degree_profile", "graphs.degree_profile", True),
    ("qwalk.experiments", "prufer_decode", "experiments.prufer", True),
    ("qwalk.experiments", "find_p5_limb", "experiments.find_limb", True),
    ("qwalk.twins", "detect_twin_structures", "twins.detect", False),
    ("qwalk.twins", "verify_twin_structure", "twins.verify", False),
    ("qwalk.partition", "coarsest_equitable", "partition.coarsest", False),
    ("qwalk.partition", "quotient", "partition.quotient", False),
) + tuple(
    ("qwalk.signed", name, "signed", False)
    for name in ("switch", "is_balanced", "is_antibalanced", "pairplus_transforms",
                 "compose_signed", "build_sign_vector")
) + tuple(
    ("qwalk.constructions", name, "constructions", False)
    for name in ("path_graph", "cycle_graph", "complete_graph", "blow_up",
                 "fiber_sum_state", "cayley", "one_sum", "rooted_product",
                 "named_gadget", "h2p_core", "flyswatter_core")
)

# (module, class, method, key, hot): patched on the class
METHODS = (
    ("qwalk.spectral", "SpectralDecomposition", "amplitude_curve", None, False),
    ("qwalk.spectral", "SpectralDecomposition", "of", "spectral.eigh", False),
    ("qwalk.spectral", "SpectralDecomposition", "unitary", "spectral.unitary", False),
    ("qwalk.graphs", "WeightedGraph", "__init__", "graphs.build", True),
    ("qwalk.graphs", "WeightedGraph", "neighbors", "graphs.neighbors", True),
    ("qwalk.twins", "TwinStructure", "validate", "twins.validate", True),
)

# per-layer metrics: name -> (unit, better)
LAYER_METRICS = {
    "spectral.curve_point_calls": ("count", "lower"),
    "spectral.curve_point_s": ("s", "lower"),
    "spectral.curve_proj_bytes": ("B", "lower"),
    "spectral.curve_grid_points": ("count", "lower"),
    "spectral.curve_grid_s": ("s", "lower"),
    "spectral.curve_grid_bytes": ("B", "lower"),
    "spectral.trunc_L_max": ("count", "lower"),
    "spectral.prepare_s": ("s", "lower"),
    "spectral.adjacency_s": ("s", "lower"),
    "spectral.eigh_calls": ("count", "lower"),
    "spectral.eigh_s": ("s", "lower"),
    "spectral.eigh_dim_max": ("count", "lower"),
    "spectral.eigh_dim3_sum": ("count", "lower"),
    "spectral.unitary_calls": ("count", "lower"),
    "spectral.unitary_s": ("s", "lower"),
    "transfer.queries": ("count", "lower"),
    "transfer.query_s": ("s", "lower"),
    "transfer.self_s": ("s", "lower"),
    "transfer.reports": ("count", "higher"),
    "transfer.evals_per_report": ("ratio", "lower"),
    "graphs.build_calls": ("count", "lower"),
    "graphs.build_s": ("s", "lower"),
    "graphs.neighbors_calls": ("count", "lower"),
    "graphs.neighbors_s": ("s", "lower"),
    "graphs.degree_profile_s": ("s", "lower"),
    "experiments.trees": ("count", "higher"),
    "experiments.hits": ("count", "higher"),
    "experiments.prufer_s": ("s", "lower"),
    "experiments.find_limb_s": ("s", "lower"),
    "twins.detect_s": ("s", "lower"),
    "twins.detect_results": ("count", "higher"),
    "twins.verify_s": ("s", "lower"),
    "twins.verify_self_s": ("s", "lower"),
    "twins.validate_calls": ("count", "lower"),
    "twins.validate_s": ("s", "lower"),
    "partition.coarsest_calls": ("count", "lower"),
    "partition.coarsest_s": ("s", "lower"),
    "partition.quotient_calls": ("count", "lower"),
    "partition.quotient_s": ("s", "lower"),
    "signed.calls": ("count", "lower"),
    "signed.s": ("s", "lower"),
    "constructions.s": ("s", "lower"),
    "reproduce.pool_speedup": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "run.cpu_over_wall": ("ratio", "higher"),
}


class Tracer:
    """Counts, inclusive and self time per key, and spans, while installed."""

    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counters: dict[str, float] = defaultdict(float)
        self.layer_time: dict[str, float] = defaultdict(float)  # outermost calls only
        self.spans: list = []
        self.op = -1                 # index of the op in progress
        self._stack: list[list] = []  # [child time, nearest span id] per open call
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, key, hot: bool, after=None, layer=None):
        """Wrap fn under `key`, or under key(args) when key is callable."""
        stack, stats, clock = self._stack, self.stats, time.perf_counter
        if hot:
            st = stats[key]

            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1] if stack else None]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    st[0] += 1
                    st[1] += dur
                    st[2] += dur - frame[0]
                if after is not None:
                    after(args, result)
                return result
            return hot_wrapper

        spans, depth, layer_time = self.spans, self._depth, self.layer_time
        key_of = key if callable(key) else (lambda args: key)
        layer = layer or key.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = key_of(args)
            parent = stack[-1][1] if stack else None
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled on return
            frame = [0.0, span_id]
            depth[layer] += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += dur
                if not depth[layer]:
                    layer_time[layer] += dur
                st = stats[k]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                spans[span_id] = (span_id, parent, self.op, k, start, end)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _curve_call(self, args) -> str:
        """Key of an amplitude_curve call: one-point or grid, by len(ts)."""
        _, u, _, ts = args
        points, dim = len(ts), len(u)
        if self._depth["transfer"]:
            self.counters["transfer.evals"] += points
        if points == 1:
            self.counters["spectral.curve_proj_bytes"] += 2 * 16 * dim * dim
            return "spectral.curve_point"
        self.counters["spectral.curve_grid_points"] += points
        self.counters["spectral.curve_grid_bytes"] += 16 * points * dim
        return "spectral.curve_grid"

    def _after(self, key: str):
        c = self.counters
        if key == "spectral.eigh":
            def after(args, result):
                dim = len(result.eigenvalues)
                c["spectral.eigh_dim_max"] = max(c["spectral.eigh_dim_max"], dim)
                c["spectral.eigh_dim3_sum"] += dim ** 3
        elif key == "spectral.truncation":
            def after(args, result):
                c["spectral.trunc_L_max"] = max(c["spectral.trunc_L_max"], result)
        elif key == "transfer.query":
            def after(args, result):
                c["transfer.reports"] += (len(result) if isinstance(result, list)
                                          else int(hasattr(result, "tau")))
        elif key == "twins.detect":
            def after(args, result):
                c["twins.detect_results"] += len(result)
        elif key == "experiments.find_limb":
            def after(args, result):
                c["experiments.hits"] += result is not None
        else:
            after = None
        return after

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function and method; rebind the wrapped names in
        each loaded ``qwalk`` module."""
        holders = [m for name, m in sys.modules.items()
                   if name == "qwalk" or name.startswith("qwalk.")]
        for modname, name, key, hot in FUNCTIONS:
            orig = getattr(sys.modules[modname], name)
            wrapped = self._wrap(orig, key, hot, self._after(key))
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, attr, wrapped)
                        self._undo.append((holder, attr, orig))
        for modname, clsname, name, key, hot in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, key, hot, self._after(key)))
            elif key is None:
                wrapped = self._wrap(raw, self._curve_call, hot, layer="spectral")
            else:
                wrapped = self._wrap(raw, key, hot, self._after(key))
            setattr(cls, name, wrapped)
            self._undo.append((cls, name, raw))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass values of the traced metrics (maxima are not divided)."""
        c = self.counters
        n = defaultdict(int, {k: v[0] for k, v in self.stats.items()})
        s = defaultdict(float, {k: v[1] for k, v in self.stats.items()})
        own = defaultdict(float, {k: v[2] for k, v in self.stats.items()})
        reports = c["transfer.reports"]
        totals = {
            "spectral.curve_point_calls": n["spectral.curve_point"],
            "spectral.curve_point_s": s["spectral.curve_point"],
            "spectral.curve_proj_bytes": c["spectral.curve_proj_bytes"],
            "spectral.curve_grid_points": c["spectral.curve_grid_points"],
            "spectral.curve_grid_s": s["spectral.curve_grid"],
            "spectral.curve_grid_bytes": c["spectral.curve_grid_bytes"],
            "spectral.prepare_s": s["spectral.prepare"],
            "spectral.adjacency_s": s["spectral.adjacency"],
            "spectral.eigh_calls": n["spectral.eigh"],
            "spectral.eigh_s": s["spectral.eigh"],
            "spectral.eigh_dim3_sum": c["spectral.eigh_dim3_sum"],
            "spectral.unitary_calls": n["spectral.unitary"],
            "spectral.unitary_s": s["spectral.unitary"],
            "transfer.queries": n["transfer.query"],
            "transfer.query_s": s["transfer.query"],
            "transfer.self_s": own["transfer.query"],
            "transfer.reports": reports,
            "graphs.build_calls": n["graphs.build"],
            "graphs.build_s": s["graphs.build"],
            "graphs.neighbors_calls": n["graphs.neighbors"],
            "graphs.neighbors_s": s["graphs.neighbors"],
            "graphs.degree_profile_s": s["graphs.degree_profile"],
            "experiments.trees": n["experiments.prufer"],
            "experiments.hits": c["experiments.hits"],
            "experiments.prufer_s": s["experiments.prufer"],
            "experiments.find_limb_s": s["experiments.find_limb"],
            "twins.detect_s": s["twins.detect"],
            "twins.detect_results": c["twins.detect_results"],
            "twins.verify_s": s["twins.verify"],
            "twins.verify_self_s": own["twins.verify"],
            "twins.validate_calls": n["twins.validate"],
            "twins.validate_s": s["twins.validate"],
            "partition.coarsest_calls": n["partition.coarsest"],
            "partition.coarsest_s": s["partition.coarsest"],
            "partition.quotient_calls": n["partition.quotient"],
            "partition.quotient_s": s["partition.quotient"],
            "signed.calls": n["signed"],
            "signed.s": self.layer_time["signed"],
            "constructions.s": self.layer_time["constructions"],
        }
        out = {k: v / passes for k, v in totals.items()}
        out["spectral.trunc_L_max"] = c["spectral.trunc_L_max"]
        out["spectral.eigh_dim_max"] = c["spectral.eigh_dim_max"]
        # curve points evaluated inside transfer queries per reported time;
        # 0 when the workload makes no reports
        out["transfer.evals_per_report"] = c["transfer.evals"] / reports if reports else 0.0
        return out

    def write_spans(self, path) -> int:
        """Write the recorded spans as JSON lines; returns how many."""
        with open(path, "w") as f:
            for span_id, parent, op, key, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                    "name": key, "start": start, "end": end}) + "\n")
        return len(self.spans)
