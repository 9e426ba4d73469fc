"""Timing wrappers for the traced run, installed from outside the program.

``Tracer.install`` replaces each traced public function under every name a
seidelkit module looks it up by (``theory.charpoly_exact``,
``cli.certify`` and so on), so calls between layers pass through the
wrapper.  The wrappers keep a span stack: a span's self time is its
duration minus the time spent in the spans it opened.  Counters are taken
at the same boundaries, after the wrapped call returns.
"""

import hashlib
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _sym_eigenvalues(tracer, args, result):
    mats = np.asarray(args[0])
    n = mats.shape[-1]
    mats = mats.reshape(-1, n, n)
    tracer.counts["spectral.sym_eigenvalues.matrices"] += len(mats)
    tracer.counts["spectral.sym_eigenvalues.dim3_sum"] += len(mats) * n ** 3
    for mat in mats:
        tracer.sym_inputs.add(hashlib.sha256(
            f"{mat.dtype.str}{mat.shape}".encode()
            + np.ascontiguousarray(mat).tobytes()).digest())


def _charpoly_exact(tracer, args, result):
    tracer.counts["spectral.charpoly_exact.dim_sum"] += np.asarray(args[0]).shape[0]


def _construct(tracer, args, result):
    tracer.counts["graphs.construct_order_sum"] += result.n


def _hypothesis(tracer, args, result):
    tracer.counts["theory.bound_met"] += bool(result.bound_met())


# (module, function, span label, counter hook)
TRACED = [
    ("seidelkit.cli", "run", "cli.run", None),
    ("seidelkit.search", "scan_stream", "search.scan_stream", None),
    ("seidelkit.search", "write_report", "search.write_report", None),
    ("seidelkit.theory", "certify", "theory.certify", None),
    ("seidelkit.theory", "hypothesis_from_spectrum",
     "theory.hypothesis_from_spectrum", _hypothesis),
    ("seidelkit.theory", "blowup_seidel_spectrum", "theory.closed_form", None),
    ("seidelkit.theory", "clique_blowup_seidel_spectrum", "theory.closed_form",
     None),
    ("seidelkit.theory", "composed_blowup_seidel_spectra", "theory.closed_form",
     None),
    ("seidelkit.spectral", "sym_eigenvalues", "spectral.sym_eigenvalues",
     _sym_eigenvalues),
    ("seidelkit.spectral", "charpoly_exact", "spectral.charpoly_exact",
     _charpoly_exact),
    ("seidelkit.spectral", "integer_root_multiplicity",
     "spectral.integer_root_multiplicity", None),
    ("seidelkit.graphs", "graph_from_graph6", "graphs.graph_from_graph6", None),
    ("seidelkit.graphs", "blowup", "graphs.blowup", _construct),
    ("seidelkit.graphs", "clique_blowup", "graphs.clique_blowup", _construct),
]


class Tracer:
    """Span stack, per-label call counts, self and wall time, and counters."""

    def __init__(self):
        self.stack = []  # child seconds accumulated by each open span
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.wall_s = defaultdict(float)
        self.counts = Counter()
        self.sym_inputs = set()
        self.missing = []
        self._patched = []

    def wrap(self, label, fn, hook):
        def traced(*args, **kwargs):
            self.stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child = self.stack.pop()
                self.calls[label] += 1
                self.self_s[label] += duration - child
                self.wall_s[label] += duration
                if self.stack:
                    self.stack[-1] += duration
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def install(self):
        """Wrap every traced function wherever a seidelkit module binds it."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "seidelkit" or name.startswith("seidelkit.")]
        for module_name, func_name, label, hook in TRACED:
            original = getattr(importlib.import_module(module_name),
                               func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self.wrap(label, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced call, by metric name."""
    out = {}
    for label in dict.fromkeys(label for _, _, label, _ in TRACED):
        out[f"{label}.calls"] = tracer.calls[label]
        out[f"{label}.self_s"] = tracer.self_s[label]
    out["cli.run.wall_s"] = tracer.wall_s["cli.run"]
    counts = tracer.counts
    matrices = counts["spectral.sym_eigenvalues.matrices"]
    out["spectral.sym_eigenvalues.unique_ratio"] = (
        len(tracer.sym_inputs) / matrices if matrices else 0.0)
    out["spectral.sym_eigenvalues.dim3_sum"] = counts[
        "spectral.sym_eigenvalues.dim3_sum"]
    out["spectral.charpoly_exact.dim_sum"] = counts[
        "spectral.charpoly_exact.dim_sum"]
    out["graphs.construct_order_sum"] = counts["graphs.construct_order_sum"]
    hypotheses = tracer.calls["theory.hypothesis_from_spectrum"]
    out["theory.bound_met_ratio"] = (
        counts["theory.bound_met"] / hypotheses if hypotheses else 0.0)
    return out
