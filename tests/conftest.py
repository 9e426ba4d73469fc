"""Shared fixtures: the exhaustive small-graph catalog and independent oracles.

The catalog of all simple graphs on up to 6 vertices (208 isomorphism
classes) comes from the networkx graph atlas, an external source that the
library under test never touches.  ``jacobi_desc`` is a cyclic Jacobi
eigensolver in plain Python, an oracle independent of the package's LAPACK
(``eigvalsh``) path, and ``to_plain`` with ``json.dumps`` is the reference
for the package's own JSON writer.
"""

import dataclasses
import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from networkx.generators.atlas import graph_atlas_g

import networkx as nx

from seidelkit import Graph, construct, graph_to_graph6, search


@pytest.fixture(scope="session")
def catalog_graphs():
    """All simple graphs with 1 <= n <= 6, one per isomorphism class."""
    graphs = []
    for g in graph_atlas_g():
        if 1 <= g.number_of_nodes() <= 6:
            adj = nx.to_numpy_array(g, nodelist=sorted(g.nodes()), dtype=int)
            graphs.append(Graph(adj))
    assert len(graphs) == 208
    return graphs


@pytest.fixture(scope="session")
def catalog_lines(catalog_graphs):
    return [graph_to_graph6(g) for g in catalog_graphs]


@pytest.fixture
def pool_starts(monkeypatch):
    """The worker counts of the real process pools ``scan_stream`` starts,
    each checked to cap its workers' BLAS threads.

    The fork threshold is lowered to 4 KiB, a few small lines, so that a
    catalog of small graphs is enough work to fork for.
    """
    started = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            assert kwargs.get("initializer") is search._cap_blas
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(search, "_FORK_BYTES", 1 << 12)
    return started


class JacobiConvergenceError(RuntimeError):
    """The Jacobi oracle did not reach its off-diagonal target."""


def _offdiag_norm(a):
    # computed on a masked copy: subtracting diagonal mass from the total
    # cancels catastrophically once the off-diagonal part is small
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.linalg.norm(off))


def jacobi_desc(mat, conv_tol=1e-12, max_sweeps=100):
    """Independent eigenvalue oracle (cyclic Jacobi), sorted descending.

    Rotations run in a fixed row-major order over the upper triangle, so
    results are bit-for-bit reproducible.  Iteration stops when the
    off-diagonal Frobenius mass falls below ``conv_tol`` times the
    Frobenius norm of the input; exceeding ``max_sweeps`` raises
    :class:`JacobiConvergenceError`.
    """
    a = np.array(mat, dtype=np.float64)
    n = a.shape[0]
    threshold = conv_tol * float(np.linalg.norm(a))
    sweeps = 0
    while _offdiag_norm(a) > threshold:
        if sweeps >= max_sweeps:
            raise JacobiConvergenceError(
                f"no convergence in {sweeps} sweeps "
                f"(off-diagonal norm {_offdiag_norm(a):.3e}, "
                f"target {threshold:.3e})")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(diff) > abs(apq) * 1e12:
                    # tiny rotation angle; the exact formula would overflow
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (abs(theta)
                                                     + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = a[q, p] = 0.0
        sweeps += 1
    return np.sort(np.diagonal(a))[::-1]


def seidel_of(adj):
    """Build J - I - 2A directly from a dense 0/1 adjacency array."""
    n = adj.shape[0]
    return np.ones((n, n)) - np.eye(n) - 2.0 * np.asarray(adj, dtype=float)


def jacobi_member(g, m, kind):
    """Jacobi oracle eigenvalues of the Seidel matrix of construct(g, m, kind)."""
    return jacobi_desc(seidel_of(construct(g, m, kind).adj))


def poly_mul(a, b):
    """Multiply integer polynomials given as descending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def random_simple_graph(rng, n, p=0.5):
    """Erdos-Renyi style dense test graph on n vertices."""
    adj = np.zeros((n, n), dtype=np.int8)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i, j] = adj[j, i] = 1
    return Graph(adj)


# Key sets of the report and certificate JSON, as README "Formats" lists them.
REPORT_KEYS = {"config", "totals", "certificates", "failures", "skipped"}
CONFIG_KEYS = {"m", "theorem", "max_order"}
TOTALS_KEYS = {"scanned", "certified", "refuted", "hypothesis_failed",
               "parse_failed", "skipped", "hypothesis_satisfied",
               "boundary_flagged", "violations"}
ENTRY_KEYS = {"line", "kind", "certificate"}
FAILURE_KEYS = {"line", "error"}
SKIP_KEYS = {"line", "order", "reason"}
CERTIFICATE_KEYS = {"theorem", "graph6", "m", "hypothesis", "closed_a",
                    "closed_b", "energy_a", "energy_b", "energy_delta",
                    "equienergetic", "cospectral", "closed_form_agrees",
                    "exact_multiplicities_verified", "base_residual",
                    "theorem_violation"}
HYPOTHESIS_KEYS = {"m", "bound", "min_abs_eigenvalue", "balanced", "inertia",
                   "satisfied", "margin", "boundary"}
INERTIA_KEYS = {"n_pos", "n_zero", "n_neg"}
CLOSED_FORM_KEYS = {"mapped", "padding", "m", "order"}
NESTED = {"hypothesis": HYPOTHESIS_KEYS, "inertia": INERTIA_KEYS,
          "closed_a": CLOSED_FORM_KEYS, "closed_b": CLOSED_FORM_KEYS,
          "certificate": CERTIFICATE_KEYS}


def to_plain(obj):
    """``obj`` with each dataclass made a dict over its fields and each
    tuple a list, ready for ``json.dumps``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: to_plain(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [to_plain(item) for item in obj]
    return obj


def reference_json(obj) -> str:
    """The canonical JSON text of ``obj`` as the standard library writes it."""
    return json.dumps(to_plain(obj), sort_keys=True, indent=2)


def _as_json(value):
    """A field value as ``json`` decodes it: tuples come back as lists."""
    if isinstance(value, tuple):
        return [_as_json(v) for v in value]
    return value


def check_json_object(doc, obj, keys):
    """Assert ``doc`` has exactly ``keys`` and each value decodes ``obj``'s field."""
    assert set(doc) == keys
    for key in keys:
        if key in NESTED:
            check_json_object(doc[key], getattr(obj, key), NESTED[key])
        else:
            assert doc[key] == _as_json(getattr(obj, key)), key
