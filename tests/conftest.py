"""Shared fixtures: the exhaustive small-graph catalog and independent oracles.

The catalog of all simple graphs on up to 6 vertices (208 isomorphism
classes) comes from the networkx graph atlas, an external source that the
library under test never touches.  ``jacobi_desc`` is a cyclic Jacobi
eigensolver in plain Python, an oracle independent of the package's LAPACK
(``eigvalsh``) path, ``to_plain`` with ``json.dumps`` is the reference
for the package's own JSON writer, and ``explicit_proofs``, a gather over
explicit padding eigenvectors, is the reference for the package's
one-pass proof of a closed form.  ``tile_twin_steps`` builds a
construction one twin step at a time, the reference for the package's
Kronecker-sum build, and ``stacked_member_proven`` proves the closed form
of each built member of a stack, the per-graph reference for the
package's one proof per (m, kind).  ``report_text`` is the text of a
scan report as ``write_report``, its one writer, writes it to stdout.
"""

import contextlib
import dataclasses
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from networkx.generators.atlas import graph_atlas_g

import networkx as nx

from seidelkit import Graph, ScanEntry, construct, graph_to_graph6, search


def from_nx(g) -> Graph:
    """The :class:`Graph` of a networkx graph, its nodes in sorted order:
    ``from_nx(nx.cycle_graph(n))`` is the cycle 0-1-...-(n-1)-0."""
    return Graph(nx.to_numpy_array(g, nodelist=sorted(g.nodes()), dtype=int))


@pytest.fixture(scope="session")
def catalog_graphs():
    """All simple graphs with 1 <= n <= 6, one per isomorphism class."""
    graphs = [from_nx(g) for g in graph_atlas_g()
              if 1 <= g.number_of_nodes() <= 6]
    assert len(graphs) == 208
    return graphs


@pytest.fixture(scope="session")
def catalog_lines(catalog_graphs):
    return [graph_to_graph6(g) for g in catalog_graphs]


# The pool class ``scan_stream`` looks up when it forks, and only then: the
# one place a test swaps the process pool.
POOL = "concurrent.futures.process.ProcessPoolExecutor"


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

    monkeypatch.setattr(POOL, RecordingPool)
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


def poly_eval(p, x):
    """The integer polynomial ``p`` at x, by Horner's rule over its
    descending coefficients."""
    acc = p.coefficients[0]
    for c in p.coefficients[1:]:
        acc = acc * x + c
    return acc


def poly_mul(a, b):
    """Multiply integer polynomials given as descending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def padding_eigenvectors(n, m, steps):
    """Explicit integer eigenvectors of each padding block of a construction
    of ``steps`` twin steps on G of order n, in the closed form's block order.

    Vertex k*N + v of a twin step's result is copy k of vertex v of its
    order-N input (np.kron(J_m, X)).  Each step lifts the earlier blocks'
    vectors x to 1_m (x) x and adds its twin differences e_v - e_{kN+v},
    eigenvectors for -1 (independent) or +1 (clique twins).  The vectors do
    not depend on the twin type, so both members of a pair share them.  A
    block is (supports, signs): row j of supports lists the coordinates of
    vector j, and signs its entries.  Every vector is checked to have a
    private coordinate and to sum to zero on every cell.
    """
    blocks, order = [], n
    for _ in range(steps):
        copies = order * np.arange(m)[:, None]
        blocks = [((supports[:, None, :] + copies).reshape(len(supports), -1),
                   np.tile(signs, m)) for supports, signs in blocks]
        blocks.append((np.stack([np.tile(np.arange(order), m - 1),
                                 np.arange(order, m * order)], axis=1),
                       np.array([1, -1])))
        order *= m
    assert all(private_vectors(supports).all() for supports, _ in blocks)
    assert cells_balanced(n, blocks)
    return blocks


def private_vectors(supports):
    """For each vector of a block, whether it has a coordinate that no other
    vector of the block touches."""
    uses = np.bincount(supports.ravel())
    return (uses[supports] == 1).any(axis=1)


def cells_balanced(n, vectors):
    """True when every padding vector sums to zero on every cell (the copies
    i = v mod n of base vertex v), so is orthogonal to the cell indicators."""
    for supports, signs in vectors:
        # entry j*n + v: the sum of vector j over cell v
        cells = np.arange(len(supports))[:, None] * n + supports % n
        if np.bincount(cells.ravel(),
                       np.broadcast_to(signs, supports.shape).ravel()).any():
            return False
    return True


def padding_eigen_ok(s, padding, vectors):
    """For each matrix of the (B, N, N) stack s, True when each block
    (value, mult) has mult vectors with x s = value x, each with a private
    coordinate, by a gather of the support rows of s in integers."""
    ok = np.ones(len(s), dtype=bool)
    for (value, mult), (supports, signs) in zip(padding, vectors):
        target = np.zeros((len(supports), s.shape[-1]), dtype=np.int64)
        np.add.at(target, (np.arange(len(supports))[:, None], supports),
                  value * signs)
        # row j of matrix b: x_j s_b against value x_j
        eigen = (np.einsum("t,bjtc->bjc", signs, s[:, supports])
                 == target).all(axis=2)
        ok &= np.count_nonzero(eigen & private_vectors(supports), axis=1) >= mult
    return ok


def explicit_proofs(s, s_g, m, scale, shift, padding):
    """The explicit-vector oracle of a member's proof: (quotient proven,
    padding proven) arrays for the (B, N, N) stack s offered as a
    construction on the (B, n, n) Seidel stack s_g.

    The quotient is s P = P Q for the cell indicator matrix P of the cells
    i mod n and Q = scale*S_G + shift*I, by column sums of s.  The padding
    holds when the blocks' values are distinct, their multiplicities add up
    to N - n, and ``padding_eigen_ok`` passes on ``padding_eigenvectors``.
    """
    b, order, n = len(s), s.shape[-1], s_g.shape[-1]
    q = scale * s_g
    q.reshape(b, -1)[:, ::n + 1] += shift
    # row c*n + v of the cell sums against row v of q, for every copy c
    cells = s.reshape(b, order, -1, n).sum(axis=2).reshape(b, -1, n, n)
    quotient = (cells == q[:, None]).reshape(b, -1).all(axis=1)
    steps, order_left = 0, order // n
    while order_left > 1 and order_left % m == 0:
        steps, order_left = steps + 1, order_left // m
    vectors = padding_eigenvectors(n, m, steps)
    values = [value for value, _ in padding]
    counted = (len(vectors) == len(set(values)) == len(values)
               and sum(mult for _, mult in padding) == order - n)
    return quotient, counted & padding_eigen_ok(s, padding, vectors)


def tile_twin_steps(adj, m, steps):
    """Apply twin steps at multiplicity m to an int8 adjacency matrix, or to
    each matrix of a (B, n, n) stack, one step at a time: False adds
    independent twins, J_m (x) A, and True clique twins, J_m (x) (A + I) - I.
    Vertex k*N + v of a step's result is copy k of vertex v of its order-N
    input."""
    for clique in steps:
        order = adj.shape[-1]
        if clique:
            adj = (np.tile(adj + np.eye(order, dtype=np.int8), (m, m))
                   - np.eye(m * order, dtype=np.int8))
        else:
            adj = np.tile(adj, (m, m))
    return adj


def stacked_member_proven(s, s_g, m, scale, shift, padding):
    """(quotient proven, padding proven) arrays for the (B, N, N) stack s of
    one member's Seidel matrices, offered as t twin steps at multiplicity m
    on the (B, n, n) Seidel stack s_g, with closed form scale*sigma + shift
    plus ``padding``: the package's pass (``theory._member_proven``, README
    "Proving the closed forms") run on every built member of a stack at
    once.  s is changed during the pass and restored."""
    b, order, n = len(s), s.shape[-1], s_g.shape[-1]
    if not padding or order != n * m ** len(padding):
        return np.zeros(b, dtype=bool), np.zeros(b, dtype=bool)
    values = [value for value, _ in padding]
    twins = np.full(b, len(set(values)) == len(values) and all(
        mult == (m - 1) * n * m ** i for i, (_, mult) in enumerate(padding)))
    r, held = s, 0
    for i in reversed(range(len(padding))):
        size = n * m ** (i + 1)
        lifted = np.einsum("bucu->bcu", r.reshape(b, size, -1, size))
        lifted -= values[i] - held
        held = values[i]
        copies = r.reshape(b, m, size // m, order)
        twins &= (copies[:, 1:] == copies[:, :1]).all(axis=(1, 2, 3))
        r = copies.sum(axis=1)
    np.einsum("bii->bi", s)[...] += values[-1]
    q = scale * s_g
    np.einsum("bvv->bv", q)[...] += shift - held
    quotient = (r.reshape(b, n, -1, n) == q[:, :, None]).all(axis=(1, 2, 3))
    return quotient, twins


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


def plain_entry(entry: ScanEntry) -> SimpleNamespace:
    """A scan entry as the report format shows it: its line, its kind and
    its certificate, row ``entry.row`` of its block as a ``Certificate``."""
    return SimpleNamespace(line=entry.line, kind=entry.kind,
                           certificate=entry.block.certificate(entry.row))


def to_plain(obj):
    """``obj`` with each dataclass and scan entry made a dict over its
    fields and each tuple a list, ready for ``json.dumps``."""
    if isinstance(obj, ScanEntry):
        return to_plain(vars(plain_entry(obj)))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: to_plain(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [to_plain(item) for item in obj]
    return obj


def report_text(report, format="json") -> str:
    """The text ``write_report`` writes of ``report`` in ``format`` to
    standard output."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        search.write_report(report, format)
    return out.getvalue()


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
