"""Dense undirected graphs, the graph6 codec, and twin blow-up constructions.

Graphs are simple: dense 0/1 adjacency matrices with a zero diagonal and a
canonical vertex order.  Everything here is a pure function over immutable
values; ``Graph`` instances can be shared freely between workers.

The two product constructions replace every vertex by m "twin" copies:

* ``blowup(g, m)``        -- twins form independent sets; the adjacency
                             matrix is the Kronecker product J_m (x) A.
* ``clique_blowup(g, m)`` -- twins form cliques; the adjacency matrix is
                             J_m (x) (A + I) - I.

Both return simple graphs on m*n vertices.  ``KINDS`` names the four
constructions the certificates compare, each a sequence of these twin
steps, and ``construct(g, m, kind)`` builds one of them by name.
"""

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "DEFAULT_MAX_DIM",
    "NUMERIC_MAX_ORDER",
    "Graph",
    "Graph6Error",
    "graph_from_graph6",
    "graph_to_graph6",
    "complement",
    "blowup",
    "clique_blowup",
    "KINDS",
    "construct",
]

# Hard cap on the order of any blow-up, built or in closed form: the entries
# refuse one over it, and a scan a max_order over it.  Dense storage is
# quadratic, so this bounds memory at ~100 MB for int8 adjacency.
DEFAULT_MAX_DIM = 10_000

# Default cap on the order of constructed graphs during a scan.
NUMERIC_MAX_ORDER = 2_000

# Largest order representable in the 3-byte graph6 size field: the first
# 6-bit chunk may not be 63 (byte 126 is the long-size escape).
_GRAPH6_MAX_ORDER = 258_047

_GRAPH6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input.  ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adj`` is a symmetric 0/1 matrix with a zero diagonal (no loops).  The
    array is copied and frozen at construction.
    """

    adj: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adj)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if a.shape[0] == 0:
            raise ValueError("graph must have at least one vertex")
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency matrix must be symmetric")
        if a.diagonal().any():
            raise ValueError("adjacency diagonal must be zero (no loops)")
        a = a.astype(np.int8, copy=True)
        a.setflags(write=False)
        object.__setattr__(self, "adj", a)

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

    @classmethod
    def _trusted(cls, adj: np.ndarray) -> "Graph":
        """Wrap a valid int8 adjacency matrix without checking or copying it."""
        g = object.__new__(cls)
        adj.setflags(write=False)
        object.__setattr__(g, "adj", adj)
        return g

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------
#
# Standard format: a size field N(n) followed by the upper triangle of the
# adjacency matrix in column-major order -- bits (0,1), (0,2), (1,2), (0,3),
# ... -- packed big-endian into 6-bit chunks, each chunk stored as one ASCII
# byte chunk+63.  Sizes: one byte for n <= 62, escape byte 126 plus three
# bytes (18 bits) for 63 <= n <= 258047.  Lines may carry the optional
# ">>graph6<<" prefix.  sparse6 (':') and digraph6 ('&') are rejected.


# row b: the six payload bits of graph6 byte b, chunk b - 63, big-endian
_SIX_BITS = np.unpackbits((np.arange(256) - 63).astype(np.uint8)[:, None],
                          axis=1)[:, 2:].astype(np.int8)

# row b: the six payload bits of graph6 byte b, then a 0 that the decoder
# reads for each diagonal entry
_SEVEN_BITS = np.pad(_SIX_BITS, ((0, 0), (0, 1)))

_NON_GRAPH6 = re.compile(rb"[^?-~]")  # a byte outside 63..126


def _graph6_header(text: str | bytes) -> tuple[int, bytes, int]:
    """(n, line bytes, payload offset) of a graph6 line that decodes.  The
    one check of a line: its header, then its payload's length, byte range
    and padding bits; the first fault raises :class:`Graph6Error`."""
    if isinstance(text, str):
        if not text.isascii():
            i = next(i for i, ch in enumerate(text) if ord(ch) > 127)
            raise Graph6Error("non-ASCII character", i)
        data = text.encode("ascii")
    else:
        data = bytes(text)
    data = data.rstrip(b"\r\n")
    if data.startswith(_GRAPH6_HEADER.encode()):
        data = data[len(_GRAPH6_HEADER):]
    elif data.startswith(b">>"):
        raise Graph6Error("unrecognized format header", 0)
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    b0 = data[0]
    if b0 == 58:  # ':'
        raise Graph6Error("sparse6 input not supported", 0)
    if b0 == 38:  # '&'
        raise Graph6Error("digraph6 input not supported", 0)
    if b0 < 63 or b0 > 126:
        raise Graph6Error("size byte out of graph6 range", 0)
    if b0 == 63:
        raise Graph6Error("order-zero graph not supported", 0)
    n, start = b0 - 63, 1
    if b0 == 126:  # long form: 126 then 18 bits in three bytes
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("graph order beyond supported long form", 1)
        if len(data) < 4:
            raise Graph6Error("truncated long-form size field", len(data))
        n, start = 0, 4
        for i in (1, 2, 3):
            b = data[i]
            if b < 63 or b > 126:
                raise Graph6Error("size byte out of graph6 range", i)
            n = (n << 6) | (b - 63)
        if n <= 62:
            raise Graph6Error("non-canonical long-form size field", 1)
    nbits = n * (n - 1) // 2
    end = start + (nbits + 5) // 6
    if len(data) < end:
        raise Graph6Error("truncated bit payload", len(data))
    if len(data) > end:
        raise Graph6Error("trailing garbage after bit payload", end)
    if bad := _NON_GRAPH6.search(data, start):
        raise Graph6Error("payload byte out of graph6 range", bad.start())
    if (data[end - 1] - 63) & ((1 << -nbits % 6) - 1):  # in the last byte
        raise Graph6Error("nonzero padding bits", end - 1)
    return n, data, start


def graph_from_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line into a simple :class:`Graph`.

    Raises :class:`Graph6Error` (with byte offset) on malformed headers,
    out-of-range bytes, truncated or oversized payloads, and nonzero
    padding bits, all found by ``_graph6_header``; only the build is here.
    """
    n, data, start = _graph6_header(text)
    # symmetric, 0/1 and loop-free by construction: no re-validation
    if n <= 62:  # one gather from a cached map; the size byte leads
        bits = _SEVEN_BITS[np.frombuffer(data, np.uint8)]
        return Graph._trusted(bits.take(_bit_positions(n)))
    adj = np.zeros((n, n), dtype=np.int8)
    lower = _lower.__wrapped__(n)
    payload = np.frombuffer(data, np.uint8, offset=start)
    adj.reshape(-1)[lower] = _SIX_BITS[payload].reshape(-1)[:len(lower)]
    return Graph._trusted(adj | adj.T)


@lru_cache(maxsize=None)
def _bit_positions(n: int) -> np.ndarray:
    """(n, n) read-only positions, in the flat ``_SEVEN_BITS`` rows of a
    short-form graph6 line (size byte, then payload), of each adjacency
    entry: the k-th payload bit for both entries of the k-th lower-triangle
    pair, and the size byte's trailing 0 on the diagonal."""
    i, j = np.tril_indices(n, -1)
    k = np.arange(len(i))
    positions = np.full((n, n), 6)
    positions[i, j] = positions[j, i] = 7 + k // 6 * 7 + k % 6
    positions.setflags(write=False)
    return positions


@lru_cache(maxsize=None)
def _lower(n: int) -> np.ndarray:
    """Flat row-major indices of the strict lower triangle of order n,
    graph6's bit order transposed.  Cached: long forms, whose n^2/2
    indices would stay pinned, call ``_lower.__wrapped__``."""
    lower = np.flatnonzero(np.tri(n, k=-1, dtype=bool))
    lower.setflags(write=False)
    return lower


def graph_to_graph6(g: Graph) -> str:
    """Encode a graph as its canonical graph6 line (no trailing newline)."""
    return _graph6_lines(g.adj)[0]


def _graph6_lines(adj: np.ndarray) -> list[str]:
    """Canonical graph6 lines of an adjacency matrix or of each matrix of a
    (B, n, n) stack."""
    n = adj.shape[-1]
    if n <= 62:
        head, lower = bytes([n + 63]), _lower(n)
    elif n <= _GRAPH6_MAX_ORDER:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
        lower = _lower.__wrapped__(n)
    else:
        raise ValueError(f"graph order {n} exceeds graph6 long form")
    adj = adj.reshape(-1, n, n)
    nbits = n * (n - 1) // 2
    bits = np.zeros((len(adj), nbits + (-nbits) % 6), dtype=np.uint8)
    # adj[j, i] over the lower indices is adj[i, j] in graph6 order
    bits[:, :nbits] = adj.swapaxes(1, 2).reshape(len(adj), -1)[:, lower]
    chunks = bits.reshape(len(adj), -1, 6) @ np.array([32, 16, 8, 4, 2, 1],
                                                      dtype=np.uint8)
    return [(head + row.tobytes()).decode("ascii") for row in chunks + 63]


# ---------------------------------------------------------------------------
# Complement and the blow-up constructions
# ---------------------------------------------------------------------------


def complement(g: Graph) -> Graph:
    """Edge-complement (an involution; the diagonal stays zero)."""
    n = g.n
    adj = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8) - g.adj
    return Graph(adj)


def _check_blowup(n: int, m: int, steps: int) -> None:
    """Refuse ``steps`` twin steps at multiplicity m from order n unless
    ``steps`` is a theorem, 1 or 2, m is at least 2, and their order
    n*m**steps is at most ``DEFAULT_MAX_DIM``.  The one check of these
    rules for every public entry; n = 0 checks the theorem and m alone,
    each an ``int``, not a ``bool`` or a numpy integer."""
    if type(steps) is not int or steps not in (1, 2):
        raise ValueError(f"theorem must be 1 or 2, got {steps!r}")
    if type(m) is not int or m < 2:
        raise ValueError(f"blow-up multiplicity must be >= 2, got {m!r}")
    if n * m ** steps > DEFAULT_MAX_DIM:
        raise ValueError(f"blow-up order {n * m ** steps} exceeds "
                         f"dimension cap {DEFAULT_MAX_DIM}")


def _twin_steps(adj: np.ndarray, m: int, steps) -> np.ndarray:
    """Apply twin steps at multiplicity m to an int8 adjacency matrix A of
    order n: False adds independent twins, J_m (x) A, and True clique twins,
    J_m (x) (A + I) - I.  Vertex k*N + v of a step's result is copy k of
    vertex v of its order-N input.  The steps compose into one Kronecker
    sum, J_M (x) A + A_K (x) I_n, with K the steps on one vertex, M = m^t
    copies; it is built so."""
    _check_blowup(adj.shape[-1], m, len(steps))
    k = np.zeros((1, 1), dtype=np.int8)
    for clique in steps:
        k = np.tile(k + clique * np.eye(len(k), dtype=np.int8), (m, m))
        k -= clique * np.eye(len(k), dtype=np.int8)
    n, size = adj.shape[-1], len(k)
    out = np.tile(adj, (size, size))
    # A_K at the diagonal of every n x n block: entry (c*n + v, d*n + v)
    np.einsum("cvdv->cdv", out.reshape(size, n, size, n))[...] += k[..., None]
    return out


def blowup(g: Graph, m: int) -> Graph:
    """Replace every vertex by m independent twins, J_m (x) A(g): each
    edge of g becomes a complete bipartite block on two twin classes.
    Simple, on m*n vertices."""
    return Graph._trusted(_twin_steps(g.adj, m, (False,)))


def clique_blowup(g: Graph, m: int) -> Graph:
    """Replace every vertex by m mutually adjacent twins, J_m (x) (A(g) +
    I) - I: as ``blowup``, and each twin class is a clique.  Simple, on m*n
    vertices."""
    return Graph._trusted(_twin_steps(g.adj, m, (True,)))


# Twin steps of each construction kind, innermost first: False adds
# independent twins (blowup), True clique twins (clique_blowup).
KINDS = {
    "dm": (False,),
    "dmstar": (True,),
    "t2-left": (False, True),
    "t2-right": (True, False),
}


def construct(g: Graph, m: int, kind: str) -> Graph:
    """Build one blow-up construction of g, selected by ``kind``.

    Applies the twin steps ``KINDS[kind]`` in order, each at multiplicity
    m: "dm" is blowup(g, m) and "dmstar" clique_blowup(g, m), both of order
    m*n; "t2-left" is clique_blowup(blowup(g, m), m) and "t2-right"
    blowup(clique_blowup(g, m), m), both of order m^2*n.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown construction kind: {kind!r}")
    return Graph._trusted(_twin_steps(g.adj, m, KINDS[kind]))
