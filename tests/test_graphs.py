"""Graph container, graph6 codec, and blow-up construction tests."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from networkx.generators.atlas import graph_atlas_g

from seidelkit import (KINDS, Graph, Graph6Error, blowup, clique_blowup,
                       complement, construct, graph_from_graph6,
                       graph_to_graph6, graphs)
from conftest import from_nx, jacobi_desc, random_simple_graph


# -- Graph invariants --------------------------------------------------------

def test_graph_rejects_bad_matrices():
    with pytest.raises(ValueError):
        Graph(np.zeros((2, 3), dtype=int))
    with pytest.raises(ValueError):
        Graph(np.array([[0, 1], [0, 0]]))  # not symmetric
    with pytest.raises(ValueError):
        Graph(np.array([[0, 2], [2, 0]]))  # entries not 0/1
    with pytest.raises(ValueError):
        Graph(np.array([[1]]))  # loop
    with pytest.raises(ValueError):
        Graph(np.zeros((0, 0), dtype=int))


def test_graph_rejects_loops():
    # simplicity is enforced by the type: any diagonal entry is refused
    for n in (1, 4):
        for v in range(n):
            adj = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
            adj[v, v] = 1
            with pytest.raises(ValueError):
                Graph(adj)


def test_graph_is_immutable_and_hashable():
    g = from_nx(nx.complete_graph(3))
    with pytest.raises(ValueError):
        g.adj[0, 1] = 0
    assert g == from_nx(nx.complete_graph(3))
    assert hash(g) == hash(from_nx(nx.complete_graph(3)))
    assert g != from_nx(nx.empty_graph(3))


# -- graph6 codec ------------------------------------------------------------

def test_codec_fixed_vectors():
    # K_4: 6 upper-triangle bits all set -> 111111 = 63 -> byte 126 = '~'
    k4 = graph_from_graph6("C~")
    assert k4 == from_nx(nx.complete_graph(4))
    assert graph_to_graph6(from_nx(nx.complete_graph(4))) == "C~"
    # K_1: empty payload
    assert graph_from_graph6("@") == from_nx(nx.empty_graph(1))
    assert graph_to_graph6(from_nx(nx.empty_graph(1))) == "@"
    # K_2: single bit 1 -> 100000 = 32 -> byte 95 = '_'
    assert graph_from_graph6("A_") == from_nx(nx.complete_graph(2))
    assert graph_to_graph6(from_nx(nx.complete_graph(2))) == "A_"
    assert graph_from_graph6("A?") == from_nx(nx.empty_graph(2))


def test_codec_round_trip_fixed_line():
    g = graph_from_graph6("DQc")
    assert g.n == 5
    assert graph_to_graph6(g) == "DQc"


def test_codec_round_trip_random():
    rng = np.random.default_rng(421)
    for _ in range(300):
        n = int(rng.integers(1, 63))
        g = random_simple_graph(rng, n, p=float(rng.random()))
        assert graph_from_graph6(graph_to_graph6(g)) == g


def test_decoded_graph_is_valid_int8_and_read_only():
    # the decoder skips Graph's validation and copy, so check its output
    # against them: every atlas line with n <= 7 and seeded n = 10..40
    rng = np.random.default_rng(15)
    lines = [nx.to_graph6_bytes(g, header=False).strip()
             for g in graph_atlas_g()[1:]]
    lines += [graph_to_graph6(random_simple_graph(rng, n, p=float(rng.random())))
              for n in range(10, 41) for _ in range(3)]
    for line in lines:
        g = graph_from_graph6(line)
        assert g == Graph(g.adj)
        assert g.adj.dtype == np.int8 and not g.adj.flags.writeable


@st.composite
def _graphs(draw):
    # short form, and both sides of the long-form size at n = 63
    n = draw(st.one_of(st.integers(1, 12), st.integers(60, 65)))
    pairs = n * (n - 1) // 2
    packed = draw(st.binary(min_size=-(-pairs // 8), max_size=-(-pairs // 8)))
    adj = np.zeros((n, n), dtype=np.int8)
    adj[np.triu_indices(n, 1)] = np.unpackbits(
        np.frombuffer(packed, np.uint8))[:pairs]
    return Graph(adj | adj.T)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_graphs(), st.booleans())
def test_codec_round_trip_property(g, header):
    assert graph_from_graph6(graph_to_graph6(g)) == g
    # a line from an independent encoder re-encodes to its own bytes, and
    # decodes to the same graph as bytes and as str
    line = nx.to_graph6_bytes(nx.from_numpy_array(g.adj), header=header)
    decoded = graph_from_graph6(line)
    assert decoded == g == graph_from_graph6(line.decode())
    assert graph_to_graph6(decoded).encode() == line.removeprefix(
        b">>graph6<<").rstrip(b"\n")


def test_codec_long_form():
    rng = np.random.default_rng(7)
    for n in (63, 64, 100):
        g = random_simple_graph(rng, n, p=0.1)
        line = graph_to_graph6(g)
        assert line[0] == "~" and len(line) == 4 + (n * (n - 1) // 2 + 5) // 6
        assert graph_from_graph6(line) == g


def test_codec_accepts_header_and_newline():
    assert graph_from_graph6(">>graph6<<C~") == from_nx(nx.complete_graph(4))
    assert graph_from_graph6("C~\n") == from_nx(nx.complete_graph(4))
    assert graph_from_graph6(b"A_\r\n") == from_nx(nx.complete_graph(2))


@pytest.mark.parametrize("text,offset", [
    ("", 0),                 # empty input
    (":Fa@x^", 0),           # sparse6
    ("&C~", 0),              # digraph6
    (">>sparse6<<:Fa", 0),   # foreign header
    ("?", 0),                # order zero
    ("C", 1),                # truncated payload (n=4 needs one byte)
    ("C~~", 2),              # trailing garbage
    ("A" + chr(200), 1),     # non-ASCII payload
    ("A" + chr(30), 1),      # payload byte below range
    ("C\x1f", 1),            # below range, with no padding bits to catch it
    ("\x7f", 0),             # DEL size byte: ASCII, above range
    ("A\x7f", 1),            # DEL payload byte
    (b"C\x80", 1),           # above range, in a bytes line
    ("A@", 1),               # nonzero padding bits
    (chr(126), 1),           # truncated long-form size
    # the offsets count the >>graph6<< prefix
    (">>graph6<<", 10),      # empty after the prefix
    (">>graph6<<:Fa@x^", 10),  # sparse6 after the prefix
    (">>graph6<<C~~", 12),   # trailing garbage
    (b">>graph6<<C\x80", 11),  # above range, in a bytes line
    (">>graph6<<~~", 11),    # long form beyond the supported orders
    (">>graph6<<A@", 11),    # nonzero padding bits
])
def test_codec_errors_carry_offsets(text, offset):
    with pytest.raises(Graph6Error) as err:
        graph_from_graph6(text)
    assert err.value.offset == offset
    # an ASCII line fails with the same text and offset as bytes and as str
    if isinstance(text, str) and text.isascii():
        with pytest.raises(Graph6Error) as again:
            graph_from_graph6(text.encode())
        assert (str(again.value), again.value.offset) == (str(err.value),
                                                          offset)


# -- complement -----------------------------------------------------------------

def test_complement_of_complete_is_empty():
    for n in (1, 2, 5, 9):
        assert (complement(from_nx(nx.complete_graph(n)))
                == from_nx(nx.empty_graph(n)))


def test_complement_involution():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_simple_graph(rng, int(rng.integers(1, 15)))
        assert complement(complement(g)) == g


def test_complement_c5_is_pentagram():
    # direct adjacency check: complementing the 5-cycle 0-1-2-3-4 yields the
    # cycle through 0-2-4-1-3
    pentagram = from_nx(nx.Graph([(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]))
    assert complement(from_nx(nx.cycle_graph(5))) == pentagram


# -- the blow-ups as Kronecker products ----------------------------------------

def test_kronecker_j2_k2_is_c4():
    # written out by hand: blowup(K_2, 2) = J_2 (x) A(K_2) interleaves the
    # two copies
    expected = np.array([[0, 1, 0, 1],
                         [1, 0, 1, 0],
                         [0, 1, 0, 1],
                         [1, 0, 1, 0]])
    out = blowup(from_nx(nx.complete_graph(2)), 2)
    assert np.array_equal(out.adj, expected)
    assert out == from_nx(nx.cycle_graph(4))


def test_kronecker_eigenvalues_are_pairwise_products():
    # blowup is J_m (x) A and clique_blowup J_m (x) (A + I) - I, so their
    # adjacency eigenvalues are pairwise products of the factors' (minus 1)
    g = random_simple_graph(np.random.default_rng(5), 4)
    m = 3
    ones = jacobi_desc(np.ones((m, m)))
    for built, factor, shift in [
            (blowup(g, m), g.adj, 0),
            (clique_blowup(g, m), g.adj + np.eye(4, dtype=int), 1)]:
        product = np.sort([x * y - shift for x in ones
                           for y in jacobi_desc(factor)])
        direct = np.sort(jacobi_desc(built.adj))
        assert np.allclose(product, direct, atol=1e-9)


def test_kronecker_dimension_cap(monkeypatch):
    big = from_nx(nx.empty_graph(101))
    for kind in ("dm", "dmstar"):
        with pytest.raises(ValueError, match="order 10100 exceeds"):
            construct(big, 100, kind)
    # the cap is read when construct runs
    monkeypatch.setattr(graphs, "DEFAULT_MAX_DIM", 6)
    for kind in ("dm", "dmstar"):
        assert construct(from_nx(nx.complete_graph(2)), 3, kind).n == 6
    monkeypatch.setattr(graphs, "DEFAULT_MAX_DIM", 7)
    with pytest.raises(ValueError, match="order 8 exceeds dimension cap 7"):
        construct(from_nx(nx.complete_graph(2)), 2, "t2-left")


# -- blow-up constructions ----------------------------------------------------

def test_blowup_k2_is_c4():
    assert (blowup(from_nx(nx.complete_graph(2)), 2)
            == from_nx(nx.cycle_graph(4)))


def test_blowup_of_k1_is_empty():
    for m in (2, 3, 7):
        assert (blowup(from_nx(nx.empty_graph(1)), m)
                == from_nx(nx.empty_graph(m)))


def test_blowup_matches_kron_formula():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(2, 5))
        g = random_simple_graph(rng, n)
        result = blowup(g, m)
        assert result.n == m * n and not result.adj.diagonal().any()
        expected = np.kron(np.ones((m, m), dtype=int), g.adj)
        assert np.array_equal(result.adj, expected)


def test_blowup_c5_structure():
    g = blowup(from_nx(nx.cycle_graph(5)), 2)
    assert g.n == 10 and not g.adj.diagonal().any()
    # every original edge becomes a complete bipartite block on the twins
    for u, v in [(i, (i + 1) % 5) for i in range(5)]:
        for i in range(2):
            for j in range(2):
                assert g.adj[i * 5 + u, j * 5 + v] == 1
    # twin classes stay independent
    for u in range(5):
        assert g.adj[u, 5 + u] == 0


def test_clique_blowup_fixed_cases():
    k4 = from_nx(nx.complete_graph(4))
    assert clique_blowup(from_nx(nx.complete_graph(2)), 2) == k4
    assert clique_blowup(from_nx(nx.empty_graph(1)), 4) == k4
    for n, m in [(2, 3), (3, 2), (4, 2)]:
        assert (clique_blowup(from_nx(nx.complete_graph(n)), m)
                == from_nx(nx.complete_graph(m * n)))


def test_clique_blowup_matches_formula():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(2, 5))
        g = random_simple_graph(rng, n)
        result = clique_blowup(g, m)
        assert result.n == m * n and not result.adj.diagonal().any()
        expected = (np.kron(np.ones((m, m), dtype=int),
                            g.adj + np.eye(n, dtype=int))
                    - np.eye(m * n, dtype=int))
        assert np.array_equal(result.adj, expected)


def test_construct_kinds():
    g = from_nx(nx.path_graph(3))
    assert construct(g, 2, "dm") == blowup(g, 2)
    assert construct(g, 2, "dmstar") == clique_blowup(g, 2)
    assert construct(g, 2, "t2-left") == clique_blowup(blowup(g, 2), 2)
    assert construct(g, 2, "t2-right") == blowup(clique_blowup(g, 2), 2)
    with pytest.raises(ValueError):
        construct(g, 2, "t2")
    # the steps skip re-validation, so check that they build valid graphs
    for kind in KINDS:
        h = construct(random_simple_graph(np.random.default_rng(5), 6), 3, kind)
        assert h.adj.dtype == np.int8 and not h.adj.flags.writeable
        assert Graph(h.adj.copy()) == h
