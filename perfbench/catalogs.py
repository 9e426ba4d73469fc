"""The benchmark's workloads and the seeded inputs each one feeds the CLI.

Every input is made here from the workload seed; the program under test
only ever sees the generated graph6 lines.  The same seed always gives the
same lines (``random.Random`` seeded with a string is stable across Python
versions).
"""

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
import networkx as nx
from networkx.generators.atlas import graph_atlas_g

import oracle


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a single caller, one CLI call at a time.

    ``command`` is ``scan`` (one call scans the whole catalog) or
    ``certify`` (one call certifies one line of the input list).
    """

    name: str
    command: str
    make: Callable  # (workload, seed) -> list of graph6 lines
    theorem: int
    m: int
    max_order: int = 0
    jobs: int = 1

    def flags(self, jobs=None) -> list:
        flags = ["--theorem", str(self.theorem), "--m", str(self.m)]
        if self.command == "scan":
            flags += ["--max-order", str(self.max_order),
                      "--jobs", str(self.jobs if jobs is None else jobs)]
        return flags

    def lines(self, seed: int) -> list:
        return self.make(self, seed)


def graph6(adj: np.ndarray) -> str:
    """Canonical graph6 line of a 0/1 adjacency matrix (n <= 62)."""
    n = adj.shape[0]
    bits = [int(adj[i, j]) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chunks = [int("".join(map(str, bits[k:k + 6])), 2)
              for k in range(0, len(bits), 6)]
    return bytes([n + 63] + [c + 63 for c in chunks]).decode("ascii")


def random_adjacency(rng: random.Random, n: int) -> np.ndarray:
    """Adjacency matrix of one G(n, 1/2) draw."""
    adj = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    word = rng.getrandbits(len(iu[0]))
    adj[iu] = [(word >> k) & 1 for k in range(len(iu[0]))]
    return adj + adj.T


def atlas_lines(workload: Workload, seed: int) -> list:
    """All 1252 atlas graphs with 1 <= n <= 7, ordered by n.

    The atlas is a fixed catalog, so the seed does not change it.
    """
    return [nx.to_graph6_bytes(g, header=False).decode("ascii").strip()
            for g in graph_atlas_g() if g.number_of_nodes() >= 1]


# Lines per order in random_mixed, and how many of them reach `certify`
# (bound met at theorem 1, m = 2).  The counts follow the G(n, 1/2) rates
# (26 % at n = 10 down to 4 % at n = 28) rounded to 13 lines; fixing them
# gives every seed the same mix of work, so seeds differ in graphs and
# order, not in cost.  Orders 33..40 exceed --max-order 64 and are skipped.
PER_ORDER = 13
REACH_CERTIFY = {10: 3, 11: 3, 12: 3, 13: 2, 14: 2, 15: 2, 16: 2,
                 **{n: 1 for n in range(17, 29)}}
ORDERS = range(10, 41)
MALFORMED = 21  # about 5 % of the catalog


def _malformed(rng: random.Random, line: str, kind: int) -> str:
    """An ASCII line that is not graph6: truncated, trailing garbage or a
    bad size byte."""
    if kind == 0:
        return line[:-rng.randint(1, 3)]
    if kind == 1:
        return line + "".join(chr(rng.randint(63, 126))
                              for _ in range(rng.randint(1, 3)))
    return chr(rng.randint(33, 62)) + line[1:]


def random_mixed_lines(workload: Workload, seed: int) -> list:
    rng = random.Random(f"{workload.name}/{seed}")
    lines = []
    for n in ORDERS:
        want = {True: REACH_CERTIFY.get(n, 0), False: PER_ORDER}
        want[False] -= want[True]
        while want[True] or want[False]:
            adj = random_adjacency(rng, n)
            reach = False
            if workload.m * n <= workload.max_order:
                verdict, _ = oracle.classify_spectrum(
                    np.linalg.eigvalsh(oracle.seidel(adj)),
                    workload.m, workload.theorem)
                reach = verdict in ("certified", "refuted")
            if want[reach]:
                want[reach] -= 1
                lines.append(graph6(adj))
    for k in range(MALFORMED):
        n = rng.choice(ORDERS)
        lines.append(_malformed(rng, graph6(random_adjacency(rng, n)), k % 3))
    rng.shuffle(lines)
    return lines


# Enough distinct graphs that a run never repeats an input, even with
# certify calls a thousand times faster than on the seed code.
CERTIFY_INPUTS = 10_000
# Theorem 2 at m = 3 builds pairs of order 9 * 8 = 72.
CERTIFY_ORDER = 8


def certify_lines(workload: Workload, seed: int) -> list:
    """Seeded G(8, 1/2) graphs, not filtered by verdict."""
    rng = random.Random(f"{workload.name}/{seed}")
    return [graph6(random_adjacency(rng, CERTIFY_ORDER))
            for _ in range(CERTIFY_INPUTS)]


WORKLOADS = {w.name: w for w in (
    Workload("atlas_t1_m2", "scan", atlas_lines, theorem=1, m=2,
             max_order=2000),
    Workload("random_mixed", "scan", random_mixed_lines, theorem=1, m=2,
             max_order=64, jobs=2),
    Workload("certify_exact72", "certify", certify_lines, theorem=2, m=3),
)}
