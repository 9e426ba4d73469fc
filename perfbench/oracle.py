"""Verdict oracle that shares no code with seidelkit.

Lines are decoded with networkx and classified from numpy's LAPACK
``eigvalsh``.  The classes match the scan report's buckets:

* ``parse_failed``      -- not a canonical graph6 line;
* ``skipped``           -- the constructed order exceeds ``max_order``;
* ``hypothesis_failed`` -- some |eigenvalue| lies below the bound;
* ``certified``         -- bound met and the inertia is balanced;
* ``refuted``           -- bound met, inertia unbalanced.

The Seidel characteristic polynomial is monic with integer coefficients, so
no eigenvalue equals the non-integer bound ((m-1)/m)**power; the margins
this module reports show how far each verdict sits from its threshold.
"""

import networkx as nx
import numpy as np

ZERO_TOL = 1e-7
ENERGY_TOL = 1e-8
# Relative agreement required between a reported and an oracle energy.
ENERGY_AGREE = 1e-6

VERDICTS = ("parse_failed", "skipped", "hypothesis_failed", "certified",
            "refuted")


def decode(line: str):
    """Adjacency matrix of a canonical graph6 line, or None if malformed."""
    data = line.encode("ascii")
    if not data or any(b < 63 or b > 126 for b in data):
        return None
    try:
        g = nx.from_graph6_bytes(data)
    except (nx.NetworkXError, ValueError, IndexError):
        return None
    n = g.number_of_nodes()
    # re-encoding rejects nonzero padding bits, which networkx ignores
    if n == 0 or nx.to_graph6_bytes(g, header=False).rstrip(b"\n") != data:
        return None
    return nx.to_numpy_array(g, nodelist=range(n), dtype=np.int64)


def seidel(adj: np.ndarray) -> np.ndarray:
    n = adj.shape[0]
    return np.ones((n, n)) - np.eye(n) - 2.0 * adj


def bound(m: int, theorem: int) -> float:
    return ((m - 1) / m) ** theorem


def classify_spectrum(values: np.ndarray, m: int, theorem: int):
    """(verdict, margin) of a graph from its Seidel eigenvalues."""
    margin = float(np.abs(values).min()) - bound(m, theorem)
    if margin < -ZERO_TOL:
        return "hypothesis_failed", margin
    n_pos = int((values > ZERO_TOL).sum())
    n_neg = int((values < -ZERO_TOL).sum())
    balanced = n_pos == n_neg and n_pos + n_neg == len(values)
    return ("certified" if balanced else "refuted"), margin


def classify_line(line: str, m: int, theorem: int, max_order: int):
    """(verdict, margin) of one catalog line; margin is None before a solve."""
    adj = decode(line)
    if adj is None:
        return "parse_failed", None
    factor = m if theorem == 1 else m * m
    if factor * adj.shape[0] > max_order:
        return "skipped", None
    return classify_spectrum(np.linalg.eigvalsh(seidel(adj)), m, theorem)


def pair_adjacency(adj: np.ndarray, m: int, theorem: int):
    """Adjacency matrices of the two members of the theorem's pair."""
    ones = np.ones((m, m), dtype=np.int64)

    def independent(a):
        return np.kron(ones, a)

    def clique(a):
        eye = np.eye(a.shape[0], dtype=np.int64)
        return np.kron(ones, a + eye) - np.eye(m * a.shape[0], dtype=np.int64)

    if theorem == 1:
        return independent(adj), clique(adj)
    return clique(independent(adj)), independent(clique(adj))


def pair_energies(adj: np.ndarray, m: int, theorem: int):
    a, b = pair_adjacency(adj, m, theorem)
    return tuple(float(np.abs(np.linalg.eigvalsh(seidel(x))).sum())
                 for x in (a, b))


def certificate_problems(cert: dict, line: str, m: int, theorem: int,
                         expected: str, exact_required: bool) -> list:
    """Reasons one certificate disagrees with the oracle (empty if none)."""
    problems = []
    hyp = cert["hypothesis"]
    if hyp["satisfied"]:
        kind = "certified"
    elif hyp["margin"] >= -ZERO_TOL:
        kind = "refuted"
    else:
        kind = "hypothesis_failed"
    if kind != expected:
        problems.append(f"verdict {kind}, oracle {expected}")
    if cert["closed_form_agrees"] is not True:
        problems.append("closed_form_agrees is not true")
    if cert["theorem_violation"] is not False:
        problems.append("theorem_violation is not false")
    if exact_required and cert["exact_multiplicities_verified"] is not True:
        problems.append("exact_multiplicities_verified is not true")
    energy_a, energy_b = pair_energies(decode(line), m, theorem)
    for got, want, name in ((cert["energy_a"], energy_a, "energy_a"),
                            (cert["energy_b"], energy_b, "energy_b")):
        if abs(got - want) > ENERGY_AGREE * max(1.0, want):
            problems.append(f"{name} {got!r}, oracle {want!r}")
    equienergetic = abs(energy_a - energy_b) <= ENERGY_TOL * max(1.0, energy_a)
    if cert["equienergetic"] != equienergetic:
        problems.append(f"equienergetic {cert['equienergetic']}, "
                        f"oracle {equienergetic}")
    return problems


def scan_report_problems(report: dict, lines: list, expected: list,
                         m: int, theorem: int) -> dict:
    """Map line number -> reasons, for every line the report gets wrong.

    ``lines`` is the catalog as written (line numbers start at 1, blank
    lines count); ``expected`` holds the oracle verdict of each line.
    """
    got = {}
    problems = {}

    def record(line_no, kind):
        if line_no in got:
            problems.setdefault(line_no, []).append("reported twice")
        got[line_no] = kind

    for entry in report["certificates"]:
        record(entry["line"], entry["kind"])
    for failure in report["failures"]:
        record(failure["line"], "parse_failed")
    for skip in report["skipped"]:
        record(skip["line"], "skipped")

    scanned = 0
    for line_no, (line, want) in enumerate(zip(lines, expected), start=1):
        if not line.strip():
            continue
        scanned += 1
        kind = got.pop(line_no, "hypothesis_failed")
        if kind != want:
            problems.setdefault(line_no, []).append(
                f"verdict {kind}, oracle {want}")
    for line_no in got:
        problems.setdefault(line_no, []).append("reported line not in catalog")
    if report["totals"]["scanned"] != scanned:
        problems.setdefault(0, []).append(
            f"scanned {report['totals']['scanned']}, catalog has {scanned}")

    for entry in report["certificates"]:
        line_no = entry["line"]
        if 1 <= line_no <= len(lines) and entry["kind"] == expected[line_no - 1]:
            reasons = certificate_problems(
                entry["certificate"], lines[line_no - 1], m, theorem,
                entry["kind"], exact_required=False)
            if reasons:
                problems.setdefault(line_no, []).extend(reasons)
    return problems
