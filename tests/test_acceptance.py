"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Expected values are frozen from independent oracles:
a plain-Python cyclic Jacobi eigensolver, exact integer polynomial
multiplication, and hand-expanded matrices; the closed-form constants for
the composed pair of K_3 at m=2 (energies 32 and 30) were verified both
ways (substitution and brute-force eigensolve).
"""

import math
import os
import time
from contextlib import contextmanager

import networkx as nx
import numpy as np

from seidelkit import (ScanConfig, blowup, certify, charpoly_exact,
                       clique_blowup, compare_spectra,
                       blowup_seidel_spectrum, clique_blowup_seidel_spectrum,
                       complement, graph_from_graph6, graph_to_graph6,
                       scan_stream, seidel_matrix, seidel_spectrum)
from seidelkit.spectral import integer_root_multiplicity
from conftest import (from_nx, jacobi_desc, jacobi_member, random_simple_graph,
                      report_text, seidel_of)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


def test_criterion_1_complete_graph_baseline():
    with criterion(1, "complete-graph spectra and energies, n = 2..12"):
        start = time.perf_counter()
        for n in range(2, 13):
            g = from_nx(nx.complete_graph(n))
            spec = seidel_spectrum(g)
            expected = [1.0] * (n - 1) + [float(1 - n)]
            assert np.allclose(spec.values, expected, atol=1e-9)
            poly = charpoly_exact(seidel_matrix(g))
            assert integer_root_multiplicity(poly, 1) == n - 1
            assert integer_root_multiplicity(poly, 1 - n) == 1
            assert abs(spec.energy() - (2 * n - 2)) <= 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_2_lemma_equivalence_exhaustive(catalog_graphs):
    with criterion(2, "closed forms match numeric spectra and exact padding "
                      "multiplicities on the full n <= 6 catalog, m in {2, 3}"):
        for g in catalog_graphs:
            n = g.n
            sigma = seidel_spectrum(g)
            base_poly = charpoly_exact(seidel_matrix(g))
            mult_minus1 = integer_root_multiplicity(base_poly, -1)
            mult_plus1 = integer_root_multiplicity(base_poly, 1)
            for m in (2, 3):
                pad = m * n - n
                ga = blowup(g, m)
                gb = clique_blowup(g, m)
                cf_a = blowup_seidel_spectrum(sigma, m)
                cf_b = clique_blowup_seidel_spectrum(sigma, m)
                assert np.allclose(seidel_spectrum(ga).values, cf_a.values(),
                                   atol=1e-8)
                assert np.allclose(seidel_spectrum(gb).values, cf_b.values(),
                                   atol=1e-8)
                # exact multiplicities: the mapped part contributes one extra
                # -1 (resp. +1) per source eigenvalue exactly at -1 (resp. +1),
                # so the count is pad + (exact count in the source spectrum)
                pa = charpoly_exact(seidel_matrix(ga))
                pb = charpoly_exact(seidel_matrix(gb))
                got_a = integer_root_multiplicity(pa, -1)
                got_b = integer_root_multiplicity(pb, 1)
                assert got_a == pad + mult_minus1 and got_a >= pad
                assert got_b == pad + mult_plus1 and got_b >= pad


def test_criterion_3_equienergetic_family_from_k2():
    with criterion(3, "K_2 blow-up pairs are equienergetic with SE = 4m - 2 "
                      "for m = 2..5"):
        for m in range(2, 6):
            cert = certify(from_nx(nx.complete_graph(2)), m, 1)
            assert cert.hypothesis.satisfied
            assert cert.equienergetic
            assert abs(cert.energy_a - (4 * m - 2)) <= 1e-8
            assert abs(cert.energy_b - (4 * m - 2)) <= 1e-8
            assert not cert.cospectral
            assert cert.closed_form_agrees
            assert not cert.theorem_violation


def test_criterion_4_refutation_direction_k3():
    with criterion(4, "unbalanced K_3 at m = 2 yields energies 12 vs 10"):
        cert = certify(from_nx(nx.complete_graph(3)), 2, 1)
        assert cert.hypothesis.bound_met() and not cert.hypothesis.balanced
        assert abs(cert.energy_a - 12.0) <= 1e-8
        assert abs(cert.energy_b - 10.0) <= 1e-8
        assert abs(cert.energy_delta - 2.0) <= 1e-8
        assert not cert.equienergetic
        assert not cert.theorem_violation


def test_criterion_5_composed_pairs():
    with criterion(5, "composed pairs: K_2 at m=2 gives 18 = 18 and distinct "
                      "spectra; K_3 at m=2 gives 32 vs 30"):
        cert = certify(from_nx(nx.complete_graph(2)), 2, 2)
        # independent oracle: Jacobi eigensolve of the two 8-vertex members
        for kind, closed in zip(("t2-left", "t2-right"),
                                (cert.closed_a, cert.closed_b)):
            assert len(closed.values()) == 8
            assert np.allclose(jacobi_member(from_nx(nx.complete_graph(2)), 2,
                                             kind),
                               closed.values(), atol=1e-9)
        assert abs(cert.energy_a - 18.0) <= 1e-8
        assert abs(cert.energy_b - 18.0) <= 1e-8
        assert cert.equienergetic and not cert.cospectral
        assert not cert.theorem_violation

        cert3 = certify(from_nx(nx.complete_graph(3)), 2, 2)
        assert abs(cert3.energy_a - 32.0) <= 1e-8
        assert abs(cert3.energy_b - 30.0) <= 1e-8
        assert not cert3.equienergetic
        # independent oracle: Jacobi eigensolve of the two 12-vertex graphs
        left = clique_blowup(blowup(from_nx(nx.complete_graph(3)), 2), 2)
        right = blowup(clique_blowup(from_nx(nx.complete_graph(3)), 2), 2)
        assert abs(np.abs(jacobi_desc(seidel_of(left.adj))).sum() - 32.0) <= 1e-8
        assert abs(np.abs(jacobi_desc(seidel_of(right.adj))).sum() - 30.0) <= 1e-8


def test_criterion_6_sign_ledger_identities():
    with criterion(6, "absolute-gap identities on a 10,000-point grid"):
        start = time.perf_counter()
        per_m = 500
        count = 0
        for m in range(2, 12):
            bound = (m - 1) / m
            mags = bound + np.linspace(0.0, 10.0, per_m)
            sigma = np.concatenate([mags, -mags])
            gap = np.abs(m * sigma + (m - 1)) - np.abs(m * sigma - (m - 1))
            expected = 2 * (m - 1) * np.sign(sigma)
            assert np.max(np.abs(gap - expected)) <= 1e-12 * 2 * (m - 1)

            mags2 = bound ** 2 + np.linspace(0.0, 10.0, per_m)
            sigma2 = np.concatenate([mags2, -mags2])
            gap2 = (np.abs(m * m * sigma2 + (m - 1) ** 2)
                    - np.abs(m * m * sigma2 - (m - 1) ** 2))
            expected2 = 2 * (m - 1) ** 2 * np.sign(sigma2)
            assert np.max(np.abs(gap2 - expected2)) <= 1e-12 * 2 * (m - 1) ** 2
            count += 2 * per_m
        assert count == 10_000
        assert time.perf_counter() - start < 1.0


def test_criterion_7_global_seidel_invariants():
    with criterion(7, "trace, Frobenius, and complement invariants on 500 "
                      "random graphs"):
        rng = np.random.default_rng(20260810)
        for _ in range(500):
            n = int(rng.integers(1, 21))
            g = random_simple_graph(rng, n, p=float(rng.random()))
            spec = seidel_spectrum(g)
            assert abs(math.fsum(spec.values)) <= 1e-9 * n
            square_sum = math.fsum(v * v for v in spec.values)
            assert abs(square_sum - n * (n - 1)) <= 1e-8 * n * n
            assert abs(spec.energy()
                       - seidel_spectrum(complement(g)).energy()) <= 1e-8


def test_criterion_8_small_equienergetic_pair():
    with criterion(8, "K_3 and P_3 are equienergetic (SE = 4) and "
                      "non-cospectral"):
        k3, p3 = from_nx(nx.complete_graph(3)), from_nx(nx.path_graph(3))
        equal, delta, cospectral = compare_spectra(seidel_spectrum(k3),
                                                   seidel_spectrum(p3))
        assert equal and delta <= 1e-9
        assert abs(seidel_spectrum(k3).energy() - 4.0) <= 1e-9
        assert abs(seidel_spectrum(p3).energy() - 4.0) <= 1e-9
        assert not cospectral


def test_criterion_9_scan_determinism_and_oracle(catalog_lines, pool_starts):
    with criterion(9, "serial vs parallel scans of the n <= 6 catalog are "
                      "byte-identical and match a brute-force hypothesis pass"):
        serial = scan_stream(catalog_lines, ScanConfig(m=2), jobs=1)
        parallel = scan_stream(catalog_lines, ScanConfig(m=2), jobs=2)
        assert pool_starts == ([2] if (os.cpu_count() or 1) > 1 else [])
        assert report_text(serial) == report_text(parallel)

        # brute force with the independent Jacobi eigensolver
        expected = set()
        for line in catalog_lines:
            g = graph_from_graph6(line)
            eigs = jacobi_desc(seidel_of(np.asarray(g.adj)))
            bound_ok = min(abs(e) for e in eigs) >= 0.5 - 1e-7
            n_pos = sum(1 for e in eigs if e > 1e-7)
            n_neg = sum(1 for e in eigs if e < -1e-7)
            if bound_ok and n_pos == n_neg and n_pos + n_neg == len(eigs):
                expected.add(line)
        found = {e.block.graph6[e.row] for e in serial.certificates
                 if e.kind == "certified"}
        assert found == expected
        assert serial.totals["violations"] == 0


def test_criterion_10_graph6_codec_round_trip():
    with criterion(10, "graph6 round trip on 10,000 random graphs plus "
                       "fixed vectors"):
        assert graph_from_graph6("@") == from_nx(nx.empty_graph(1))
        assert graph_to_graph6(from_nx(nx.empty_graph(1))) == "@"
        assert graph_from_graph6("C~") == from_nx(nx.complete_graph(4))
        assert graph_to_graph6(from_nx(nx.complete_graph(4))) == "C~"
        rng = np.random.default_rng(62)
        for _ in range(10_000):
            n = int(rng.integers(1, 63))
            g = random_simple_graph(rng, n, p=float(rng.random()))
            assert graph_from_graph6(graph_to_graph6(g)) == g
