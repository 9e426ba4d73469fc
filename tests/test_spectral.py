"""Seidel matrix, LAPACK eigensolver, and exact charpoly oracle tests."""

import math

import networkx as nx
import numpy as np
import pytest

from seidelkit import (ZERO_TOL, ConvergenceError, IntPolynomial,
                       charpoly_exact, complement, seidel_inertia,
                       seidel_matrix, seidel_spectrum, spectrum_from_values,
                       sym_eigenvalues)
from seidelkit.cli import run
from seidelkit.spectral import _sign_counts, integer_root_multiplicity
from seidelkit.theory import _hypotheses
from conftest import (JacobiConvergenceError, from_nx, jacobi_desc, poly_eval,
                      poly_mul, random_simple_graph)


# -- matrices ------------------------------------------------------------------

def test_adjacency_matrix_basics():
    assert np.array_equal(from_nx(nx.complete_graph(2)).adj,
                          np.array([[0, 1], [1, 0]]))
    assert not from_nx(nx.empty_graph(4)).adj.any()


def test_seidel_matrix_identity():
    # the same int64 J - I - 2A from a Graph, its adjacency array and each
    # matrix of a (B, n, n) stack; an int64 stack is read, not overwritten
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_simple_graph(rng, int(rng.integers(1, 12)))
        n = g.n
        expected = (np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
                    - 2 * g.adj.astype(np.int64))
        stack = np.stack([g.adj] * 3).astype(np.int64)
        s = seidel_matrix(g)
        for got in (s, seidel_matrix(g.adj), *seidel_matrix(stack)):
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)
        assert np.array_equal(stack, np.stack([g.adj] * 3))
        assert not s.diagonal().any()
        off = s[~np.eye(n, dtype=bool)]
        assert np.isin(off, (-1, 1)).all()


def test_seidel_matrix_of_complete_graph():
    for n in (2, 3, 6):
        expected = np.eye(n, dtype=np.int64) - np.ones((n, n), dtype=np.int64)
        assert np.array_equal(seidel_matrix(from_nx(nx.complete_graph(n))),
                              expected)
        # empty graph: no adjacencies at all
        assert np.array_equal(seidel_matrix(from_nx(nx.empty_graph(n))),
                              -expected)


def test_seidel_matrix_negates_under_complement():
    rng = np.random.default_rng(17)
    for _ in range(15):
        g = random_simple_graph(rng, int(rng.integers(2, 12)))
        assert np.array_equal(seidel_matrix(complement(g)), -seidel_matrix(g))


# -- eigensolver ----------------------------------------------------------------

def test_eigenvalues_of_identity():
    values = sym_eigenvalues(np.eye(6))
    assert np.allclose(values, np.ones(6), atol=1e-12)
    assert spectrum_from_values(values).groups == ((1.0, 6),)


def test_sym_eigenvalues_is_one_array_path():
    # a single matrix is solved as a stack of one: same array, same bits
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 16):
        a = rng.integers(-3, 4, size=(n, n))
        a = a + a.T
        values = sym_eigenvalues(a)
        assert isinstance(values, np.ndarray) and values.shape == (n,)
        assert (np.diff(values) <= 0).all()
        stacked = sym_eigenvalues(a[None])
        assert stacked.shape == (1, n)
        assert values.tobytes() == stacked[0].tobytes()


def test_eigenvalues_match_lapack_oracle():
    # the package's LAPACK path against the independent Jacobi oracle
    rng = np.random.default_rng(99)
    for _ in range(40):
        n = int(rng.integers(1, 26))
        a = rng.integers(-3, 4, size=(n, n))
        a = a + a.T
        ours = sym_eigenvalues(a)
        assert np.allclose(ours, jacobi_desc(a), atol=1e-9)
    # float input
    a = rng.standard_normal((12, 12))
    a = a + a.T
    assert np.allclose(sym_eigenvalues(a), jacobi_desc(a), atol=1e-9)


def test_eigenvalues_deterministic():
    rng = np.random.default_rng(1234)
    a = rng.integers(-5, 6, size=(15, 15))
    a = a + a.T
    assert sym_eigenvalues(a).tobytes() == sym_eigenvalues(a).tobytes()
    # the Jacobi oracle's fixed rotation order makes it bit-for-bit too
    assert np.array_equal(jacobi_desc(a), jacobi_desc(a))


def test_eigenvalues_input_validation():
    with pytest.raises(ValueError):
        sym_eigenvalues(np.array([[1, 2], [0, 1]]))
    with pytest.raises(ValueError):
        sym_eigenvalues(np.zeros((2, 3)))


def test_convergence_failure_is_reported():
    # the Jacobi oracle refuses to return a truncated answer
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(JacobiConvergenceError):
        jacobi_desc(a, max_sweeps=0)


def test_lapack_failure_is_convergence_error(monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        sym_eigenvalues(np.eye(3))
    assert run(["spectrum", "C~"]) == 2
    assert "did not converge" in capsys.readouterr().err


def test_spectrum_trace_and_frobenius_invariants():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        n = int(rng.integers(1, 16))
        g = random_simple_graph(rng, n)
        spec = seidel_spectrum(g)
        assert len(spec.values) == n
        assert abs(math.fsum(spec.values)) <= 1e-9 * max(n, 1)
        sq = math.fsum(v * v for v in spec.values)
        assert abs(sq - n * (n - 1)) <= 1e-8 * n * n


# -- spectra of named graphs -----------------------------------------------------

def test_seidel_spectrum_complete_graphs():
    # {1^(n-1), 1-n}
    for n in (3, 4, 7):
        spec = seidel_spectrum(from_nx(nx.complete_graph(n)))
        expected = [1.0] * (n - 1) + [1.0 - n]
        assert np.allclose(spec.values, expected, atol=1e-9)
    assert (seidel_spectrum(from_nx(nx.complete_graph(4))).format_grouped()
            == "{1^3, -3^1}")


def test_seidel_spectrum_small_graphs():
    assert np.allclose(seidel_spectrum(from_nx(nx.empty_graph(1))).values,
                       [0.0], atol=1e-12)
    # P_3: charpoly x^3 - 3x - 2 = (x+1)^2 (x-2)
    assert np.allclose(seidel_spectrum(from_nx(nx.path_graph(3))).values,
                       [2, -1, -1], atol=1e-9)
    assert np.allclose(seidel_spectrum(from_nx(nx.complete_graph(3))).values,
                       [1, 1, -2], atol=1e-9)


def test_seidel_spectrum_c5():
    r5 = math.sqrt(5)
    spec = seidel_spectrum(from_nx(nx.cycle_graph(5)))
    assert np.allclose(spec.values, [r5, r5, 0.0, -r5, -r5], atol=1e-9)


def test_seidel_energy_values():
    for n in (2, 3, 4, 9):
        energy = seidel_spectrum(from_nx(nx.complete_graph(n))).energy()
        assert abs(energy - (2 * n - 2)) <= 1e-9
    for g, energy in [(nx.path_graph(3), 4.0), (nx.complete_graph(3), 4.0),
                      (nx.cycle_graph(5), 4 * math.sqrt(5))]:
        assert abs(seidel_spectrum(from_nx(g)).energy() - energy) <= 1e-9


def test_seidel_energy_invariant_under_complement():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_simple_graph(rng, int(rng.integers(2, 14)))
        assert abs(seidel_spectrum(g).energy()
                   - seidel_spectrum(complement(g)).energy()) <= 1e-8


def test_spectrum_negates_under_complement():
    rng = np.random.default_rng(37)
    for _ in range(15):
        g = random_simple_graph(rng, int(rng.integers(2, 12)))
        ours = np.array(seidel_spectrum(g).values)
        comp = np.array(seidel_spectrum(complement(g)).values)
        assert np.allclose(comp, -ours[::-1], atol=1e-9)


# -- inertia ----------------------------------------------------------------------

def test_inertia_cases():
    i2 = seidel_inertia(from_nx(nx.complete_graph(2)))
    assert (i2.n_pos, i2.n_zero, i2.n_neg) == (1, 0, 1)
    assert [count.tolist() for count in _sign_counts(
        np.array([[1.0, -1.0]]))] == [[1], [0], [1]]
    i3 = seidel_inertia(from_nx(nx.complete_graph(3)))
    assert (i3.n_pos, i3.n_zero, i3.n_neg) == (2, 0, 1)
    i5 = seidel_inertia(from_nx(nx.cycle_graph(5)))
    assert (i5.n_pos, i5.n_zero, i5.n_neg) == (2, 1, 2)
    # balance is the hypothesis check's: a zero eigenvalue spoils it
    for g, balanced in ((nx.complete_graph(2), True),
                        (nx.complete_graph(3), False), (nx.cycle_graph(5), False)):
        values = np.array([seidel_spectrum(from_nx(g)).values])
        assert _hypotheses(values, 2, 1)[1].balanced == [balanced]


def test_inertia_zero_tolerance():
    tol = ZERO_TOL
    values = np.array([[1.0, tol / 2, -tol / 2, -1.0],
                       [2 * tol, tol, -tol, -2 * tol]])
    counts = [count.tolist() for count in _sign_counts(values)]
    assert counts == [[1, 1], [2, 2], [1, 1]]
    # the hypothesis check counts signs with the same counter
    hypotheses = _hypotheses(values, 2, 1)[1]
    assert [hypotheses.n_pos, hypotheses.n_zero, hypotheses.n_neg] == counts


# -- grouping and formatting --------------------------------------------------------

def test_grouping_and_ambiguity_flag():
    spec = spectrum_from_values([1.0, 1.0 + 1e-12, -3.0])
    assert spec.groups == ((pytest.approx(1.0), 2), (-3.0, 1))
    assert not spec.grouping_ambiguous
    close = spectrum_from_values([5e-8, 0.0])
    assert len(close.groups) == 2
    assert close.grouping_ambiguous
    assert "near-degenerate" in close.format_grouped()


def test_format_non_integer_values():
    text = spectrum_from_values([math.sqrt(5), -math.sqrt(5)]).format_grouped()
    assert text == "{2.2360679775^1, -2.2360679775^1}"


# -- exact characteristic polynomial -------------------------------------------------

def test_charpoly_p3():
    p = charpoly_exact(seidel_matrix(from_nx(nx.path_graph(3))))
    assert p.coefficients == (1, 0, -3, -2)
    assert p.format_text() == "x^3 - 3x - 2"


def test_charpoly_zero_matrix():
    p = charpoly_exact(np.zeros((2, 2), dtype=int))
    assert p.coefficients == (1, 0, 0)


def test_charpoly_complete_graphs_against_product_oracle():
    # (x - 1)^(n-1) (x - (1 - n)) expanded by exact polynomial multiplication
    for n in range(2, 13):
        expected = [1]
        for _ in range(n - 1):
            expected = poly_mul(expected, [1, -1])
        expected = poly_mul(expected, [1, -(1 - n)])
        p = charpoly_exact(seidel_matrix(from_nx(nx.complete_graph(n))))
        assert p.to_list() == expected


def test_charpoly_rejects_non_integer_input():
    with pytest.raises(ValueError):
        charpoly_exact(np.eye(3))  # float dtype


def test_charpoly_constant_term_is_signed_determinant():
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        a = rng.integers(-3, 4, size=(n, n))
        a = a + a.T
        p = charpoly_exact(a)
        det = round(float(np.linalg.det(a)))
        assert p.coefficients[-1] == (-1) ** n * det


def test_integer_root_multiplicity_cases():
    p = IntPolynomial((1, 0, -3, -2))  # (x+1)^2 (x-2)
    assert integer_root_multiplicity(p, -1) == 2
    assert integer_root_multiplicity(p, 2) == 1
    assert integer_root_multiplicity(p, 3) == 0
    assert integer_root_multiplicity(IntPolynomial((1, 0, 0)), 0) == 2
    for n in (2, 5, 9):
        p = charpoly_exact(seidel_matrix(from_nx(nx.complete_graph(n))))
        assert integer_root_multiplicity(p, 1) == n - 1
        assert integer_root_multiplicity(p, 1 - n) == 1


def test_polynomial_evaluation_and_derivative():
    p = IntPolynomial((1, 0, -3, -2))
    assert poly_eval(p, 2) == 0 and poly_eval(p, -1) == 0
    assert poly_eval(p, 0) == -2


def test_numeric_eigenvalues_satisfy_exact_charpoly():
    # residues |p(sigma)| bounded by eigenvalue error times a derivative
    # bound on the surrounding interval
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        g = random_simple_graph(rng, n)
        p = charpoly_exact(seidel_matrix(g))
        spec = seidel_spectrum(g)
        for sigma in spec.values:
            radius = abs(sigma) + 1.0
            slope_bound = sum(
                (p.degree - k) * abs(c) * radius ** (p.degree - k - 1)
                for k, c in enumerate(p.coefficients[:-1]))
            assert abs(poly_eval(p, sigma)) <= 1e-8 * max(1.0, slope_bound)
        # integer-eigenvalue multiplicities from clustering match the oracle
        for value, mult in spec.groups:
            if abs(value - round(value)) < 1e-6:
                assert mult == integer_root_multiplicity(p, round(value))
