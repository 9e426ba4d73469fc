"""Closed-form blow-up spectra, hypothesis checks, and certification tests."""

import json
import math
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from seidelkit import (KINDS, ClosedFormSpectrum, Graph, ScanConfig, blowup,
                       blowup_seidel_spectrum, certify, charpoly_exact,
                       clique_blowup, clique_blowup_seidel_spectrum,
                       compare_spectra, complement,
                       composed_blowup_seidel_spectra, construct,
                       hypothesis_from_spectrum, scan_stream, seidel_matrix,
                       seidel_spectrum, spectrum_from_values, to_json)
from seidelkit import graph_from_graph6, graphs, spectral, theory
from seidelkit.cli import run
from seidelkit.spectral import ZERO_TOL, integer_root_multiplicity
from seidelkit.theory import _closed_forms, _member_proven
from conftest import (CERTIFICATE_KEYS, cells_balanced, check_json_object,
                      explicit_proofs, from_nx, jacobi_desc, jacobi_member,
                      padding_eigen_ok, padding_eigenvectors, poly_mul,
                      private_vectors, random_simple_graph,
                      stacked_member_proven, tile_twin_steps)


# -- closed-form spectra -------------------------------------------------------

def test_blowup_spectrum_k2():
    sigma = seidel_spectrum(from_nx(nx.complete_graph(2)))  # {1, -1}
    cf = blowup_seidel_spectrum(sigma, 2)
    assert np.allclose(cf.values(), [3, -1, -1, -1], atol=1e-9)
    # cross-check against a brute-force eigensolve of the constructed graph
    numeric = seidel_spectrum(blowup(from_nx(nx.complete_graph(2)), 2)).values
    assert np.allclose(cf.values(), numeric, atol=1e-9)


def test_blowup_spectrum_maps_zero_to_one():
    cf = blowup_seidel_spectrum(spectrum_from_values([0.0]), 2)
    assert cf.mapped == (1.0,)
    assert cf.padding == ((-1, 1),)


def test_blowup_spectrum_c5():
    r5 = math.sqrt(5)
    sigma = seidel_spectrum(from_nx(nx.cycle_graph(5)))
    cf = blowup_seidel_spectrum(sigma, 2)
    expected = sorted([2 * r5 + 1, 2 * r5 + 1, 1, 1 - 2 * r5, 1 - 2 * r5]
                      + [-1] * 5, reverse=True)
    assert np.allclose(cf.values(), expected, atol=1e-8)
    numeric = seidel_spectrum(blowup(from_nx(nx.cycle_graph(5)), 2)).values
    assert np.allclose(cf.values(), numeric, atol=1e-8)


def test_clique_blowup_spectrum_fixed_cases():
    # clique_blowup(K_2, 2) == K_4, whose Seidel spectrum is {1^3, -3}
    sigma = seidel_spectrum(from_nx(nx.complete_graph(2)))
    cf = clique_blowup_seidel_spectrum(sigma, 2)
    assert np.allclose(cf.values(), [1, 1, 1, -3], atol=1e-9)
    assert np.allclose(cf.values(),
                       seidel_spectrum(from_nx(nx.complete_graph(4))).values,
                       atol=1e-9)
    # clique_blowup(K_1, 3) == K_3
    cf = clique_blowup_seidel_spectrum(spectrum_from_values([0.0]), 3)
    assert np.allclose(cf.values(), [1, 1, -2], atol=1e-12)
    # eigenvalue at the bound maps to exactly zero
    for m in (2, 3, 5):
        cf = clique_blowup_seidel_spectrum(
            spectrum_from_values([(m - 1) / m]), m)
        assert abs(cf.mapped[0]) < 1e-12


def test_closed_form_padding_counts():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(2, 5))
        sigma = seidel_spectrum(random_simple_graph(rng, n))
        cf1 = blowup_seidel_spectrum(sigma, m)
        cf2 = clique_blowup_seidel_spectrum(sigma, m)
        assert cf1.padding == ((-1, m * n - n),)
        assert cf2.padding == ((1, m * n - n),)
        assert len(cf1.values()) == m * n == len(cf2.values())


def test_closed_form_argument_errors():
    sigma = spectrum_from_values([1.0, -1.0])
    with pytest.raises(ValueError):
        ClosedFormSpectrum((1.0,), ((1, 1),), 2, 5)  # counts do not add up


def test_composed_spectra_k2():
    sigma = seidel_spectrum(from_nx(nx.complete_graph(2)))
    left, right = composed_blowup_seidel_spectra(sigma, 2)
    assert np.allclose(left.values(), [5, 1, 1, 1, 1, -3, -3, -3], atol=1e-9)
    assert np.allclose(right.values(), [3, 3, 3, -1, -1, -1, -1, -5], atol=1e-9)
    assert abs(sum(map(abs, left.values())) - 18) < 1e-9
    assert abs(sum(map(abs, right.values())) - 18) < 1e-9
    # brute-force eigensolve of the two constructed 8-vertex graphs
    ga = clique_blowup(blowup(from_nx(nx.complete_graph(2)), 2), 2)
    gb = blowup(clique_blowup(from_nx(nx.complete_graph(2)), 2), 2)
    assert np.allclose(left.values(), seidel_spectrum(ga).values, atol=1e-8)
    assert np.allclose(right.values(), seidel_spectrum(gb).values, atol=1e-8)


def test_composed_spectra_k1():
    left, right = composed_blowup_seidel_spectra(spectrum_from_values([0.0]), 2)
    assert np.allclose(left.values(), [1, 1, 1, -3], atol=1e-12)
    assert np.allclose(right.values(), [3, -1, -1, -1], atol=1e-12)


def test_composed_spectra_multiplicity_telescope():
    for n, m in [(1, 2), (3, 2), (4, 3), (6, 2)]:
        sigma = spectrum_from_values(np.linspace(-2, 2, n))
        left, right = composed_blowup_seidel_spectra(sigma, m)
        for cf in (left, right):
            total = len(cf.mapped) + sum(mult for _, mult in cf.padding)
            assert total == m * m * n == cf.order


# README "The constructions", written out by hand: kind -> (s -> mapped
# value, padding blocks) for a source graph of order n
def _readme_table(m, n):
    return {
        "dm": (lambda s: m * s + (m - 1), ((-1, m * n - n),)),
        "dmstar": (lambda s: m * s - (m - 1), ((1, m * n - n),)),
        "t2-left": (lambda s: m * m * s + (m - 1) ** 2,
                    ((1 - 2 * m, m * n - n), (1, m * m * n - m * n))),
        "t2-right": (lambda s: m * m * s - (m - 1) ** 2,
                     ((2 * m - 1, m * n - n), (-1, m * m * n - m * n))),
    }


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 5))
    bits = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))
    adj = np.zeros((n, n), dtype=np.int8)
    adj[np.triu_indices(n, 1)] = bits
    return Graph(adj | adj.T)


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(small_graphs())
def test_closed_forms_match_readme_table_and_jacobi(g):
    sigma = seidel_spectrum(g)
    for m in (2, 3):
        left, right = composed_blowup_seidel_spectra(sigma, m)
        closed = {"dm": blowup_seidel_spectrum(sigma, m),
                  "dmstar": clique_blowup_seidel_spectrum(sigma, m),
                  "t2-left": left, "t2-right": right}
        table = _readme_table(m, g.n)
        assert set(closed) == set(table) == set(KINDS)
        for kind, cf in closed.items():
            mapped, padding = table[kind]
            assert cf.mapped == tuple(mapped(s) for s in sigma.values)
            assert cf.padding == padding
            # the independent path: Jacobi on the constructed graph
            oracle = jacobi_desc(seidel_matrix(construct(g, m, kind)))
            assert np.allclose(cf.values(), oracle, atol=1e-8)


def test_spectrum_sums_agree_between_constructions():
    # both single blow-ups share the spectrum sum m * sum(sigma)
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(2, 5))
        g = random_simple_graph(rng, n)
        sigma = seidel_spectrum(g)
        cf1 = blowup_seidel_spectrum(sigma, m)
        cf2 = clique_blowup_seidel_spectrum(sigma, m)
        target = m * math.fsum(sigma.values)
        total1, total2 = math.fsum(cf1.values()), math.fsum(cf2.values())
        assert abs(total1 - target) < 1e-9
        assert abs(total2 - target) < 1e-9
        assert abs(total1 - total2) < 1e-9


# -- pairwise checks -------------------------------------------------------------

def test_equienergetic_k3_p3():
    equal, delta, _ = compare_spectra(
        seidel_spectrum(from_nx(nx.complete_graph(3))),
        seidel_spectrum(from_nx(nx.path_graph(3))))
    assert equal and delta < 1e-9


def test_equienergetic_with_complement():
    rng = np.random.default_rng(47)
    for _ in range(8):
        g = random_simple_graph(rng, int(rng.integers(2, 10)))
        equal, delta, _ = compare_spectra(seidel_spectrum(g),
                                          seidel_spectrum(complement(g)))
        assert equal and delta < 1e-8


def test_not_equienergetic_k2_k3():
    equal, delta, _ = compare_spectra(
        seidel_spectrum(from_nx(nx.complete_graph(2))),
        seidel_spectrum(from_nx(nx.complete_graph(3))))
    assert not equal
    assert abs(delta - 2.0) < 1e-9


def test_cospectral_checks():
    def cospectral(g1, g2):
        return compare_spectra(seidel_spectrum(g1), seidel_spectrum(g2))[2]

    g = from_nx(nx.cycle_graph(5))
    assert cospectral(g, g)
    assert not cospectral(from_nx(nx.complete_graph(3)),
                          from_nx(nx.path_graph(3)))
    assert not cospectral(blowup(from_nx(nx.complete_graph(2)), 2),
                          clique_blowup(from_nx(nx.complete_graph(2)), 2))
    assert not cospectral(from_nx(nx.complete_graph(2)),
                          from_nx(nx.complete_graph(3)))


# -- hypothesis reports -----------------------------------------------------------

def test_hypothesis_k2():
    rep = hypothesis_from_spectrum(
        seidel_spectrum(from_nx(nx.complete_graph(2))), 2)
    assert rep.bound == 0.5
    assert abs(rep.min_abs_eigenvalue - 1.0) < 1e-9
    assert rep.balanced and rep.satisfied and not rep.boundary
    assert abs(rep.margin - 0.5) < 1e-9
    assert (rep.inertia.n_pos, rep.inertia.n_zero, rep.inertia.n_neg) == (1, 0, 1)


def test_hypothesis_fails_on_zero_eigenvalue():
    rep = hypothesis_from_spectrum(
        seidel_spectrum(from_nx(nx.cycle_graph(5))), 2)
    assert rep.min_abs_eigenvalue < 1e-9
    assert not rep.satisfied and not rep.balanced
    assert not rep.bound_met()


def test_hypothesis_k3_bound_met_but_unbalanced():
    rep = hypothesis_from_spectrum(
        seidel_spectrum(from_nx(nx.complete_graph(3))), 2)
    assert rep.bound_met()
    assert not rep.balanced
    assert not rep.satisfied


def test_hypothesis_boundary_flag():
    rep = hypothesis_from_spectrum(spectrum_from_values([0.5, -0.5]), 2, 1)
    assert rep.satisfied and rep.boundary
    assert abs(rep.margin) < 1e-12


def test_hypothesis_power_two_bound():
    rep = hypothesis_from_spectrum(spectrum_from_values([0.3, -0.3]), 2, 2)
    assert rep.bound == 0.25
    assert rep.satisfied


# Two graphs, at theorem 2, with exactly one Seidel eigenvalue under the bound
# (by an exact root count of the characteristic polynomial), whose margins
# the ZERO_TOL slack of the bound rule still accepts.
_UNDER_THE_BOUND = [
    pytest.param("cYIkFyyB_{Jq_QWMZuEl]}A@VgBhGhgvMannrai?hehwK}mVts_cfGhjlc"
                 "{DWPG~Noc{J`?YyEI|VnZM^QolUm|T`hOF[tpRAS]ie^PuOM", 2, id="W1"),
    pytest.param(r"gSbRiMA\ZOsmY~UrgV[pSkpnOJP}aVzh]MRZLU\mBPuOrKO]qrIen}_BZDJ"
                 r"zVn~{ycJsm]edWNs\~UOi{vJy?C?DrUUxkos]|FT~\ODdUq?@pxWPjzs_VV"
                 r"W@\_eDr@\DGim", 3, id="W2"),
]


@pytest.mark.parametrize("line, m", _UNDER_THE_BOUND)
def test_margins_under_the_bound_sit_in_the_slack(line, m):
    hyp = certify(graph_from_graph6(line), m, 2).hypothesis
    assert -ZERO_TOL <= hyp.margin < 0
    assert hyp.boundary


_SLACK = "the bound is met within ZERO_TOL slack, not decided exactly"


@pytest.mark.xfail(strict=True, reason=_SLACK)
@pytest.mark.parametrize("line, m", _UNDER_THE_BOUND)
def test_certify_refuses_the_hypothesis_under_the_bound(line, m):
    assert not certify(graph_from_graph6(line), m, 2).hypothesis.satisfied


@pytest.mark.xfail(strict=True, reason=_SLACK)
@pytest.mark.parametrize("line, m", _UNDER_THE_BOUND)
def test_scan_files_lines_under_the_bound_as_hypothesis_failed(line, m):
    report = scan_stream([line], ScanConfig(m=m, theorem=2))
    assert report.totals["hypothesis_failed"] == 1


# -- certificates ------------------------------------------------------------------

def test_certify_k2_family():
    for m in range(2, 6):
        cert = certify(from_nx(nx.complete_graph(2)), m, 1)
        assert cert.hypothesis.satisfied
        assert cert.equienergetic and not cert.cospectral
        assert abs(cert.energy_a - (4 * m - 2)) < 1e-8
        assert abs(cert.energy_b - (4 * m - 2)) < 1e-8
        assert cert.closed_form_agrees
        assert cert.exact_multiplicities_verified is True
        assert not cert.theorem_violation
        # spectra are {2m-1, -1^(2m-1)} and {1^(2m-1), 1-2m}; the Jacobi
        # oracle solves each member independently
        want_a = [2 * m - 1] + [-1] * (2 * m - 1)
        want_b = [1] * (2 * m - 1) + [1 - 2 * m]
        for kind, closed, want in (("dm", cert.closed_a, want_a),
                                   ("dmstar", cert.closed_b, want_b)):
            assert np.allclose(closed.values(), want, atol=1e-9)
            assert np.allclose(jacobi_member(from_nx(nx.complete_graph(2)), m,
                                             kind),
                               closed.values(), atol=1e-9)


def test_certify_k3_refutation_direction():
    cert = certify(from_nx(nx.complete_graph(3)), 2, 1)
    assert cert.hypothesis.bound_met()
    assert not cert.hypothesis.balanced
    assert abs(cert.energy_a - 12.0) < 1e-8
    assert abs(cert.energy_b - 10.0) < 1e-8
    assert abs(cert.energy_delta - 2.0) < 1e-8
    assert not cert.equienergetic
    assert cert.closed_form_agrees
    assert not cert.theorem_violation


def test_certify_k1_records_failed_hypothesis():
    cert = certify(from_nx(nx.empty_graph(1)), 2, 1)
    assert not cert.hypothesis.satisfied
    assert not cert.hypothesis.bound_met()
    assert not cert.theorem_violation  # no assertion outside the hypothesis


def test_certify_composed_k2():
    cert = certify(from_nx(nx.complete_graph(2)), 2, 2)
    assert cert.theorem == 2
    for kind, closed in (("t2-left", cert.closed_a),
                         ("t2-right", cert.closed_b)):
        assert len(closed.values()) == 8
        assert np.allclose(jacobi_member(from_nx(nx.complete_graph(2)), 2,
                                         kind),
                           closed.values(), atol=1e-9)
    assert abs(cert.energy_a - 18.0) < 1e-8
    assert abs(cert.energy_b - 18.0) < 1e-8
    assert cert.equienergetic and not cert.cospectral
    assert cert.closed_form_agrees
    assert cert.exact_multiplicities_verified is True
    assert not cert.theorem_violation


def test_certify_composed_k3():
    # substitution oracle: sigma = {1, 1, -2}, m = 2
    #   sum |4s + 1| = 5 + 5 + 7 = 17, padding 3*|1-2m| + 6*1 = 9 + 6
    #   sum |4s - 1| = 3 + 3 + 9 = 15, padding 3*|2m-1| + 6*1 = 9 + 6
    cert = certify(from_nx(nx.complete_graph(3)), 2, 2)
    assert abs(cert.energy_a - 32.0) < 1e-8
    assert abs(cert.energy_b - 30.0) < 1e-8
    assert not cert.equienergetic
    assert cert.closed_form_agrees
    assert not cert.theorem_violation
    # the proven closed forms sum to the same energies
    assert abs(sum(map(abs, cert.closed_a.values())) - 32.0) < 1e-12
    assert abs(sum(map(abs, cert.closed_b.values())) - 30.0) < 1e-12


def test_certify_dispatch():
    cert = certify(from_nx(nx.complete_graph(2)), 3, theorem=1)
    assert cert.theorem == 1 and cert.m == 3
    with pytest.raises(ValueError):
        certify(from_nx(nx.complete_graph(2)), 2, theorem=3)


def test_certify_verifies_exact_multiplicities_at_order_400():
    g = random_simple_graph(np.random.default_rng(400), 200)
    cert = certify(g, 2, 1)
    assert cert.closed_form_agrees
    assert cert.exact_multiplicities_verified is True


def test_certificate_padding_multiplicities_hold_exactly():
    rng = np.random.default_rng(53)
    for _ in range(6):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(2, 4))
        g = random_simple_graph(rng, n)
        pa = charpoly_exact(seidel_matrix(blowup(g, m)))
        pb = charpoly_exact(seidel_matrix(clique_blowup(g, m)))
        assert integer_root_multiplicity(pa, -1) >= m * n - n
        assert integer_root_multiplicity(pb, 1) >= m * n - n


# -- the proof of each member's closed form: one twin-row pass ----------------

def _member_args(g, m, kind):
    """(S_G, scale, shift, padding) of construct(g, m, kind)."""
    forms = _closed_forms(np.array([seidel_spectrum(g).values]), m, kind)
    return seidel_matrix(g), forms.scale, forms.shift, forms.padding


def _proofs(s, g, m, kind):
    """(quotient proven, padding proven) arrays for a stack s of Seidel
    matrices, each offered as construct(g, m, kind), by the package's pass
    on each matrix; s is left as it was, and the stacked pass and the
    explicit-vector oracle give the same verdicts."""
    s_g, scale, shift, padding = _member_args(g, m, kind)
    before = s.copy()
    verdicts = np.array([_member_proven(one, s_g, m, scale, shift, padding)
                         for one in s]).T
    assert np.array_equal(s, before)
    stack = np.repeat(s_g[None], len(s), axis=0)
    for oracle in (stacked_member_proven, explicit_proofs):
        for ours, theirs in zip(verdicts,
                                oracle(s, stack, m, scale, shift, padding)):
            assert np.array_equal(ours, theirs)
        assert np.array_equal(s, before)
    return verdicts


def _proof(s, g, m, kind):
    """(quotient proven, padding proven) for one Seidel matrix s."""
    quotient, padding = _proofs(s[None], g, m, kind)
    return bool(quotient[0]), bool(padding[0])


@pytest.mark.parametrize("power, m", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_exact_padding_check_agrees_with_charpoly(catalog_graphs, power, m):
    for g in catalog_graphs:
        # order <= 27 keeps each big-integer charpoly under a tenth of a second
        if g.n > 5 or m ** power * g.n > 27:
            continue
        for kind in theory._MEMBERS[power]:
            s = seidel_matrix(construct(g, m, kind))
            assert _proof(s, g, m, kind) == (True, True)
            s_g, scale, shift, padding = _member_args(g, m, kind)
            poly = charpoly_exact(s)
            # every block is a root of at least its multiplicity, and the
            # proof's factorisation holds exactly: charpoly(Q) times each
            # block's (x - value)^mult
            expected = list(charpoly_exact(scale * s_g
                                           + shift * np.eye(g.n, dtype=int))
                            .coefficients)
            for value, mult in padding:
                assert integer_root_multiplicity(poly, value) >= mult
                for _ in range(mult):
                    expected = poly_mul(expected, [1, -value])
            assert list(poly.coefficients) == expected


@pytest.mark.parametrize("power", [1, 2])
def test_exact_padding_check_rejects_corrupted_matrix(power):
    g, m = from_nx(nx.path_graph(4)), 2
    vectors = padding_eigenvectors(g.n, m, power)
    for kind in theory._MEMBERS[power]:
        s = seidel_matrix(construct(g, m, kind))
        padding = _member_args(g, m, kind)[3]
        assert _proof(s, g, m, kind) == (True, True)
        # every vertex lies on some twin difference of every step, so
        # flipping any symmetric off-diagonal pair, or setting a diagonal
        # entry, must break the padding: one stacked matrix per mutation;
        # the explicit vectors of every block break one by one
        rows, cols = np.triu_indices(len(s))
        bad = np.repeat(s[None], len(rows), axis=0)
        mutation = np.arange(len(rows))
        bad[mutation, rows, cols] = np.where(rows != cols, -s[rows, cols], 1)
        bad[mutation, cols, rows] = bad[mutation, rows, cols]
        assert not _proofs(bad, g, m, kind)[1].any()
        for block, vecs in zip(padding, vectors):
            assert not padding_eigen_ok(bad, [block], [vecs]).any()


@pytest.mark.parametrize("power", [1, 2])
def test_exact_padding_check_needs_enough_independent_vectors(power):
    g, m = from_nx(nx.cycle_graph(5)), 3
    vectors = padding_eigenvectors(g.n, m, power)
    for kind in theory._MEMBERS[power]:
        s = seidel_matrix(construct(g, m, kind))
        s_g, scale, shift, padding = _member_args(g, m, kind)
        for i, ((value, mult), (supports, signs)) in enumerate(
                zip(padding, vectors)):
            # step i adds (m-1) * n * m^i twin differences, each private
            assert len(supports) == mult == (m - 1) * g.n * m ** i
            assert private_vectors(supports).all()
            assert padding_eigen_ok(s[None], [(value, mult)],
                                    [(supports, signs)])[0]
            assert not padding_eigen_ok(s[None], [(value, mult + 1)],
                                        [(supports, signs)])[0]
            # listing every vector twice adds no independent one
            doubled = (np.concatenate([supports, supports]), signs)
            assert not padding_eigen_ok(s[None], [(value, mult)], [doubled])[0]
            # the pass asks each block for exactly its step's count
            for wrong in (mult - 1, mult + 1):
                changed = padding[:i] + ((value, wrong),) + padding[i + 1:]
                assert not _member_proven(s, s_g, m, scale, shift, changed)[1]


@pytest.mark.parametrize("kind", list(KINDS))
def test_member_proof_holds_and_breaks_under_mutation(kind):
    g, m = from_nx(nx.path_graph(4)), 2
    s = seidel_matrix(construct(g, m, kind))
    assert _proof(s, g, m, kind) == (True, True)

    # every flipped symmetric off-diagonal pair breaks the quotient, one
    # stacked matrix per flip
    rows, cols = np.triu_indices(len(s), 1)
    bad = np.repeat(s[None], len(rows), axis=0)
    mutation = np.arange(len(rows))
    bad[mutation, rows, cols] = bad[mutation, cols, rows] = -s[rows, cols]
    assert not _proofs(bad, g, m, kind)[0].any()

    # a wrong shift breaks the quotient
    s_g, scale, shift, padding = _member_args(g, m, kind)
    for wrong in (shift - 1, shift + 1, -shift):
        assert not _member_proven(s, s_g, m, scale, wrong, padding)[0]

    # a permuted vertex layout breaks the proof: vertex-major copies
    # (np.kron(X, J_m)) instead of copy-major ones, and a random relabelling
    order = len(s)
    shuffle = np.arange(order).reshape(-1, g.n).T.ravel()
    for perm in (shuffle, np.random.default_rng(7).permutation(order)):
        assert not np.array_equal(perm, np.arange(order))
        assert not all(_proof(s[np.ix_(perm, perm)], g, m, kind))


def test_padding_vector_off_the_cells_breaks_the_proof():
    # vertices 0 and 2 of the path 0-1-2 are independent twins, so e_0 - e_2
    # is an eigenvector of blowup(P_3, 2) for -1 with a private coordinate,
    # but it does not sum to zero on cells 0 and 2: the explicit oracle
    # counts it and only its cell balance refuses it.  The pass takes only
    # twin differences across copies, balanced by construction.
    g, m = from_nx(nx.path_graph(3)), 2
    s = seidel_matrix(construct(g, m, "dm"))
    padding = _member_args(g, m, "dm")[3]
    [(supports, signs)] = padding_eigenvectors(g.n, m, 1)
    assert supports[0].tolist() == [0, 3]
    moved = supports.copy()
    moved[0] = [0, 2]
    vectors = [(moved, signs)]
    assert private_vectors(moved).all()
    assert padding_eigen_ok(s[None], padding, vectors)[0]
    assert not cells_balanced(g.n, vectors)
    assert cells_balanced(g.n, [(supports, signs)])
    assert _proof(s, g, m, "dm") == (True, True)


def test_padding_proof_needs_the_full_count():
    g, m = from_nx(nx.cycle_graph(5)), 3
    s = seidel_matrix(construct(g, m, "t2-left"))
    s_g, scale, shift, padding = _member_args(g, m, "t2-left")

    def padding_proven(blocks):
        return _member_proven(s, s_g, m, scale, shift, blocks)[1]

    assert padding_proven(padding)
    # one block fewer, blocks out of step order, a repeated value, or a
    # block short of order - n in total
    (value, mult), (other, rest) = padding
    assert not padding_proven(padding[:1])
    assert not padding_proven(padding[::-1])
    assert not padding_proven(((value, mult), (value, rest)))
    assert not padding_proven(((value, mult - 1), (other, rest)))
    assert not padding_proven(((value, mult - 1), (other, rest + 1)))
    # a missing block leaves the quotient proven on its own
    assert _member_proven(s, s_g, m, scale, shift, padding)[0]

    # in value*I + tile(S_G) every twin difference is an eigenvector for
    # value, so only the distinct-value check refuses two blocks of it
    order, value = len(s), 1
    flat = value * np.eye(order, dtype=np.int64) + np.tile(s_g, (9, 9))
    blocks = ((value, mult), (value, rest))
    assert _member_proven(flat, s_g, m, order // g.n, value, blocks) == (
        True, False)
    for proof in (stacked_member_proven, explicit_proofs):
        quotient, twins = proof(flat[None], s_g[None], m, order // g.n, value,
                                blocks)
        assert quotient[0] and not twins[0]


_MUTATIONS = ["none", "flip", "swap", "bump", "value", "shift"]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(n=st.integers(1, 6), m=st.sampled_from([2, 3]),
       kind=st.sampled_from(list(KINDS)), mutation=st.sampled_from(_MUTATIONS),
       data=st.data())
def test_member_pass_matches_explicit_vector_oracle(n, m, kind, mutation,
                                                    data):
    bits = data.draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                              max_size=n * (n - 1) // 2))
    adj = np.zeros((n, n), dtype=np.int8)
    adj[np.triu_indices(n, 1)] = bits
    g = Graph(adj | adj.T)
    s = seidel_matrix(construct(g, m, kind))
    s_g, scale, shift, padding = _member_args(g, m, kind)
    order = len(s)
    pick = st.integers(0, order - 1)
    if mutation == "flip":
        i, j = data.draw(pick), data.draw(pick)
        s[i, j] = s[j, i] = -s[i, j] if i != j else s[i, j]
    elif mutation == "swap":
        i, j = data.draw(pick), data.draw(pick)
        s[[i, j]] = s[[j, i]]
        s[:, [i, j]] = s[:, [j, i]]
    elif mutation == "bump":
        i = data.draw(pick)
        s[i, i] += data.draw(st.sampled_from([-1, 1]))
    elif mutation == "value":
        i = data.draw(st.integers(0, len(padding) - 1))
        value, mult = padding[i]
        step = data.draw(st.sampled_from([-1, 1]))
        padding = padding[:i] + ((value + step, mult),) + padding[i + 1:]
    elif mutation == "shift":
        shift += data.draw(st.sampled_from([-1, 1]))
    before = s.copy()
    ours = _member_proven(s, s_g, m, scale, shift, padding)
    assert np.array_equal(s, before)
    for proof in (stacked_member_proven, explicit_proofs):
        oracle = proof(s[None], s_g[None], m, scale, shift, padding)
        assert list(ours) == [bool(v[0]) for v in oracle]
    if mutation == "none":
        assert ours == (True, True)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(n=st.integers(1, 9), m=st.sampled_from([2, 3, 4]),
       kind=st.sampled_from(list(KINDS)), data=st.data())
def test_kronecker_build_is_the_tile_build_and_its_proof_covers_each_graph(
        n, m, kind, data):
    bits = data.draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                              max_size=n * (n - 1) // 2))
    adj = np.zeros((n, n), dtype=np.int8)
    adj[np.triu_indices(n, 1)] = bits
    g = Graph(adj | adj.T)
    member = construct(g, m, kind)
    assert np.array_equal(member.adj, tile_twin_steps(g.adj, m, KINDS[kind]))
    # S_member = J_M (x) S_G + S_K (x) I_n, K the construction on one vertex
    k = seidel_matrix(construct(Graph(np.zeros((1, 1))), m, kind))
    s = seidel_matrix(member)
    assert np.array_equal(s, np.kron(np.ones_like(k), seidel_matrix(g))
                          + np.kron(k, np.eye(n, dtype=np.int64)))
    # the per-graph proof of the built member holds where the one proof of
    # its (m, kind) does, and that proof holds
    s_g, scale, shift, padding = _member_args(g, m, kind)
    verdicts = stacked_member_proven(s[None], s_g[None], m, scale, shift,
                                     padding)
    assert theory._kind_proven(m, kind) == (True, True)
    assert [bool(v[0]) for v in verdicts] == [True, True]


@pytest.fixture
def kind_proofs(monkeypatch):
    """``theory._kind_proven`` with its cache cleared before and after."""
    theory._kind_proven.cache_clear()
    yield theory._kind_proven
    monkeypatch.undo()
    theory._kind_proven.cache_clear()


def test_certify_holds_one_base_seidel_matrix(monkeypatch):
    # S is built in float64, the solver's type: with an int64 S and its
    # float64 copy, certify of G(1500, 1/2) peaked at 2.0 x 8n^2
    # (tracemalloc), built once at 1.13 x (its symmetry check's bool array)
    n = 1500
    rng = np.random.default_rng(17)
    adj = np.triu(rng.integers(0, 2, (n, n), dtype=np.int8), 1)
    g = Graph._trusted(adj | adj.T)
    solved, solve = [], theory.sym_eigenvalues
    monkeypatch.setattr(theory, "sym_eigenvalues",
                        lambda mat: solved.append(solve(mat)) or solved[-1])
    tracemalloc.start()
    try:
        cert = certify(g, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n
    # eigvalsh gets the same input as from the int64 matrix: the same
    # eigenvalues, bit for bit, and the same certificate
    monkeypatch.setattr(theory, "seidel_matrix", lambda adj, dtype=np.int64:
                        seidel_matrix(adj, np.int64 if dtype is np.float64
                                      else dtype))
    assert to_json(certify(g, 2, 1)) == to_json(cert)
    assert np.array_equal(solved[0], solved[1])


def test_kind_proof_builds_k_in_int8(kind_proofs):
    # K at M = 2000 as int64 alone is 30.5 MiB; int8 peaked at 7.6 MiB
    tracemalloc.start()
    try:
        assert kind_proofs(2000, "dm") == (True, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20
    k = graphs._twin_steps(np.zeros((1, 1), dtype=np.int8), 3, KINDS["t2-left"])
    assert np.array_equal(seidel_matrix(k, np.int8), seidel_matrix(k))
    assert seidel_matrix(k).dtype == np.int64


@pytest.mark.parametrize("theorem", [1, 2])
def test_corrupted_construction_fails_every_row_of_the_block(
        catalog_graphs, monkeypatch, kind_proofs, theorem):
    fives = [g for g in catalog_graphs if g.n == 5][:6]
    adj = np.stack([g.adj for g in fives])
    rows, block = theory._certify_block(adj, 2, theorem)
    assert rows.tolist() == list(range(len(fives)))
    clean = [block.certificate(k) for k in range(len(fives))]
    assert clean == [certify(g, 2, theorem) for g in fives]
    assert all(c.closed_form_agrees and c.exact_multiplicities_verified
               for c in clean)

    twin_steps = theory._twin_steps

    def corrupt_k(a, *args):
        k = twin_steps(a, *args).copy()
        k[0, 1] ^= 1  # one flipped edge of K
        k[1, 0] ^= 1
        return k

    kind_proofs.cache_clear()
    monkeypatch.setattr(theory, "_twin_steps", corrupt_k)
    _, corrupt = theory._certify_block(adj, 2, theorem)
    assert corrupt.closed_form_agrees == [False] * len(fives)
    assert corrupt.exact_multiplicities_verified == [False] * len(fives)
    assert corrupt.energy_a == block.energy_a
    assert corrupt.equienergetic == block.equienergetic


def test_no_member_is_built(catalog_lines, monkeypatch, kind_proofs):
    built = []

    def recording(adj, m, steps):
        built.append((adj.shape, m, tuple(steps)))
        return twin_steps(adj, m, steps)

    twin_steps = graphs._twin_steps
    for module in (graphs, theory):
        monkeypatch.setattr(module, "_twin_steps", recording)
    for theorem, m in ((1, 2), (2, 2), (1, 3)):
        report = scan_stream(catalog_lines, ScanConfig(m=m, theorem=theorem))
        assert report.totals["certified"]
        certify(from_nx(nx.path_graph(4)), m, theorem)
    cert = certify(from_nx(nx.path_graph(4)), 3, 2)
    assert cert.closed_form_agrees and cert.exact_multiplicities_verified
    # K alone, at n = 1, once per (m, kind): no graph or stack of graphs
    assert built == [((1, 1), m, KINDS[kind])
                     for theorem, m in ((1, 2), (2, 2), (1, 3), (2, 3))
                     for kind in theory._MEMBERS[theorem]]


@pytest.mark.parametrize("theorem", [1, 2])
def test_certify_solves_only_the_base_matrix(monkeypatch, theorem):
    solved = []
    original = spectral.sym_eigenvalues

    def counting(mat, *args, **kwargs):
        solved.append(np.asarray(mat).shape)
        return original(mat, *args, **kwargs)

    for module in (spectral, theory):
        monkeypatch.setattr(module, "sym_eigenvalues", counting)
    cert = certify(from_nx(nx.path_graph(4)), 3, theorem)
    assert cert.closed_form_agrees and cert.exact_multiplicities_verified
    # one stacked solve of the base matrix alone: no Spectrum is built
    assert solved == [(1, 4, 4)]


def test_certify_refuses_an_order_over_the_cap_before_solving(monkeypatch):
    def unreachable(mat):
        raise AssertionError("certify solved a matrix")

    monkeypatch.setattr(theory, "sym_eigenvalues", unreachable)
    with pytest.raises(ValueError,
                       match="blow-up order 10002 exceeds dimension cap 10000"):
        certify(from_nx(nx.complete_graph(2)), 5001, 1)


_K2 = from_nx(nx.complete_graph(2))
_SIGMA = spectrum_from_values([1.0, -1.0])  # the Seidel spectrum of K2
_THEOREM = "theorem must be 1 or 2, got 3"
_MULTIPLICITY = "blow-up multiplicity must be >= 2, got 1"
_INT64 = "blow-up multiplicity must be >= 2, got np.int64(2)"
_BOOL = "theorem must be 1 or 2, got True"


def _over(order):
    return f"blow-up order {order} exceeds dimension cap 10000"


# every public entry that takes m, at m = 1, at theorem (or power) 3 where
# it takes one, and at an order over the cap where it builds something:
# K2 at m = 5001 is order 10002, at m = 71 and two twin steps 10082
_ARGUMENT_CASES = {
    "construct-m1": (lambda: construct(_K2, 1, "dm"), _MULTIPLICITY),
    "construct-cap1": (lambda: construct(_K2, 5001, "dmstar"), _over(10002)),
    "construct-cap2": (lambda: construct(_K2, 71, "t2-right"), _over(10082)),
    "blowup-m1": (lambda: blowup(_K2, 1), _MULTIPLICITY),
    "blowup-cap": (lambda: blowup(_K2, 5001), _over(10002)),
    "clique_blowup-m1": (lambda: clique_blowup(_K2, 1), _MULTIPLICITY),
    "clique_blowup-cap": (lambda: clique_blowup(_K2, 5001), _over(10002)),
    "certify-m1": (lambda: certify(_K2, 1, 1), _MULTIPLICITY),
    "certify-theorem3": (lambda: certify(_K2, 2, 3), _THEOREM),
    "certify-cap1": (lambda: certify(_K2, 5001, 1), _over(10002)),
    "certify-cap2": (lambda: certify(_K2, 71, 2), _over(10082)),
    "blowup_seidel_spectrum-m1": (
        lambda: blowup_seidel_spectrum(_SIGMA, 1), _MULTIPLICITY),
    "blowup_seidel_spectrum-cap": (
        lambda: blowup_seidel_spectrum(_SIGMA, 5001), _over(10002)),
    "clique_blowup_seidel_spectrum-m1": (
        lambda: clique_blowup_seidel_spectrum(_SIGMA, 1), _MULTIPLICITY),
    "clique_blowup_seidel_spectrum-cap": (
        lambda: clique_blowup_seidel_spectrum(_SIGMA, 5001), _over(10002)),
    "composed_blowup_seidel_spectra-m1": (
        lambda: composed_blowup_seidel_spectra(_SIGMA, 1), _MULTIPLICITY),
    "composed_blowup_seidel_spectra-cap": (
        lambda: composed_blowup_seidel_spectra(_SIGMA, 71), _over(10082)),
    "hypothesis_from_spectrum-m1": (
        lambda: hypothesis_from_spectrum(_SIGMA, 1), _MULTIPLICITY),
    "hypothesis_from_spectrum-power3": (
        lambda: hypothesis_from_spectrum(_SIGMA, 2, 3), _THEOREM),
    "ScanConfig-m1": (lambda: ScanConfig(m=1), _MULTIPLICITY),
    "ScanConfig-theorem3": (lambda: ScanConfig(m=2, theorem=3), _THEOREM),
    "ScanConfig-cap": (lambda: ScanConfig(m=2, max_order=10001),
                       "max_order 10001 exceeds the construction cap 10000"),
    # an int of another type: True passed for 1, a numpy integer for 2
    "certify-m-int64": (lambda: certify(_K2, np.int64(2), 1), _INT64),
    "certify-theorem-bool": (lambda: certify(_K2, 2, True), _BOOL),
    "ScanConfig-m-int64": (lambda: ScanConfig(m=np.int64(2)), _INT64),
    "ScanConfig-theorem-bool": (lambda: ScanConfig(m=2, theorem=True), _BOOL),
    "ScanConfig-max_order-bool": (
        lambda: ScanConfig(m=2, max_order=True),
        "max_order must be a positive int, got True"),
}


@pytest.mark.parametrize("case", _ARGUMENT_CASES)
def test_every_entry_checks_its_arguments_by_one_rule(case, monkeypatch):
    call, message = _ARGUMENT_CASES[case]

    def unreachable(mat):
        raise AssertionError("a refused call solved a matrix")

    # refused before anything is solved, certify's base included
    monkeypatch.setattr(theory, "sym_eigenvalues", unreachable)
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def test_entries_that_build_nothing_accept_any_order():
    # m**theorem over the cap: the scan skips every line on its own order
    config = ScanConfig(m=200, theorem=2)
    report = scan_stream(["A_", "C~"], config)
    assert report.totals["skipped"] == report.totals["scanned"] == 2
    assert [skip.order for skip in report.skipped] == [80000, 160000]
    # a hypothesis report is no construction
    for m, power in ((5001, 1), (71, 2)):
        rep = hypothesis_from_spectrum(_SIGMA, m, power)
        assert rep.bound == ((m - 1) / m) ** power and rep.satisfied


def test_base_residual_measures_the_base_solve(monkeypatch):
    g = random_simple_graph(np.random.default_rng(11), 12)
    cert = certify(g, 2, 1)
    assert 0.0 <= cert.base_residual <= 1e-12
    # an eigenvalue off by 1e-6 shows in the trace residual
    solve = theory.sym_eigenvalues

    def shifted(mat):
        values = solve(mat).copy()
        values[:, 0] += 1e-6
        return values

    monkeypatch.setattr(theory, "sym_eigenvalues", shifted)
    assert certify(g, 2, 1).base_residual > 1e-8


def test_certificate_json_round_trip(capsys):
    cert = certify(from_nx(nx.complete_graph(3)), 2, 1)
    doc = json.loads(to_json(cert))
    check_json_object(doc, cert, CERTIFICATE_KEYS)

    # the certify command emits the same certificate format
    assert run(["certify", "--theorem", "2", "--m", "2", "Bw"]) == 0
    check_json_object(json.loads(capsys.readouterr().out),
                      certify(from_nx(nx.complete_graph(3)), 2, 2),
                      CERTIFICATE_KEYS)


def test_certificate_text_rendering():
    cert = certify(from_nx(nx.complete_graph(2)), 2, 1)
    text = cert.render_text()
    assert "equienergetic=True" in text
    assert "A_" in text
    assert "VIOLATION" not in text


# -- sign ledger and the equivalence, small scale ----------------------------------

def test_sign_ledger_spot_checks():
    for m in (2, 3, 5):
        for sigma in (0.9, 1.5, -(m - 1) / m, (m - 1) / m, -2.75):
            if abs(sigma) < (m - 1) / m:
                continue
            gap = abs(m * sigma + (m - 1)) - abs(m * sigma - (m - 1))
            assert gap == pytest.approx(2 * (m - 1) * math.copysign(1, sigma),
                                        rel=1e-12)


def test_equivalence_both_directions_on_catalog(catalog_graphs):
    # every catalog graph clearing the bound: balanced <=> equienergetic
    m = 2
    checked_pos = checked_neg = 0
    for g in catalog_graphs:
        rep = hypothesis_from_spectrum(seidel_spectrum(g), m)
        if not rep.bound_met():
            continue
        cert = certify(g, m, 1)
        assert not cert.theorem_violation
        if rep.satisfied:
            assert cert.equienergetic
            checked_pos += 1
        else:
            assert not cert.equienergetic
            checked_neg += 1
    assert checked_pos > 0 and checked_neg > 0
