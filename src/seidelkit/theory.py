"""Closed-form Seidel spectra of the blow-up families and pair certification.

Each construction in ``graphs.KINDS`` is a sequence of twin steps.  A step
at multiplicity m maps every Seidel eigenvalue s to m*s + (m-1) for
independent twins, padding with -1, or to m*s - (m-1) for clique twins,
padding with +1 (``_closed_form`` composes the steps; README.md tabulates
the four results).

Both members of each pair share the same spectrum sum, and whenever every
|s_i| clears the bound ((m-1)/m for the single constructions, its square
for the composed ones) the absolute-value gap per eigenvalue collapses to
a constant of fixed sign:

    |m*s + (m-1)| - |m*s - (m-1)| = 2(m-1) * sign(s)

so the pair is equienergetic exactly when G has equally many positive and
negative Seidel eigenvalues and none at zero.  ``certify`` checks that
equivalence instance by instance, in both directions.  It solves only the
base Seidel matrix and proves each member's closed form exactly: by its
equitable quotient and by explicit integer padding eigenvectors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DEFAULT_MAX_DIM, KINDS, Graph, construct, graph_to_graph6
from .spectral import (NUM_TOL, ZERO_TOL, Inertia, Spectrum, classify_inertia,
                       seidel_matrix, spectrum_from_values, sym_eigenvalues)

__all__ = [
    "ENERGY_TOL",
    "ClosedFormSpectrum",
    "HypothesisReport",
    "Certificate",
    "blowup_seidel_spectrum",
    "clique_blowup_seidel_spectrum",
    "composed_blowup_seidel_spectra",
    "compare_spectra",
    "hypothesis_from_spectrum",
    "certify",
]

# Relative tolerance for declaring two Seidel energies equal.
ENERGY_TOL = 1e-8


# ---------------------------------------------------------------------------
# Closed-form spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Predicted spectrum: affinely mapped eigenvalues plus integer padding.

    ``mapped`` carries one value per source eigenvalue; ``padding`` is a
    list of (integer value, multiplicity) blocks.  Together they must
    account for every eigenvalue of the constructed graph (``order``).
    """

    mapped: tuple[float, ...]
    padding: tuple[tuple[int, int], ...]
    m: int
    order: int

    def __post_init__(self):
        total = len(self.mapped) + sum(mult for _, mult in self.padding)
        if total != self.order:
            raise ValueError(
                f"closed form accounts for {total} eigenvalues, expected {self.order}")

    def values(self) -> tuple[float, ...]:
        vals = list(self.mapped)
        for value, mult in self.padding:
            vals.extend([float(value)] * mult)
        vals.sort(reverse=True)
        return tuple(vals)

    def energy(self) -> float:
        return (math.fsum(abs(v) for v in self.mapped)
                + sum(abs(value) * mult for value, mult in self.padding))

    def format_grouped(self, digits: int = 12) -> str:
        return spectrum_from_values(self.values()).format_grouped(digits)


def _closed_form(sigma: Spectrum, m: int, n: int,
                 kind: str) -> tuple[ClosedFormSpectrum, int, int]:
    """Closed form of construct(G, m, kind) from the spectrum of G, with
    the integer scale and shift that map each eigenvalue of G.

    Each twin step maps S to J_m (x) (S + eps I) - eps I, with eps = +1 for
    independent and -1 for clique twins: every eigenvalue v, mapped or
    padding, becomes m*v + eps(m-1), and the step adds -eps with
    multiplicity (m-1) times the order before it.  The affine maps compose
    into one integer scale and shift, applied once per source eigenvalue.
    """
    if sigma.n != n:
        raise ValueError(f"spectrum has {sigma.n} values, expected {n}")
    if m < 2:
        raise ValueError(f"blow-up multiplicity must be >= 2, got {m}")
    scale, shift, padding, order = 1, 0, [], n
    for clique in KINDS[kind]:
        eps = -1 if clique else 1
        padding = [(m * v + eps * (m - 1), mult) for v, mult in padding]
        padding.append((-eps, (m - 1) * order))
        scale, shift, order = m * scale, m * shift + eps * (m - 1), m * order
    form = ClosedFormSpectrum(tuple(scale * s + shift for s in sigma.values),
                              tuple(padding), m, order)
    return form, scale, shift


def blowup_seidel_spectrum(sigma: Spectrum, m: int, n: int) -> ClosedFormSpectrum:
    """Seidel spectrum of blowup(G, m): s -> m*s + (m-1), padded with -1."""
    return _closed_form(sigma, m, n, "dm")[0]


def clique_blowup_seidel_spectrum(sigma: Spectrum, m: int, n: int) -> ClosedFormSpectrum:
    """Seidel spectrum of clique_blowup(G, m): s -> m*s - (m-1), padded with +1."""
    return _closed_form(sigma, m, n, "dmstar")[0]


def composed_blowup_seidel_spectra(sigma: Spectrum, m: int,
                                   n: int) -> tuple[ClosedFormSpectrum, ClosedFormSpectrum]:
    """Closed forms of clique_blowup(blowup(G,m),m) and blowup(clique_blowup(G,m),m)."""
    return (_closed_form(sigma, m, n, "t2-left")[0],
            _closed_form(sigma, m, n, "t2-right")[0])


# ---------------------------------------------------------------------------
# Pairwise checks
# ---------------------------------------------------------------------------


def compare_spectra(s1: Spectrum, s2: Spectrum) -> tuple[bool, float, bool]:
    """Pair verdicts from two known Seidel spectra: (equienergetic,
    |SE1 - SE2|, cospectral)."""
    return _pair_verdicts(s1.energy(), s2.energy(), s1.values, s2.values)


def _pair_verdicts(e1: float, e2: float, values1, values2):
    """Verdicts from energies and sorted values.  The energy verdict is
    relative: |e1 - e2| <= ENERGY_TOL * max(1, e1)."""
    delta = abs(e1 - e2)
    cospectral = len(values1) == len(values2) and bool(
        np.abs(np.subtract(values1, values2)).max(initial=0.0) <= NUM_TOL)
    return delta <= ENERGY_TOL * max(1.0, e1), delta, cospectral


# ---------------------------------------------------------------------------
# Hypothesis reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Eigenvalue-magnitude bound plus sign balance for one (G, m, power).

    ``bound`` is ((m-1)/m)**power; ``satisfied`` means the bound holds for
    every eigenvalue (within ZERO_TOL slack) *and* the inertia is balanced
    (equal positive/negative counts, no zero eigenvalue).  ``boundary``
    flags instances whose smallest |eigenvalue| sits within ZERO_TOL of
    the bound, where the verdict rests on the tolerance.
    """

    m: int
    bound: float
    min_abs_eigenvalue: float
    balanced: bool
    inertia: Inertia
    satisfied: bool
    margin: float
    boundary: bool

    def bound_met(self, zero_tol: float = ZERO_TOL) -> bool:
        return self.margin >= -zero_tol


def hypothesis_from_spectrum(sigma: Spectrum, m: int, power: int = 1,
                             zero_tol: float = ZERO_TOL) -> HypothesisReport:
    """Evaluate the magnitude bound and sign balance on a known spectrum."""
    if m < 2:
        raise ValueError(f"blow-up multiplicity must be >= 2, got {m}")
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    bound = ((m - 1) / m) ** power
    min_abs = sigma.min_abs()
    margin = min_abs - bound
    inertia = classify_inertia(sigma.values, zero_tol)
    satisfied = inertia.balanced and margin >= -zero_tol
    return HypothesisReport(
        m=m, bound=bound, min_abs_eigenvalue=min_abs,
        balanced=inertia.balanced, inertia=inertia, satisfied=satisfied,
        margin=margin, boundary=abs(margin) <= zero_tol)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Full record of one equienergy certification.

    ``theorem`` selects the construction pair: 1 compares blowup(G, m)
    against clique_blowup(G, m); 2 compares the two mixed double blow-ups.
    Energies and verdicts come from the closed forms.  ``closed_form_agrees``
    means both members' equitable quotients were proven, and
    ``exact_multiplicities_verified`` that their padding eigenvectors fill
    the rest of the space: with both, each closed form is its member's
    spectrum.  ``base_residual`` is the larger relative residual of the base
    eigensolve against trace 0 and squared Frobenius norm n(n-1).
    ``theorem_violation`` is true when the energies contradict the
    predicted equivalence (either direction); any such certificate means
    a bug or a genuine counterexample.
    """

    theorem: int
    graph6: str
    m: int
    hypothesis: HypothesisReport
    closed_a: ClosedFormSpectrum
    closed_b: ClosedFormSpectrum
    energy_a: float
    energy_b: float
    energy_delta: float
    equienergetic: bool
    cospectral: bool
    closed_form_agrees: bool
    exact_multiplicities_verified: bool
    base_residual: float
    theorem_violation: bool

    def render_text(self) -> str:
        hyp = self.hypothesis
        lines = [
            f"certificate (pair {self.theorem}, m={self.m}) for {self.graph6}",
            f"  hypothesis: min|eig|={hyp.min_abs_eigenvalue:.12g} "
            f"bound={hyp.bound:.12g} balanced={hyp.balanced} "
            f"satisfied={hyp.satisfied}"
            + (" [boundary]" if hyp.boundary else ""),
            f"  inertia: ({hyp.inertia.n_pos}, {hyp.inertia.n_zero}, "
            f"{hyp.inertia.n_neg})",
            f"  spectrum A: {self.closed_a.format_grouped()}",
            f"  spectrum B: {self.closed_b.format_grouped()}",
            f"  energies: {self.energy_a:.12g} vs {self.energy_b:.12g} "
            f"(delta {self.energy_delta:.12g})",
            f"  equienergetic={self.equienergetic} cospectral={self.cospectral}",
            f"  closed_form_agrees={self.closed_form_agrees} "
            f"exact_multiplicities_verified={self.exact_multiplicities_verified} "
            f"base_residual={self.base_residual:.3g}",
        ]
        if self.theorem_violation:
            lines.append("  THEOREM VIOLATION: observed energies contradict "
                         "the predicted equivalence")
        return "\n".join(lines)


def _padding_eigenvectors(n: int, m: int, steps: int):
    """Explicit integer eigenvectors of each padding block of a construction
    of ``steps`` twin steps on G of order n, in the closed form's block order.

    Vertex k*N + v of a twin step's result is copy k of vertex v of its
    order-N input (np.kron(J_m, X)).  Each step lifts the earlier blocks'
    vectors x to 1_m (x) x and adds its twin differences e_v - e_{kN+v},
    eigenvectors for -1 (independent) or +1 (clique twins).  The vectors do
    not depend on the twin type, so both members of a pair share them.  A
    block is (supports, signs): row j of supports lists the coordinates of
    vector j, and signs its entries.
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
    return blocks


def _exact_padding_ok(s: np.ndarray, padding, vectors) -> bool:
    """True when each block (value, mult) has mult vectors with x s = value x.

    The test gathers the support rows of s and runs in integer arithmetic.
    Only vectors with a private coordinate, which no other vector of the
    block touches, count, so the counted vectors are linearly independent.
    As s and its transpose share the characteristic polynomial, that proves
    value is a root of it of multiplicity at least mult.
    """
    for (value, mult), (supports, signs) in zip(padding, vectors):
        # row j: x_j s - value x_j
        residual = sum(sign * s[supports[:, t]] for t, sign in enumerate(signs))
        np.subtract.at(residual, (np.arange(len(supports))[:, None], supports),
                       value * signs)
        uses = np.bincount(supports.ravel(), minlength=len(s))
        passed = ~residual.any(axis=1) & (uses[supports] == 1).any(axis=1)
        if np.count_nonzero(passed) < mult:
            return False
    return True


def _cells_balanced(n: int, vectors) -> bool:
    """True when every padding vector sums to zero on every cell (the copies
    i = v mod n of base vertex v), so is orthogonal to the cell indicators."""
    for supports, signs in vectors:
        # entry j*n + v: the sum of vector j over cell v
        cells = np.arange(len(supports))[:, None] * n + supports % n
        if np.bincount(cells.ravel(),
                       np.broadcast_to(signs, supports.shape).ravel()).any():
            return False
    return True


def _padding_proven(s: np.ndarray, n: int, padding, vectors) -> bool:
    """True when the padding blocks, on cell-balanced vectors, span the
    orthogonal complement of the cells, of dimension len(s) - n: each block
    passes ``_exact_padding_ok``, the values are distinct (so the blocks are
    orthogonal to each other) and the multiplicities add up to len(s) - n."""
    values = [value for value, _ in padding]
    return (len(vectors) == len(set(values)) == len(values)
            and sum(mult for _, mult in padding) == len(s) - n
            and _exact_padding_ok(s, padding, vectors))


def _quotient_ok(s: np.ndarray, s_g: np.ndarray, scale: int, shift: int) -> bool:
    """True when the cells i mod n are an equitable partition of the
    symmetric matrix s with quotient Q = scale*S_G + shift*I: s P = P Q for
    the cell indicator matrix P, so the eigenvalues of Q, scale*sigma + shift
    over the spectrum sigma of G, are eigenvalues of s with multiplicity.
    """
    n = len(s_g)
    q = scale * s_g
    q.flat[::n + 1] += shift
    # row c*n + v of the cell sums against row v of q, for every copy c
    return bool((s.reshape(len(s), -1, n).sum(axis=1).reshape(-1, n, n)
                 == q).all())


def _prove_member(g: Graph, s_g: np.ndarray, sigma: Spectrum, m: int,
                  kind: str, vectors, max_dim: int):
    """Closed form of one member with its quotient and padding verdicts,
    both on one Seidel matrix, freed before the next member is built."""
    form, scale, shift = _closed_form(sigma, m, g.n, kind)
    s = seidel_matrix(construct(g, m, kind, max_dim))
    return (form, _quotient_ok(s, s_g, scale, shift),
            _padding_proven(s, g.n, form.padding, vectors))


# the two members of pair theorem t: the construction kinds of t twin steps
_MEMBERS = {t: tuple(kind for kind, steps in KINDS.items() if len(steps) == t)
            for t in (1, 2)}


def certify(g: Graph, m: int, theorem: int, max_dim: int = DEFAULT_MAX_DIM,
            sigma: Spectrum | None = None,
            hypothesis: HypothesisReport | None = None) -> Certificate:
    """Certify the single (theorem=1) or composed (theorem=2) pair of g.

    Theorem 1 compares blowup(g, m) against clique_blowup(g, m) (order
    m*n each), theorem 2 the two mixed double blow-ups (order m^2*n each).
    Only the base Seidel matrix is solved.  Each member is built, and its
    closed form is proven on its Seidel matrix in integer arithmetic, by
    the equitable quotient and by the padding eigenvectors; energies and
    verdicts come from the closed forms.  A caller that already holds the
    base spectrum ``sigma`` and the hypothesis report at the same m and
    theorem passes them in to avoid a re-solve.
    """
    if theorem not in _MEMBERS:
        raise ValueError("theorem must be 1 or 2")
    s_g = seidel_matrix(g)
    if sigma is None:
        sigma = sym_eigenvalues(s_g)
    hyp = hypothesis or hypothesis_from_spectrum(sigma, m, theorem)

    vectors = _padding_eigenvectors(g.n, m, theorem)
    (closed_a, quotient_a, padding_a), (closed_b, quotient_b, padding_b) = (
        _prove_member(g, s_g, sigma, m, kind, vectors, max_dim)
        for kind in _MEMBERS[theorem])
    energy_a, energy_b = closed_a.energy(), closed_b.energy()
    equienergetic, delta, cospectral = _pair_verdicts(
        energy_a, energy_b, closed_a.values(), closed_b.values())
    # the base solve against the trace, 0, and the squared Frobenius norm
    frobenius = g.n * (g.n - 1)
    residual = max(abs(sigma.total()) / max(1.0, sigma.energy()),
                   abs(math.fsum(v * v for v in sigma.values) - frobenius)
                   / max(1, frobenius))

    if hyp.satisfied:
        violation = not equienergetic
    elif hyp.bound_met():
        # bound holds but signs are unbalanced: the pair must NOT be
        # equienergetic
        violation = equienergetic
    else:
        violation = False

    return Certificate(
        theorem=theorem, graph6=graph_to_graph6(g), m=m, hypothesis=hyp,
        closed_a=closed_a, closed_b=closed_b,
        energy_a=energy_a, energy_b=energy_b, energy_delta=delta,
        equienergetic=equienergetic, cospectral=cospectral,
        closed_form_agrees=quotient_a and quotient_b,
        exact_multiplicities_verified=(_cells_balanced(g.n, vectors)
                                       and padding_a and padding_b),
        base_residual=residual,
        theorem_violation=violation)
