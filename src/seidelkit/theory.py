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
equivalence instance by instance, in both directions, against numeric
spectra, their closed forms, and, at every order, exact integer
eigenvectors of the padding eigenvalues.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DEFAULT_MAX_DIM, KINDS, Graph, construct, graph_to_graph6
from .spectral import (GROUP_TOL, NUM_TOL, ZERO_TOL, Inertia, Spectrum,
                       classify_inertia, seidel_matrix, seidel_spectrum,
                       spectrum_from_values, sym_eigenvalues)

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

    def total(self) -> float:
        return (math.fsum(self.mapped)
                + sum(value * mult for value, mult in self.padding))

    def as_spectrum(self, group_tol: float = GROUP_TOL) -> Spectrum:
        return spectrum_from_values(self.values(), group_tol)

    def format_grouped(self, digits: int = 12) -> str:
        return self.as_spectrum().format_grouped(digits)


def _closed_form(sigma: Spectrum, m: int, n: int, kind: str) -> ClosedFormSpectrum:
    """Closed form of construct(G, m, kind) from the spectrum of G.

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
    return ClosedFormSpectrum(tuple(scale * s + shift for s in sigma.values),
                              tuple(padding), m, order)


def blowup_seidel_spectrum(sigma: Spectrum, m: int, n: int) -> ClosedFormSpectrum:
    """Seidel spectrum of blowup(G, m): s -> m*s + (m-1), padded with -1."""
    return _closed_form(sigma, m, n, "dm")


def clique_blowup_seidel_spectrum(sigma: Spectrum, m: int, n: int) -> ClosedFormSpectrum:
    """Seidel spectrum of clique_blowup(G, m): s -> m*s - (m-1), padded with +1."""
    return _closed_form(sigma, m, n, "dmstar")


def composed_blowup_seidel_spectra(sigma: Spectrum, m: int,
                                   n: int) -> tuple[ClosedFormSpectrum, ClosedFormSpectrum]:
    """Closed forms of clique_blowup(blowup(G,m),m) and blowup(clique_blowup(G,m),m)."""
    return (_closed_form(sigma, m, n, "t2-left"),
            _closed_form(sigma, m, n, "t2-right"))


# ---------------------------------------------------------------------------
# Pairwise checks
# ---------------------------------------------------------------------------


def compare_spectra(s1: Spectrum, s2: Spectrum, energy_tol: float = ENERGY_TOL,
                    num_tol: float = NUM_TOL) -> tuple[bool, float, bool]:
    """Pair verdicts from two known Seidel spectra.

    Returns (equienergetic, |SE1 - SE2|, cospectral).  The energy verdict
    is relative: |SE1 - SE2| <= energy_tol * max(1, SE1).
    """
    e1 = s1.energy()
    delta = abs(e1 - s2.energy())
    return (delta <= energy_tol * max(1.0, e1), delta,
            _values_close(s1.values, s2.values, num_tol))


def _values_close(a, b, tol: float) -> bool:
    return len(a) == len(b) and bool(
        np.abs(np.subtract(a, b)).max(initial=0.0) <= tol)


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
    ``theorem_violation`` is true when the observed energies contradict
    the predicted equivalence (either direction); any such certificate
    means a solver bug or a genuine counterexample.
    """

    theorem: int
    graph6: str
    m: int
    hypothesis: HypothesisReport
    spectrum_a: Spectrum
    spectrum_b: Spectrum
    closed_a: ClosedFormSpectrum
    closed_b: ClosedFormSpectrum
    energy_a: float
    energy_b: float
    energy_delta: float
    equienergetic: bool
    cospectral: bool
    closed_form_agrees: bool
    exact_multiplicities_verified: bool | None
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
            f"  spectrum A: {self.spectrum_a.format_grouped()}",
            f"  spectrum B: {self.spectrum_b.format_grouped()}",
            f"  energies: {self.energy_a:.12g} vs {self.energy_b:.12g} "
            f"(delta {self.energy_delta:.12g})",
            f"  equienergetic={self.equienergetic} cospectral={self.cospectral}",
            f"  closed_form_agrees={self.closed_form_agrees} "
            f"exact_multiplicities_verified={self.exact_multiplicities_verified}",
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


def _solve_member(graph: Graph, padding, vectors):
    """Spectrum of one constructed member and, given ``vectors``, its exact
    padding verdict, both on one Seidel matrix, freed before the next."""
    s = seidel_matrix(graph)
    spectrum = sym_eigenvalues(s)
    return spectrum, vectors is not None and _exact_padding_ok(s, padding, vectors)


# the two members of pair theorem t: the construction kinds of t twin steps
_MEMBERS = {t: tuple(kind for kind, steps in KINDS.items() if len(steps) == t)
            for t in (1, 2)}


def certify(g: Graph, m: int, theorem: int, exact: bool = True,
            max_dim: int = DEFAULT_MAX_DIM, sigma: Spectrum | None = None,
            hypothesis: HypothesisReport | None = None) -> Certificate:
    """Certify the single (theorem=1) or composed (theorem=2) pair of g.

    Theorem 1 compares blowup(g, m) against clique_blowup(g, m) (order
    m*n each), theorem 2 the two mixed double blow-ups (order m^2*n each).
    Numeric spectra of both members are checked against their closed
    forms; when ``exact`` is set, the padding multiplicities are certified
    exactly by explicit integer eigenvectors.  A caller that already holds
    the base spectrum ``sigma`` and the hypothesis report at the same m
    and theorem passes them in to avoid a re-solve.
    """
    if theorem not in _MEMBERS:
        raise ValueError("theorem must be 1 or 2")
    if sigma is None:
        sigma = seidel_spectrum(g)
    hyp = hypothesis or hypothesis_from_spectrum(sigma, m, theorem)

    vectors = _padding_eigenvectors(g.n, m, theorem) if exact else None
    closed, spectra, exact_ok = [], [], exact or None
    for kind in _MEMBERS[theorem]:
        cf = _closed_form(sigma, m, g.n, kind)
        spectrum, member_ok = _solve_member(construct(g, m, kind, max_dim),
                                            cf.padding, vectors)
        closed.append(cf)
        spectra.append(spectrum)
        exact_ok = exact_ok and member_ok
    (closed_a, closed_b), (spec_a, spec_b) = closed, spectra
    equienergetic, delta, cospectral = compare_spectra(spec_a, spec_b)
    agrees = (_values_close(spec_a.values, closed_a.values(), NUM_TOL)
              and _values_close(spec_b.values, closed_b.values(), NUM_TOL))

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
        spectrum_a=spec_a, spectrum_b=spec_b,
        closed_a=closed_a, closed_b=closed_b,
        energy_a=spec_a.energy(), energy_b=spec_b.energy(),
        energy_delta=delta,
        equienergetic=equienergetic, cospectral=cospectral,
        closed_form_agrees=agrees,
        exact_multiplicities_verified=exact_ok,
        theorem_violation=violation)
