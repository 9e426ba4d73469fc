"""Seidel matrices, dense symmetric eigenvalues, energy, and an exact oracle.

The numeric path is LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``);
the exact path computes the integer characteristic polynomial with the
Faddeev-LeVerrier recurrence over Python big integers and reads integer
eigenvalue multiplicities off it by repeated synthetic division.  It backs
the ``charpoly`` command and is the tests' oracle for the numeric path and
for the certificates' eigenvector check (see :mod:`seidelkit.theory`).

Tolerances (module constants):

* ``NUM_TOL``   -- equality tolerance for eigenvalue comparisons.
* ``ZERO_TOL``  -- sign classification threshold for inertia, deliberately
                   looser than NUM_TOL so counts never flip on solver noise.
* ``GROUP_TOL`` -- clustering width when grouping eigenvalues into
                   (value, multiplicity) pairs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

__all__ = [
    "NUM_TOL",
    "ZERO_TOL",
    "GROUP_TOL",
    "ConvergenceError",
    "Spectrum",
    "Inertia",
    "IntPolynomial",
    "seidel_matrix",
    "sym_eigenvalues",
    "spectrum_from_values",
    "seidel_spectrum",
    "seidel_inertia",
    "charpoly_exact",
]

NUM_TOL = 1e-9
ZERO_TOL = 1e-7
GROUP_TOL = 1e-8

# Adjacent eigenvalue groups closer than this many widths get flagged as an
# ambiguous clustering.
_AMBIGUITY_FACTOR = 10

# Largest order ``charpoly_exact`` takes: 1.25 s at n = 60, 17 s at 100.
CHARPOLY_MAX_ORDER = 60


class ConvergenceError(RuntimeError):
    """The eigensolver failed to converge."""


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def seidel_matrix(g: Graph | np.ndarray, dtype=np.int64) -> np.ndarray:
    """Seidel matrix J - I - 2A of a graph, as int64 unless ``dtype`` is
    given; given an adjacency array, of it or of each matrix of its
    (B, n, n) stack.

    Zero diagonal; -1 for adjacent pairs, +1 for non-adjacent pairs.
    Built in one buffer: 1 - 2A, then the diagonal zeroed.
    """
    adj = g.adj if isinstance(g, Graph) else g
    s = adj.astype(dtype)
    s *= -2
    s += 1
    np.einsum("...ii->...i", s)[...] = 0
    return s


# ---------------------------------------------------------------------------
# Spectrum / inertia value objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of a symmetric matrix, sorted descending.

    ``groups`` clusters the values into (representative, multiplicity)
    pairs; ``grouping_ambiguous`` is set when two adjacent groups sit
    closer than 10x the clustering width, i.e. when the multiplicity
    report should not be trusted blindly.
    """

    values: tuple[float, ...]
    groups: tuple[tuple[float, int], ...]
    grouping_ambiguous: bool = False

    def energy(self) -> float:
        return math.fsum(abs(v) for v in self.values)

    def format_grouped(self) -> str:
        parts = [f"{_fmt_value(v)}^{mult}" for v, mult in self.groups]
        text = "{" + ", ".join(parts) + "}"
        if self.grouping_ambiguous:
            text += " [near-degenerate grouping]"
        return text


def _fmt_value(v: float) -> str:
    if abs(v - round(v)) <= NUM_TOL * max(1.0, abs(v)):
        return str(int(round(v)))
    return f"{v:.12g}"


def _cluster(values_desc: np.ndarray):
    if not len(values_desc):
        return (), False
    breaks = np.flatnonzero(values_desc[:-1] - values_desc[1:] > GROUP_TOL) + 1
    starts = np.concatenate(([0], breaks))
    sizes = np.append(breaks, len(values_desc)) - starts
    means = np.add.reduceat(values_desc, starts) / sizes
    gaps = means[:-1] - means[1:]
    ambiguous = bool((gaps < _AMBIGUITY_FACTOR * GROUP_TOL).any())
    return tuple(zip(means.tolist(), sizes.tolist())), ambiguous


def spectrum_from_values(values) -> Spectrum:
    """Wrap a plain list of eigenvalues in a :class:`Spectrum` (sorts it)."""
    arr = np.sort(np.asarray(values, dtype=float))[::-1]
    groups, ambiguous = _cluster(arr)
    return Spectrum(tuple(arr.tolist()), groups, ambiguous)


@dataclass(frozen=True)
class Inertia:
    """Counts of positive / zero / negative eigenvalues."""

    n_pos: int
    n_zero: int
    n_neg: int


def _sign_counts(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The inertia counts of each row of the (B, n) array ``values``, as
    three arrays: its eigenvalues above ZERO_TOL, within it, and below
    -ZERO_TOL."""
    pos = (values > ZERO_TOL).sum(axis=1)
    neg = (values < -ZERO_TOL).sum(axis=1)
    return pos, values.shape[1] - pos - neg, neg


# ---------------------------------------------------------------------------
# Eigensolver
# ---------------------------------------------------------------------------


def sym_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix via LAPACK (``eigvalsh``),
    sorted descending.  Given a (B, n, n) stack, all matrices are solved in
    one call, and the result is a (B, n) array of such rows.

    A LAPACK convergence failure (``LinAlgError``) is raised as
    :class:`ConvergenceError`.
    """
    a = np.asarray(mat)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    if not np.array_equal(a, a.swapaxes(-1, -2)):
        raise ValueError("matrix must be symmetric")
    try:
        values = np.linalg.eigvalsh(a.astype(np.float64))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    # eigvalsh returns each row ascending
    return values[..., ::-1]


def seidel_spectrum(g: Graph) -> Spectrum:
    """Eigenvalues of the Seidel matrix of a simple graph."""
    return spectrum_from_values(sym_eigenvalues(seidel_matrix(g)))


def seidel_inertia(g: Graph) -> Inertia:
    """Positive / zero / negative counts of the Seidel eigenvalues."""
    counts = _sign_counts(sym_eigenvalues(seidel_matrix(g)[None]))
    return Inertia(*(int(count[0]) for count in counts))


# ---------------------------------------------------------------------------
# Exact characteristic polynomial (big-integer Faddeev-LeVerrier)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Monic integer polynomial; coefficients from highest to lowest degree."""

    coefficients: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def format_text(self) -> str:
        n = self.degree
        terms = []
        for k, c in enumerate(self.coefficients):
            power = n - k
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}x" if power == 1 else f"{head}x^{power}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"

    def to_list(self) -> list[int]:
        return list(self.coefficients)


def _int_matmul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def charpoly_exact(mat) -> IntPolynomial:
    """Exact monic characteristic polynomial det(xI - M) of an integer matrix.

    Faddeev-LeVerrier over Python big integers: every intermediate matrix
    is integral and the per-step trace division is exact, so there is no
    rounding anywhere.  Cost is n matrix products, so an order over
    ``CHARPOLY_MAX_ORDER`` is refused before the first.
    """
    arr = np.asarray(mat)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    if not issubclass(arr.dtype.type, np.integer):
        raise ValueError("exact characteristic polynomial needs integer entries")
    n = arr.shape[0]
    if n > CHARPOLY_MAX_ORDER:
        raise ValueError(f"characteristic polynomial order {n} exceeds "
                         f"exact cap {CHARPOLY_MAX_ORDER}")
    a = [[int(v) for v in row] for row in arr]

    coeffs = [1]
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # M_1 = I
    for k in range(1, n + 1):
        b = _int_matmul(a, m)
        tr = sum(b[i][i] for i in range(n))
        q, r = divmod(-tr, k)
        if r:
            raise AssertionError("trace recurrence produced a non-integer")
        coeffs.append(q)
        if k < n:
            m = b
            for i in range(n):
                m[i][i] += q
    return IntPolynomial(tuple(coeffs))


def integer_root_multiplicity(p: IntPolynomial, r: int) -> int:
    """Largest k such that (x - r)^k divides p exactly (big-integer division)."""
    coeffs = list(p.coefficients)
    mult = 0
    while len(coeffs) > 1:
        quotient = []
        acc = 0
        for c in coeffs[:-1]:
            acc = acc * r + c
            quotient.append(acc)
        remainder = acc * r + coeffs[-1]
        if remainder != 0:
            break
        mult += 1
        coeffs = quotient
    if len(coeffs) == 1 and coeffs[0] == 0:
        raise ValueError("zero polynomial has no root multiplicity")
    return mult
