"""Seidel matrices, dense symmetric eigenvalues, energy, and an exact oracle.

The numeric path is LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``);
the exact path computes the integer characteristic polynomial with the
Faddeev-LeVerrier recurrence over Python big integers and reads integer
eigenvalue multiplicities off it by repeated synthetic division.  It backs
the ``charpoly`` command and is the tests' oracle for the numeric path and
for the certificates' eigenvector check (see :mod:`seidelkit.theory`).

Tolerances (module defaults):

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
    "seidel_energy",
    "seidel_inertia",
    "classify_inertia",
    "charpoly_exact",
]

NUM_TOL = 1e-9
ZERO_TOL = 1e-7
GROUP_TOL = 1e-8

# Adjacent eigenvalue groups closer than this many widths get flagged as an
# ambiguous clustering.
_AMBIGUITY_FACTOR = 10


class ConvergenceError(RuntimeError):
    """The eigensolver failed to converge."""


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def seidel_matrix(g: Graph | np.ndarray) -> np.ndarray:
    """Seidel matrix J - I - 2A of a graph, as int64; given an adjacency
    array, of it or of each matrix of its (B, n, n) stack.

    Zero diagonal; -1 for adjacent pairs, +1 for non-adjacent pairs.
    """
    adj = g.adj if isinstance(g, Graph) else g
    n = adj.shape[-1]
    return (1 - np.eye(n, dtype=np.int64)) - 2 * adj.astype(np.int64)


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

    @property
    def n(self) -> int:
        return len(self.values)

    def energy(self) -> float:
        return math.fsum(abs(v) for v in self.values)

    def total(self) -> float:
        return math.fsum(self.values)

    def format_grouped(self, digits: int = 12) -> str:
        parts = [f"{_fmt_value(v, digits)}^{mult}" for v, mult in self.groups]
        text = "{" + ", ".join(parts) + "}"
        if self.grouping_ambiguous:
            text += " [near-degenerate grouping]"
        return text


def _fmt_value(v: float, digits: int = 12) -> str:
    if abs(v - round(v)) <= NUM_TOL * max(1.0, abs(v)):
        return str(int(round(v)))
    return f"{v:.{digits}g}"


def _cluster(values_desc: np.ndarray, group_tol: float):
    if not len(values_desc):
        return (), False
    breaks = np.flatnonzero(values_desc[:-1] - values_desc[1:] > group_tol) + 1
    starts = np.concatenate(([0], breaks))
    sizes = np.append(breaks, len(values_desc)) - starts
    means = np.add.reduceat(values_desc, starts) / sizes
    gaps = means[:-1] - means[1:]
    ambiguous = bool((gaps < _AMBIGUITY_FACTOR * group_tol).any())
    return tuple(zip(means.tolist(), sizes.tolist())), ambiguous


def spectrum_from_values(values, group_tol: float = GROUP_TOL) -> Spectrum:
    """Wrap a plain list of eigenvalues in a :class:`Spectrum` (sorts it)."""
    arr = np.sort(np.asarray(values, dtype=float))[::-1]
    groups, ambiguous = _cluster(arr, group_tol)
    return Spectrum(tuple(arr.tolist()), groups, ambiguous)


@dataclass(frozen=True)
class Inertia:
    """Counts of positive / zero / negative eigenvalues."""

    n_pos: int
    n_zero: int
    n_neg: int

    @property
    def n(self) -> int:
        return self.n_pos + self.n_zero + self.n_neg

    @property
    def balanced(self) -> bool:
        return self.n_pos == self.n_neg and self.n_zero == 0


def classify_inertia(values, zero_tol: float = ZERO_TOL) -> Inertia:
    arr = np.asarray(values, dtype=float)
    n_pos = int((arr > zero_tol).sum())
    n_neg = int((arr < -zero_tol).sum())
    return Inertia(n_pos, len(arr) - n_pos - n_neg, n_neg)


# ---------------------------------------------------------------------------
# Eigensolver
# ---------------------------------------------------------------------------


def sym_eigenvalues(mat: np.ndarray, group_tol: float = GROUP_TOL):
    """All eigenvalues of a symmetric matrix via LAPACK (``eigvalsh``), as a
    :class:`Spectrum`.  Given a (B, n, n) stack, all matrices are solved in
    one call, and the result is a (B, n) array with each row sorted
    descending, left ungrouped.

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
    if a.ndim == 3:
        return np.sort(values, axis=1)[:, ::-1]
    return spectrum_from_values(values, group_tol)


def seidel_spectrum(g: Graph, group_tol: float = GROUP_TOL) -> Spectrum:
    """Eigenvalues of the Seidel matrix of a simple graph."""
    return sym_eigenvalues(seidel_matrix(g), group_tol)


def seidel_energy(g: Graph) -> float:
    """Sum of absolute Seidel eigenvalues."""
    return seidel_spectrum(g).energy()


def seidel_inertia(g: Graph, zero_tol: float = ZERO_TOL) -> Inertia:
    """Positive / zero / negative counts of the Seidel eigenvalues."""
    return classify_inertia(seidel_spectrum(g).values, zero_tol)


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

    def __call__(self, x):
        acc = self.coefficients[0]
        for c in self.coefficients[1:]:
            acc = acc * x + c
        return acc

    def format_text(self, var: str = "x") -> str:
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
                body = f"{head}{var}" if power == 1 else f"{head}{var}^{power}"
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
    rounding anywhere.  Cost is n matrix products; intended for n <= 200.
    """
    arr = np.asarray(mat)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    if not issubclass(arr.dtype.type, np.integer):
        raise ValueError("exact characteristic polynomial needs integer entries")
    n = arr.shape[0]
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
