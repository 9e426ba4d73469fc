"""Closed-form Seidel spectra of the blow-up families and pair certification.

Each construction in ``graphs.KINDS`` is a sequence of twin steps.  A step
at multiplicity m maps every Seidel eigenvalue s to m*s + (m-1) for
independent twins, padding with -1, or to m*s - (m-1) for clique twins,
padding with +1 (``_closed_forms`` composes the steps; README.md tabulates
the four results).

Both members of each pair share the same spectrum sum, and whenever every
|s_i| clears the bound ((m-1)/m for the single constructions, its square
for the composed ones) the absolute-value gap per eigenvalue collapses to
a constant of fixed sign:

    |m*s + (m-1)| - |m*s - (m-1)| = 2(m-1) * sign(s)

so the pair is equienergetic exactly when G has equally many positive and
negative Seidel eigenvalues and none at zero.  ``certify`` checks that
equivalence instance by instance, in both directions.  It solves only the
base Seidel matrix; each construction's closed form is proven exactly once
per (m, kind), on the construction of one vertex (``_kind_proven``).

``_certify_block`` runs the pipeline on a block, a stack of graphs of one
order, with one numpy call per stage: build, solve, screen (``_hypotheses``),
proof.  It returns the certificates of the rows that meet the bound as one
:class:`CertificateBlock` of columns, with no object per row.  ``certify``
is a block of one; a scan passes whole blocks, screened.

The canonical JSON writer (``to_json``) lives here too, beside ``_record``,
whose reading of a record of columns its ``_template`` mirrors.  Every
``--json`` command and ``certify`` use it, and the scan report is built of
its pieces, so a process that scans nothing never loads the scan layer.
"""

import json
import math
import operator
from dataclasses import dataclass, fields, is_dataclass
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

import numpy as np

from .graphs import KINDS, Graph, _check_blowup, _graph6_lines, _twin_steps
from .spectral import (NUM_TOL, ZERO_TOL, Inertia, Spectrum, _sign_counts,
                       seidel_matrix, spectrum_from_values, sym_eigenvalues)

__all__ = [
    "ENERGY_TOL",
    "ClosedFormSpectrum",
    "HypothesisReport",
    "Certificate",
    "CertificateBlock",
    "blowup_seidel_spectrum",
    "clique_blowup_seidel_spectrum",
    "composed_blowup_seidel_spectra",
    "compare_spectra",
    "hypothesis_from_spectrum",
    "certify",
    "to_json",
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
        return tuple(_whole(np.array([self.mapped]), self.padding)[0].tolist())

    def format_grouped(self) -> str:
        return spectrum_from_values(self.values()).format_grouped()


def _whole(mapped: np.ndarray, padding) -> np.ndarray:
    """Each row of ``mapped`` with ``padding``, sorted descending."""
    pad = np.repeat(*np.array(padding, dtype=np.int64).reshape(-1, 2).T)
    return np.sort(np.hstack([mapped, np.tile(pad, (len(mapped), 1))]), axis=1)[:, ::-1]


def _closed_forms(values: np.ndarray, m: int, kind: str) -> SimpleNamespace:
    """Closed forms of construct(G, m, kind) for graphs G of one order, from
    their spectra, the rows of ``values``, as columns: row k of ``mapped``
    is scale * values[k] + shift, and ``padding`` and ``order`` are every
    row's; :class:`ClosedFormSpectrum` and each member's proof check its count.

    Each twin step maps S to J_m (x) (S + eps I) - eps I, with eps = +1 for
    independent and -1 for clique twins: every eigenvalue v, mapped or
    padding, becomes m*v + eps(m-1), and the step adds -eps with
    multiplicity (m-1) times the order before it.  The affine maps compose
    into one integer scale and shift, applied once per source eigenvalue.
    """
    _check_blowup(values.shape[1], m, len(KINDS[kind]))
    scale, shift, padding, order = 1, 0, [], values.shape[1]
    for clique in KINDS[kind]:
        eps = -1 if clique else 1
        padding = [(m * v + eps * (m - 1), mult) for v, mult in padding]
        padding.append((-eps, (m - 1) * order))
        scale, shift, order = m * scale, m * shift + eps * (m - 1), m * order
    return SimpleNamespace(mapped=(scale * values + shift).tolist(),
                           padding=tuple(padding), m=m, order=order,
                           scale=scale, shift=shift)


def blowup_seidel_spectrum(sigma: Spectrum, m: int) -> ClosedFormSpectrum:
    """Seidel spectrum of blowup(G, m): s -> m*s + (m-1), padded with -1."""
    return _record(ClosedFormSpectrum,
                   _closed_forms(np.array([sigma.values]), m, "dm"), 0)


def clique_blowup_seidel_spectrum(sigma: Spectrum, m: int) -> ClosedFormSpectrum:
    """Seidel spectrum of clique_blowup(G, m): s -> m*s - (m-1), padded with +1."""
    return _record(ClosedFormSpectrum,
                   _closed_forms(np.array([sigma.values]), m, "dmstar"), 0)


def composed_blowup_seidel_spectra(
        sigma: Spectrum, m: int) -> tuple[ClosedFormSpectrum, ClosedFormSpectrum]:
    """Closed forms of clique_blowup(blowup(G,m),m) and blowup(clique_blowup(G,m),m)."""
    return tuple(_record(ClosedFormSpectrum,
                         _closed_forms(np.array([sigma.values]), m, kind), 0)
                 for kind in ("t2-left", "t2-right"))


def _record(cls, columns, row: int):
    """Row ``row`` of the record ``columns`` as a ``cls``.  Each field reads
    the attribute of its name: a list has a value per row (a list row is a
    tuple), anything else is every row's; a dataclass field reads its
    attribute or else ``columns``.  ``_template`` reads alike."""
    values = {}
    for name, nested in _fields(cls):
        if nested is not None:
            value = _record(nested, getattr(columns, name, columns), row)
        elif type(value := getattr(columns, name)) is list:
            value = value[row]
            value = tuple(value) if type(value) is list else value
        values[name] = value
    return cls(**values)


@cache
def _fields(cls) -> tuple[tuple[str, type | None], ...]:
    """(name, type if a dataclass else None) of each field of ``cls``."""
    return tuple((field.name, field.type if is_dataclass(field.type) else None)
                 for field in fields(cls))


# ---------------------------------------------------------------------------
# Pairwise checks
# ---------------------------------------------------------------------------


def compare_spectra(s1: Spectrum, s2: Spectrum) -> tuple[bool, float, bool]:
    """Pair verdicts from two known Seidel spectra: (equienergetic,
    |SE1 - SE2|, cospectral)."""
    verdicts = _pair_verdicts(np.array([s1.energy()]), np.array([s2.energy()]),
                              np.array([s1.values]), np.array([s2.values]))
    return tuple(v.item() for v in verdicts)


def _pair_verdicts(e1: np.ndarray, e2: np.ndarray, values1: np.ndarray,
                   values2: np.ndarray):
    """Verdicts of B pairs from their energies and sorted values, one pair
    per row: (equienergetic, |e1 - e2|, cospectral) arrays.  The energy
    verdict is relative: |e1 - e2| <= ENERGY_TOL * max(1, e1)."""
    delta = np.abs(e1 - e2)
    if values1.shape == values2.shape:
        cospectral = np.abs(values1 - values2).max(axis=1, initial=0.0) <= NUM_TOL
    else:
        cospectral = np.zeros(len(e1), dtype=bool)
    return delta <= ENERGY_TOL * np.maximum(1.0, e1), delta, cospectral


# ---------------------------------------------------------------------------
# Hypothesis reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Eigenvalue-magnitude bound plus sign balance for one (G, m, theorem).

    ``bound`` is ((m-1)/m)**theorem; ``satisfied`` means the bound holds for
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

    def bound_met(self) -> bool:
        """The one bound rule, also on a record of margin columns."""
        return self.margin >= -ZERO_TOL


def hypothesis_from_spectrum(sigma: Spectrum, m: int,
                             power: int = 1) -> HypothesisReport:
    """Evaluate the magnitude bound and sign balance on a known spectrum,
    at the theorem ``power``; it builds nothing, so at any order."""
    _check_blowup(0, m, power)
    return _record(HypothesisReport,
                   _hypotheses(np.array([sigma.values]), m, power)[1], 0)


def _hypotheses(values: np.ndarray, m: int, theorem: int, screen: bool = False
                ) -> tuple[np.ndarray, SimpleNamespace]:
    """(rows, columns): the rows of ``values``, spectra of graphs of one
    order, that are kept (all, or with ``screen`` those meeting the bound),
    and their hypothesis columns and ``met``, as a :class:`CertificateBlock`
    holds them.  Only here are the bound, margins and ``met`` computed."""
    bound = ((m - 1) / m) ** theorem
    low = np.abs(values).min(axis=1)
    margin = low - bound
    met = HypothesisReport.bound_met(SimpleNamespace(margin=margin))
    pos, zero, neg = _sign_counts(values)
    balanced = (pos == neg) & (zero == 0)
    rows = np.flatnonzero(met) if screen else np.arange(len(values))
    columns = dict(min_abs_eigenvalue=low, margin=margin, n_pos=pos,
                   n_zero=zero, n_neg=neg, balanced=balanced, met=met,
                   satisfied=met & balanced, boundary=met & (margin <= ZERO_TOL))
    return rows, SimpleNamespace(m=m, bound=bound, **{
        name: (column[rows] if screen else column).tolist()
        for name, column in columns.items()})


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Full record of one equienergy certification.

    ``theorem`` selects the construction pair: 1 compares blowup(G, m)
    against clique_blowup(G, m); 2 compares the two mixed double blow-ups.
    Energies and verdicts come from the closed forms.  ``closed_form_agrees``
    means the equitable quotients of both members' K were proven, and
    ``exact_multiplicities_verified`` that their twin differences are
    eigenvectors for the padding values and fill the rest of the space:
    with both, each closed form is its member's spectrum (``_kind_proven``).
    ``base_residual`` is the larger relative residual of the base
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


def _member_proven(s: np.ndarray, s_g: np.ndarray, m: int, scale: int,
                   shift: int, padding) -> tuple[bool, bool]:
    """(quotient proven, padding proven) for the Seidel matrix s, offered
    as t twin steps at multiplicity m on the Seidel matrix s_g, with closed
    form scale*sigma + shift plus ``padding``, one (value, mult) block per
    step, the first step's first: one integer pass over the twin rows of s,
    last step first (README.md, "Proving the closed forms").  s is changed
    during the pass and restored."""
    order, n = len(s), len(s_g)
    if not padding or order != n * m ** len(padding):
        return False, False
    values = [value for value, _ in padding]
    twins = len(set(values)) == len(values) and all(
        mult == (m - 1) * n * m ** i for i, (_, mult) in enumerate(padding))
    # R holds ``held`` subtracted at its lifted diagonal; summing the copies
    # carries it onto the next R's lifted diagonal, and onto Q at the end
    r, held = s, 0
    for i in reversed(range(len(padding))):
        size = n * m ** (i + 1)
        lifted = np.einsum("ucu->cu", r.reshape(size, -1, size))
        lifted -= values[i] - held
        held = values[i]
        copies = r.reshape(m, size // m, order)
        twins &= bool((copies[1:] == copies[:1]).all())
        r = copies.sum(axis=0)
    np.einsum("ii->i", s)[...] += values[-1]
    q = scale * s_g
    np.einsum("vv->v", q)[...] += shift - held
    return bool((r.reshape(n, -1, n) == q[:, None]).all()), twins


@cache
def _kind_proven(m: int, kind: str) -> tuple[bool, bool]:
    """``_member_proven`` of K = construct(K_1, m, kind) against its closed
    form, once per (m, kind).  A construction on any G is J_M (x) A +
    A_K (x) I_n (``graphs._twin_steps``), so this proves its closed form
    for every G (README.md, "Proving the closed forms").  S_K is int8:
    its entries are +-1, the pass shifts its diagonal only by the last
    step's padding value, +-1, and numpy sums int8 copies in int64."""
    point = np.zeros((1, 1), dtype=np.int8)
    forms = _closed_forms(np.zeros((1, 1)), m, kind)
    return _member_proven(
        seidel_matrix(_twin_steps(point, m, KINDS[kind]), np.int8),
        seidel_matrix(point), m, forms.scale, forms.shift, forms.padding)


# the two members of pair theorem t: the construction kinds of t twin steps
_MEMBERS = {t: tuple(kind for kind, steps in KINDS.items() if len(steps) == t)
            for t in (1, 2)}


class CertificateBlock(SimpleNamespace):
    """The certificates of a block of graphs of one order, as columns: an
    attribute per field of :class:`Certificate`, :class:`HypothesisReport`
    and :class:`Inertia` and ``met``, a list with a value per row (``graph6``,
    ``met``, ...) or, for ``theorem``, ``m`` and ``bound``, one value.
    ``closed_a`` and ``closed_b`` are the members' closed forms as
    ``_closed_forms`` gives them, each with its scale and shift."""

    def certificate(self, row: int) -> Certificate:
        """Row ``row`` as a :class:`Certificate`."""
        return _record(Certificate, self, row)


def certify(g: Graph, m: int, theorem: int) -> Certificate:
    """Certify the single (theorem=1) or composed (theorem=2) pair of g.

    Theorem 1 compares blowup(g, m) against clique_blowup(g, m) (order
    m*n each), theorem 2 the two mixed double blow-ups (order m^2*n each).
    Only the base Seidel matrix is solved: g runs as a block of one, see
    ``_certify_block``.
    """
    # each member is theorem twin steps: refuse them before the base solve
    _check_blowup(g.n, m, theorem)
    return _certify_block(g.adj[None], m, theorem)[1].certificate(0)


def _certify_block(adj: np.ndarray, m: int, theorem: int, screen: bool = False
                   ) -> tuple[np.ndarray, CertificateBlock | None]:
    """(rows, block) at m and theorem of the (B, n, n) int8 adjacency stack
    ``adj``: the indices of the rows certified, and their certificates as
    one :class:`CertificateBlock`, or None if there are none.

    The Seidel matrices are built and solved by one stacked call each.  With
    ``screen``, only the rows that meet the bound go on (``_hypotheses``).
    No member is built: every row of a member's kind at m is proven by one
    proof of K, ``_kind_proven``.  Energies and verdicts come from the
    closed forms, each energy and residual a ``math.fsum`` over its row.
    """
    values = sym_eigenvalues(seidel_matrix(adj))
    rows, hypothesis = _hypotheses(values, m, theorem, screen)
    if screen:
        if not len(rows):
            return rows, None
        adj, values = adj[rows], values[rows]
    closed = [_closed_forms(values, m, kind) for kind in _MEMBERS[theorem]]
    agrees, proven = map(all, zip(*(_kind_proven(m, kind)
                                    for kind in _MEMBERS[theorem])))
    energies = []
    for forms in closed:
        padding = sum(abs(value) * mult for value, mult in forms.padding)
        energies.append([math.fsum(map(abs, row)) + padding
                         for row in forms.mapped])
    same, delta, cospectral = (verdict.tolist() for verdict in _pair_verdicts(
        *map(np.array, energies), *(_whole(f.scale * values + f.shift, f.padding)
                                    for f in closed)))
    # the base solve against the trace, 0, and the squared Frobenius norm
    frobenius = adj.shape[-1] * (adj.shape[-1] - 1)
    residuals = [max(abs(math.fsum(row)) / max(1.0, math.fsum(map(abs, row))),
                     abs(math.fsum(map(operator.mul, row, row)) - frobenius)
                     / max(1, frobenius)) for row in values.tolist()]
    return rows, CertificateBlock(
        theorem=theorem, graph6=_graph6_lines(adj), **vars(hypothesis),
        closed_a=closed[0], closed_b=closed[1], energy_a=energies[0],
        energy_b=energies[1], energy_delta=delta, equienergetic=same,
        cospectral=cospectral, closed_form_agrees=[agrees] * len(values),
        exact_multiplicities_verified=[proven] * len(values),
        base_residual=residuals, theorem_violation=[
            ok and equal != bal for equal, ok, bal
            in zip(same, hypothesis.met, hypothesis.balanced)])


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def to_json(obj) -> str:
    """Canonical JSON text of ``obj``: ``json.dumps(x, sort_keys=True,
    indent=2)`` of the same value ``x`` with each dataclass replaced by a
    dict of its fields, so with sorted keys, ASCII escapes, ``NaN`` and
    ``Infinity`` for special floats and no trailing newline.  Dict keys
    must be strings; a value that ``json`` refuses raises ``TypeError``.
    """
    return _render(obj, "\n")


def _render(obj, nl: str) -> str:
    """``obj`` as JSON, nested under ``nl``: a newline and the indent of
    the line that holds ``obj``."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None and (leaf is not float.__repr__ or math.isfinite(obj)):
        return leaf(obj)
    if isinstance(obj, (tuple, list)):
        return _bracket(_column(obj, nl + "  "), nl)
    if is_dataclass(obj) and not isinstance(obj, type):
        return _template(type(obj), obj, nl)[0] % ()
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("keys must be str")
        template, pairs = _layout(tuple(obj), nl)
        return template % tuple(_render(obj[key], nl + "  ") for key, _ in pairs)
    # a special float or a subclass of a leaf type, or else TypeError
    return json.dumps(obj)


_LEAVES = {str: _quote, int: int.__repr__, float: float.__repr__,
           bool: {False: "false", True: "true"}.__getitem__}


def _column(values, nl: str) -> list[str]:
    """Each of ``values`` rendered under ``nl``: leaves of one type, finite
    if floats, by one ``map``, and instances of one dataclass as a record
    of their columns, by ``_template``.  A float column formats each
    distinct value once, for this call only, and reuses its text for every
    repeat: report columns repeat a few spectra and energies many times."""
    kinds = set(map(type, values))
    cls = kinds.pop() if len(kinds) == 1 else None
    leaf = _LEAVES.get(cls)
    if cls is float:
        distinct = set(values)
        if not all(map(math.isfinite, distinct)):
            leaf = None
        elif len(distinct) < len(values):
            texts = dict(zip(distinct, map(float.__repr__, distinct)))
            if 0.0 in texts:  # the one key of 0.0 and -0.0: zeros by value
                return [texts[v] if v else repr(v) for v in values]
            leaf = texts.__getitem__
    if leaf is not None:
        return list(map(leaf, values))
    if is_dataclass(cls):
        template, texts = _template(cls, SimpleNamespace(**{
            name: [getattr(v, name) for v in values] for name, _ in _fields(cls)}), nl)
        return [template % row for row in zip(*texts)] if texts else [
            template % ()] * len(values)
    return [_render(value, nl) for value in values]


def _bracket(texts: list[str], nl: str) -> str:
    """The JSON array of the rendered items ``texts`` under ``nl``."""
    if not texts:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


@cache
def _layout(keys, nl: str) -> tuple[str, tuple[tuple[str, type], ...]]:
    """The ``%`` template of an object at indent ``nl`` whose keys are a
    dataclass's fields or a tuple of names, sorted and rendered; with each
    key in that order and its type if a dataclass field is one, else None."""
    pairs = sorted(((name, None) for name in keys) if type(keys) is tuple
                   else _fields(keys))
    if not pairs:
        return "{}", ()
    inner = nl + "  "
    items = ("," + inner).join(_quote(name).replace("%", "%%") + ": %s"
                               for name, _ in pairs)
    return "{" + inner + items + nl + "}", tuple(pairs)


def _template(cls, columns, nl: str) -> tuple[str, list[list[str]]]:
    """The ``_layout`` template of the dataclass ``cls`` at ``nl``, filled
    from ``columns``: an instance of ``cls``, whose every field is filled
    in, or a record of columns that ``theory._record`` reads, in which each
    list leaves ``%s`` slots and the rest is filled in.  Returns it with the
    rendered columns of its slots, in order."""
    template, pairs = _layout(cls, nl)
    inner = nl + "  "
    slots, texts = [], []
    for name, kind in pairs:
        value = getattr(columns, name, columns)
        if kind is not None and isinstance(value, (kind, SimpleNamespace)):
            slot, nested = _template(kind, value, inner)
            texts += nested
        elif type(value) is not list or not isinstance(columns, SimpleNamespace):
            slot = _render(value, inner).replace("%", "%%")
        elif set(map(type, value)) == {list} and len(set(map(len, value))) == 1:
            # rows of one width: an array of a slot per item
            width = len(value[0])
            slot = _bracket(["%s"] * width, inner)
            items = _column(list(chain.from_iterable(value)), inner + "  ")
            texts += [items[k::width] for k in range(width)]
        else:
            slot = "%s"
            texts.append(_column(value, inner))
        slots.append(slot)
    return template % tuple(slots), texts


_sig = "{:.12g}".format
