"""seidelkit: Seidel spectra, Seidel energy, and equienergetic blow-up pairs.

The package is organized in four layers:

* :mod:`seidelkit.graphs`   -- dense graphs, graph6 codec, blow-up constructions
* :mod:`seidelkit.spectral` -- Seidel matrices, LAPACK eigenvalues, exact charpoly
* :mod:`seidelkit.theory`   -- closed-form blow-up spectra, pair certification
                               and the canonical JSON writer (``to_json``)
* :mod:`seidelkit.search`   -- bulk catalog scanning and the scan report

plus the :mod:`seidelkit.cli` front end (``seidelkit`` console script).
``search`` and its names are imported on first use, so a process that
scans nothing never loads it.
"""

__version__ = "0.1.0"

from .graphs import (DEFAULT_MAX_DIM, KINDS, NUMERIC_MAX_ORDER, Graph,
                     Graph6Error, blowup, clique_blowup, complement, construct,
                     graph_from_graph6, graph_to_graph6)
from .spectral import (GROUP_TOL, NUM_TOL, ZERO_TOL, ConvergenceError,
                       Inertia, IntPolynomial, Spectrum, charpoly_exact,
                       seidel_inertia, seidel_matrix, seidel_spectrum,
                       spectrum_from_values, sym_eigenvalues)
from .theory import (ENERGY_TOL, Certificate, CertificateBlock,
                     ClosedFormSpectrum, HypothesisReport,
                     blowup_seidel_spectrum, certify,
                     clique_blowup_seidel_spectrum, compare_spectra,
                     composed_blowup_seidel_spectra, hypothesis_from_spectrum,
                     to_json)

# re-exported from ``search`` on first use (PEP 562)
_SEARCH = ("PairReport", "ScanConfig", "ScanEntry", "ScanFailure", "ScanSkip",
           "scan_stream", "write_report")


def __getattr__(name):
    # ``from . import search`` would look the name up here first, and recurse
    if name == "search" or name in _SEARCH:
        import importlib
        search = importlib.import_module(".search", __name__)
        return search if name == "search" else getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "search", *_SEARCH})
