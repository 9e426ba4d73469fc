"""seidelkit: Seidel spectra, Seidel energy, and equienergetic blow-up pairs.

The package is organized in four layers:

* :mod:`seidelkit.graphs`   -- dense graphs, graph6 codec, blow-up constructions
* :mod:`seidelkit.spectral` -- Seidel matrices, LAPACK eigenvalues, exact charpoly
* :mod:`seidelkit.theory`   -- closed-form blow-up spectra, pair certification
                               and the canonical JSON writer (``to_json``)
* :mod:`seidelkit.search`   -- bulk catalog scanning and the scan report

plus the :mod:`seidelkit.cli` front end (``seidelkit`` console script).
The package re-exports each module's ``__all__``, its one list of public
names.  ``search`` and its names are imported on first use, so a process
that scans nothing never loads it.
"""

__version__ = "0.1.0"

from .graphs import *
from .spectral import *
from .theory import *

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
