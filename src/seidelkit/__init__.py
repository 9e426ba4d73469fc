"""seidelkit: Seidel spectra, Seidel energy, and equienergetic blow-up pairs.

The package is organized in four layers:

* :mod:`seidelkit.graphs`   -- dense graphs, graph6 codec, blow-up constructions
* :mod:`seidelkit.spectral` -- Seidel matrices, LAPACK eigenvalues, exact charpoly
* :mod:`seidelkit.theory`   -- closed-form blow-up spectra and pair certification
* :mod:`seidelkit.search`   -- bulk catalog scanning and report serialization

plus the :mod:`seidelkit.cli` front end (``seidelkit`` console script).
"""

__version__ = "0.1.0"

from .graphs import (DEFAULT_MAX_DIM, KINDS, Graph, Graph6Error, blowup,
                     clique_blowup, complement, construct, graph_from_graph6,
                     graph_to_graph6)
from .spectral import (GROUP_TOL, NUM_TOL, ZERO_TOL, ConvergenceError,
                       Inertia, IntPolynomial, Spectrum, charpoly_exact,
                       seidel_inertia, seidel_matrix, seidel_spectrum,
                       spectrum_from_values, sym_eigenvalues)
from .theory import (ENERGY_TOL, Certificate, CertificateBlock,
                     ClosedFormSpectrum, HypothesisReport,
                     blowup_seidel_spectrum, certify,
                     clique_blowup_seidel_spectrum, compare_spectra,
                     composed_blowup_seidel_spectra, hypothesis_from_spectrum)
from .search import (NUMERIC_MAX_ORDER, PairReport, ScanConfig, ScanEntry,
                     ScanFailure, ScanSkip, scan_stream, to_json,
                     write_report)
