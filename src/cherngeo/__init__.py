"""Chern-number geography of fiber-summed symplectic 6-manifolds.

Exact integer tooling for the construction that fiber-sums products of
Lefschetz-fibered 4-manifolds with surfaces: invariant records, a formal
Chern-class algebra oracle, closed-form Chern numbers of the resulting
6-manifolds, divisibility checks, realization search, and the classifier
of the (chi_h, c1^2) geography plane.  Names are imported from their
modules (``from cherngeo.fibersum import halic_construction``); the
package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
