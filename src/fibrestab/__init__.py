"""Exact simplicial homology with stabilization obstruction checks and an
S1 fibre-bundle simulator.

Subpackages of interest:

* ``exactalg``    -- Smith normal form, field ranks, abelian groups
* ``complexes``   -- simplicial complexes, constructions, the space catalog
* ``homology``    -- homology profiles, induced maps
* ``sequences``   -- exactness checking: Mayer-Vietoris, Kunneth, pair LES
* ``obstruction`` -- stabilization obstruction verdicts
* ``bundlesim``   -- chart-based ODE integration on S1 bundles (numpy)
* ``cli``         -- command-line front end

Only ``bundlesim`` needs numpy.  ``cli`` imports it for ``simulate`` alone,
so the homology commands never load it; ``fibrestab.bundlesim`` is
imported the first time that attribute is read.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name):
    if name == "bundlesim":
        return importlib.import_module(f"{__name__}.bundlesim")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
