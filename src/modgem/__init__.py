"""Exact verification suite for the classical modular hypersurfaces.

Subpackages split along the objects they certify:

- exactalg: rational polynomials, projective geometry, exact linear algebra
- rootarr: reflection arrangements, flat censuses, ball-quotient weight checks
- lines27: the 27 lines, their incidence structures, and the Weyl group action
- gems: the cubic, quartic, and quintic hypersurfaces and their interplay
- theta: genus-2 theta constants and the quartic relations among them
- nodalcy: node counts and Hodge data for nodal quintic threefold sections
- cli: certificate-producing command-line entry point
"""

import os

# One OpenBLAS thread unless the caller chose otherwise: `exactalg`'s float64
# products are small, exact in any summation order, and slower threaded.
# Set before any submodule imports NumPy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
