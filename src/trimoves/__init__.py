"""Relating triangulations of constant-curvature manifolds by local moves.

Modules cover the combinatorial substrate (complexes, subdivision,
pachner, shelling), the move-sequence generators (reduction), the geometry
kernels (geometry, intersect), exact bound evaluation (bounds), and the
batch CLI (cli).
"""

__version__ = "0.1.0"

from .complexes import (
    Complex,
    Isomorphism,
    close_under_faces,
    find_isomorphism,
    isomorphism_signature,
    join,
)
from .geometry import GeomComplex, GeomSimplex, Geometry
from .pachner import MoveSequence, PachnerMove, replay_verified
from .reduction import RelateResult, alpha_to_beta, beta2_bridge, relate
from .shelling import Shelling, find_shelling, star_via_shelling
from .subdivision import (
    SubdividedComplex,
    barycentric,
    iterated_barycentric,
    partial_relative,
)

__all__ = [
    "Complex",
    "GeomComplex",
    "GeomSimplex",
    "Geometry",
    "Isomorphism",
    "MoveSequence",
    "PachnerMove",
    "RelateResult",
    "Shelling",
    "SubdividedComplex",
    "alpha_to_beta",
    "barycentric",
    "beta2_bridge",
    "close_under_faces",
    "find_isomorphism",
    "find_shelling",
    "isomorphism_signature",
    "iterated_barycentric",
    "join",
    "partial_relative",
    "relate",
    "replay_verified",
    "star_via_shelling",
    "__version__",
]
