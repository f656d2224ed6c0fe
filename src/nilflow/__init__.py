"""Verification laboratory for an isospectral pair of compact two-step
Riemannian nilmanifolds whose geodesic flows sit on opposite sides of the
integrability divide.
"""

__all__ = [
    "catalog",
    "cli",
    "criteria",
    "flow",
    "integrals",
    "lie_core",
    "linalg_exact",
    "periodicity",
    "report",
    "spectral",
    "suites",
]

__version__ = "0.1.0"
