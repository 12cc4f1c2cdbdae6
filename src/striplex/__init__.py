"""Cone-envelope Lipschitz extensions on a strip.

Builds the extension of C^{1,1} boundary data whose value at (x, d) is the
supremum of downward cones of slope L planted on the boundary line, locates
its contact points by a contracting fixed-point solve, checks it against
brute-force and envelope oracles, and measures how boundary curvature kinks
reappear on the top line.
"""

from .boundary import BoundarySpline, Kink, parse_spline
from .construction import ContactSolution, contact_inverse, phi, phi_prime, segment_value, solve_contacts, u_at_contact, u_interior
from .oracle import BruteResult, FieldGrid, GridSpec, brute_force_u, grid_eval, mw_envelopes
from .analysis import KinkReport, curvature_transfer, kink_transfer_report, residual_infinity_laplacian, second_derivatives_top
from .params import AdmissibleProblem, ProblemParams, admit, delta_caps, window_radius
from .verify import CheckResult, VerifyConfig, run_acceptance

__version__ = "0.1.0"

__all__ = [
    "AdmissibleProblem",
    "BoundarySpline",
    "BruteResult",
    "CheckResult",
    "ContactSolution",
    "FieldGrid",
    "GridSpec",
    "Kink",
    "KinkReport",
    "ProblemParams",
    "VerifyConfig",
    "admit",
    "brute_force_u",
    "contact_inverse",
    "curvature_transfer",
    "delta_caps",
    "grid_eval",
    "kink_transfer_report",
    "mw_envelopes",
    "parse_spline",
    "phi",
    "phi_prime",
    "residual_infinity_laplacian",
    "run_acceptance",
    "second_derivatives_top",
    "segment_value",
    "solve_contacts",
    "u_at_contact",
    "u_interior",
    "window_radius",
]
