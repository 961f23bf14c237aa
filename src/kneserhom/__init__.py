"""Exact homological invariants of edge ideals of bipartite Kneser graphs.

Two independent routes to the same numbers: closed formulas (closed_form,
bounds) and a brute-force Hochster-formula oracle (hochster), with
combinatorial certificates bridging them (kneser, bounds).
"""

from .bounds import (BoundReport, Certificate, CertificateError,
                     certify_cochordal_cover, certify_domination,
                     certify_gamma_demand, certify_induced_matching, gamma_of,
                     independent_domination_number, pd_bounds, reg_bounds,
                     reg_power_bounds, tau_of)
from .closed_form import LinearStrand, betti_linear, linear_strand
from .combinatorics import binom, k_subsets, n_exact, n_exact_oracle
from .config import DEFAULT_GUARDS, GuardExceeded, Guards
from .graphs import (Graph, Side, complement, induced, induced_matching_number,
                     is_chordal, is_cochordal, neighborhood)
from .hochster import (BettiTable, enumerate_faces, full_betti_oracle,
                       linear_strand_oracle, pd_of, reduced_h0,
                       reduced_homology_dims, reg_of)
from .kneser import (KneserGraph, build, double_star_cover, dominating_w,
                     e_s_family, gamma_demand_family, star_cover)

__version__ = "0.1.0"

__all__ = [
    "BettiTable", "BoundReport", "Certificate", "CertificateError",
    "DEFAULT_GUARDS", "Graph", "GuardExceeded", "Guards", "KneserGraph",
    "LinearStrand", "Side", "betti_linear", "binom", "build",
    "certify_cochordal_cover", "certify_domination", "certify_gamma_demand",
    "certify_induced_matching", "complement",
    "double_star_cover", "dominating_w", "e_s_family",
    "enumerate_faces", "full_betti_oracle", "gamma_demand_family", "gamma_of",
    "independent_domination_number", "induced", "induced_matching_number",
    "is_chordal", "is_cochordal", "k_subsets", "linear_strand",
    "linear_strand_oracle", "n_exact", "n_exact_oracle", "neighborhood",
    "pd_bounds", "pd_of", "reduced_h0", "reduced_homology_dims", "reg_bounds",
    "reg_of", "reg_power_bounds", "star_cover", "tau_of",
]
