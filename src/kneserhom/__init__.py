"""Exact homological invariants of edge ideals of bipartite Kneser graphs.

Two independent routes to the same numbers: closed formulas (closed_form,
bounds) and a brute-force Hochster-formula oracle (hochster), with
combinatorial certificates bridging them (kneser, bounds).  The modules are
the API: import each name from the module that owns it.  The package itself
imports none of them, so loading one route loads none of the other's.
"""

__version__ = "0.1.0"
