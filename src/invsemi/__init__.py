"""Exact workbench for inverse semigroups of partial bijections of the
naturals: eventually periodic set descriptors, symbolic elements, block
families with chain capacities and factorization, a windowed closure
engine, constrained subsemigroups, and the pointwise-partial topology
with its convergence and isolation certificates.
"""

__version__ = "0.1.0"
