"""Invariants of PU(p,q) period domains attached to Hodge decompositions.

Exact (Gaussian-rational / integer) computations of the block parabolic's
root combinatorics and grading, flag-domain membership and projections,
second-homotopy sphere classes, pointwise Higgs-field lemmas, horizontal
2-plane classification, and even 3-colored sphere triangulations.
"""
