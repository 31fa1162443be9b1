"""Exact-arithmetic construction and verification of lattice-path crystals.

The package builds the birational crystal structure on two weighted
lattices, its piecewise-linear shadow on integer points, the combinatorial
crystal on zero-sum integer arrays, and the bijection tying the two
together, then machine-verifies every defining identity at seeded random
points with exact rational arithmetic.

The package imports nothing: each name is imported from the module that
defines it (``pathcrystal.lattice``, ``pathcrystal.geom``, ...), so
importing one module loads only the modules it imports.
"""
