"""Exact and numeric verification toolkit for the curvature deformation of
the flat noncommutative spacetime: Lie bialgebra layer, r-matrix
classification, group-level Poisson brackets, and the quadratic quantum
algebras with their Casimir certificates.

The package exports only ``__version__``; import the layer you use, as in
``from kads import ncalg``, so a caller loads that layer and what it
imports and nothing else (the exact layers ``scalars`` and ``ncalg`` load
no numpy)."""

__version__ = "0.1.0"
