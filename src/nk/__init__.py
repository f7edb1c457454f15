"""Exact-arithmetic toolkit for circle-valued Morse theory.

Subpackages mirror the mathematical layers: ``rings`` (Laurent
polynomials, the rational subring of Z((z)), series windows), ``linalg``
(exact matrices, Smith normal form, Novikov diagonalization),
``complexes`` (based free chain complexes and integral homology),
``novikov`` (Novikov homology, Morse-Novikov inequalities, finite
domination), ``fundomain`` (algebraic fundamental domains and the
algebraic Novikov complex), ``models`` (mapping tori, the circle
exercise, knot complements from Seifert data), and ``cli`` (the ``nk``
command).
"""

from .rings import (  # noqa: F401
    DEFAULT_PRECISION,
    Direction,
    LaurentPoly,
    NotAUnit,
    NotInRationalSubring,
    RationalFunction,
    TruncatedSeries,
    expand,
    invert_as_series,
    is_novikov_unit,
    reverse_variable,
)

__version__ = "0.1.0"
