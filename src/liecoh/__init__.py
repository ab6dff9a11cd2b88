"""Exact rational cohomology, extensions and crossed modules of
finite-dimensional Lie algebras.

Everything computes over the rational numbers with no rounding: cochain
calculus with covariant differentials and curvature, cohomology by
canonical echelon forms, construction and classification of split
extensions by factor systems, degree-3 obstruction and characteristic
classes of crossed modules, derivation and automorphism lifting, and
polynomial current-algebra cocycles.

Importing the package loads none of its modules: import each name from
the module that defines it.  ``linalg`` holds exact matrices and
subspaces; ``liealg`` algebras, representations, their structure laws
and the named algebras; ``cochains`` the cochain calculus; ``cohomology``
cohomology spaces and classes; ``extensions`` factor systems, g-kernels
and their classification; ``crossed`` crossed modules and their
characteristic class; ``symmetry`` derivation and automorphism lifting;
``catalog`` the catalog lookup, the catalog's factor systems and the
Killing form; ``currents`` the current-algebra cocycles; ``io`` the JSON
forms; and ``cli`` the command line.
"""

__version__ = "0.1.0"
