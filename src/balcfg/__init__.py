"""Balanced plane vector configurations.

Decide balanced/uniform with witnesses, read the step constants, solve the
closure equation w_n(t) = (1, 0) for its parameter grid by certified root
isolation, canonicalize uniform balanced configurations of odd size onto
the roots of unity by an explicit invertible map, and search rational grids
for balanced sets.
"""

__version__ = "0.1.0"
