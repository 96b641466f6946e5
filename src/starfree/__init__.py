"""starfree: spectral and structural workbench for graphs avoiding a star forest.

Each public name is imported from the module that defines it
(``starfree.graphs``, ``starfree.search``, ...); the package root holds only
``__version__``.
"""

__version__ = "0.1.0"
