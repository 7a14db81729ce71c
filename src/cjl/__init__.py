"""Exact cohomology-jump-ideal and resonance computations.

The package is organized bottom-up:

* :mod:`cjl.field`, :mod:`cjl.poly`, :mod:`cjl.groebner`, :mod:`cjl.artin`
  — exact ground fields, sparse polynomials, Groebner machinery, and
  finite-dimensional local algebras.
* :mod:`cjl.linalg`, :mod:`cjl.complexes` — exact linear algebra and
  finite free cochain complexes: determinantal and jump ideals,
  minimization, base change, fiberwise cohomology ranks.
* :mod:`cjl.dgla`, :mod:`cjl.mc` — graded Lie structures with modules,
  their axiom checkers, flat-coefficient deformations, gauge action and
  transport, twisted complexes.
* :mod:`cjl.resonance`, :mod:`cjl.geometry` — quadratic cones, universal
  twisted complexes, resonance ideals, and the rank/codimension analysis
  of the associated determinantal loci.
* :mod:`cjl.models` — arrangement complements, surfaces, exterior
  algebras, and matrix-valued coefficient pairs built from them.
* :mod:`cjl.cli`, :mod:`cjl.acceptance` — the ``cjl`` command and the
  nine-check release battery behind ``cjl selftest``.

The package holds only code that a ``cjl`` verb, the battery or the
benchmark reaches; ``tests/test_tooling.py`` checks, by name, that every
function, class and method has a caller outside the tests.
"""

__version__ = "0.1.0"
