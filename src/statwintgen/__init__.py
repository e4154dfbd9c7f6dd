"""statwintgen: numerical dualistic geometry on warped products.

Layers, bottom up:

- ``tensor_core``: dense-matrix and complex-step derivative kernel, seeded RNG helpers.
- ``statistical_geometry``: dualistic charts, dual-connection curvature,
  axiom residual checks, the constant-curvature plane example.
- ``warped_contact``: statistical warped products R x_f N, closed-form
  curvature, the induced almost-contact frame, Kenmotsu/cosymplectic
  classification, the warped-Kenmotsu equivalence check.
- ``legendrian``: pointwise algebraic model of a Legendrian submanifold,
  normalized curvature scalars in closed form (the definitional frame sums
  they are tested against live in ``tests/frame_oracle.py``).
- ``wintgen``: the generalized Wintgen bound with per-step chain
  diagnostics, random sweeps and a sharpness search.
- ``cli``: batch command-line harness emitting JSON/CSV reports.

Checks of the paper's mathematics that no command runs (Lu's commutator
inequality, the corollaries, space-form curvature, skew-field identities)
live in ``tests/paper_checks.py``.
"""

__version__ = "0.1.0"
