"""statwintgen: numerical dualistic geometry on warped products.

Layers, bottom up:

- ``tensor_core``: dense-matrix and finite-difference kernel, seeded RNG helpers.
- ``statistical_geometry``: dualistic charts, dual-connection curvature,
  axiom residual checks, the constant-curvature plane example.
- ``warped_contact``: statistical warped products R x_f N, closed-form
  curvature, the induced almost-contact frame, Kenmotsu/cosymplectic
  classification, Hermitian-statistical identity residuals.
- ``legendrian``: pointwise algebraic model of a Legendrian submanifold,
  normalized curvature scalars in closed form (the definitional frame sums
  they are tested against live in ``tests/frame_oracle.py``).
- ``wintgen``: Lu's commutator inequality, the generalized Wintgen bound with
  per-step chain diagnostics, random sweeps and a sharpness search.
- ``cli``: batch command-line harness emitting JSON/CSV reports.
"""

from .tensor_core import (
    commutator,
    frobenius_norm_sq,
    partials,
    random_symmetric_traceless,
)
from .statistical_geometry import (
    CurvatureTensor,
    DualisticChart,
    ResidualRecord,
    axiom_residuals,
    builtin_r2_example,
    curvature,
    holomorphic_space_form_curvature,
    levi_civita,
)
from .warped_contact import (
    WarpedProductSpec,
    build_warped_chart,
    builtin_h3_example,
    contact_classification,
    kenmotsu_theorem_check,
    space_form_warped_curvature,
    warped_curvature_closed_form,
)
from .legendrian import (
    LegendrianPointInstance,
    curvature_scalars,
    means_and_traceless,
    rho_levicivita,
    rho_perp_statistical,
    rho_statistical,
    shape_operators,
    validate,
)
from .wintgen import (
    WintgenReport,
    corollary_reports,
    inequality_chain,
    lu_inequality,
    main_inequality,
    random_instance,
    sharpness_search,
)

__version__ = "0.1.0"
