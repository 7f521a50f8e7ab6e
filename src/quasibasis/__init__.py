"""quasibasis: minimal informationally complete measurements, discrete
Wigner bases, and the orthogonalization connecting them."""

import os as _os

# Honor QUASIBASIS_THREADS before numpy loads its BLAS backend; explicit
# BLAS settings in the environment still win.
_threads = _os.environ.get("QUASIBASIS_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .operators import (  # noqa: E402
    as_hermitian,
    coords_to_op,
    herm_onb,
    hs_inner,
    op_to_coords,
)
from .bases import (  # noqa: E402
    BasisClass,
    BasisValidationError,
    BornMatrix,
    MeasureBasis,
    bias,
    bias_matrix,
    born_matrix,
    dual_basis,
    frame_operator,
    gram,
    rescaled_frame_operator,
    validate,
)
from .constructions import (  # noqa: E402
    SicOrbitError,
    builtin_sic,
    collinear,
    composite_wootters,
    mic_t_range,
    random_mic,
    random_unbiased_mic,
    random_unbiased_wigner,
    sic_from_fiducial,
    sic_gram,
    tensor_basis,
    tensorhedron,
    wh_displacement,
    wootters_wigner,
)
from .wigner import (  # noqa: E402
    EquivalenceResult,
    PWResult,
    lift,
    principal_wigner,
    shifted,
    sqrt_born,
    wigner_equivalent,
)
from .representations import (  # noqa: E402
    GaugeSplit,
    QuasiDistribution,
    ReconstructedState,
    conditional_matrix,
    ebmc_apply,
    gauge_split,
    probs_to_state,
    state_to_probs,
    two_step_q,
    validate_povm,
    validate_state,
)
from .analysis import (  # noqa: E402
    DiagnosticsReport,
    DistanceReport,
    SuiteResult,
    TripleProducts,
    ceiling_negativity,
    ceiling_negativity_sampled,
    diagnostics,
    distance,
    distance_bounds,
    sic_bounds,
    sic_triple_relation_check,
    triple_products,
    verify_collinear,
    verify_negativity,
    verify_theorem1,
    verify_theorem2,
    verify_triple,
    wootters_triple_oracle,
)

__version__ = "0.1.0"
