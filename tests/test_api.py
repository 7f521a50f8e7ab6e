"""The public surface of quasibasis, pinned. A change here is an API change:
edit the literal sets together with the README's list of removed names."""

import inspect
import types

import quasibasis

PUBLIC_NAMES = {
    "BasisClass", "BasisValidationError", "BornMatrix", "DiagnosticsReport",
    "DistanceReport", "EquivalenceResult", "GaugeSplit", "MeasureBasis",
    "PWResult", "QuasiDistribution", "ReconstructedState", "SicOrbitError",
    "SuperOperator", "TripleProducts",
    "as_hermitian", "bias", "bias_matrix", "born_matrix", "builtin_sic",
    "ceiling_negativity", "ceiling_negativity_sampled", "collinear",
    "composite_wootters", "conditional_matrix", "coords_to_op",
    "diagnostics", "distance", "distance_bounds", "distance_report",
    "dual_basis", "ebmc_apply", "frame_operator", "gauge_split", "gram",
    "herm_onb", "hs_inner", "lift", "mat_func_psd", "mic_t_range",
    "op_to_coords", "principal_wigner", "probs_to_state", "random_mic",
    "random_unbiased_mic", "random_unbiased_wigner",
    "rescaled_frame_operator", "shifted", "sic_bounds", "sic_from_fiducial",
    "sic_gram", "sic_triple_relation_check", "sqrt_born", "state_to_probs",
    "tensor_basis", "tensorhedron", "triple_products", "two_step_q",
    "validate", "validate_povm", "validate_state", "wh_displacement",
    "wigner_equivalent", "wootters_triple_oracle", "wootters_wigner",
}


def test_public_names():
    exported = {
        name for name, value in vars(quasibasis).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_superoperator_surface():
    public = {n for n in vars(quasibasis.SuperOperator) if not n.startswith("_")}
    assert public == {"apply"}


def test_triple_products_signature():
    params = inspect.signature(quasibasis.triple_products).parameters
    assert list(params) == ["basis"]
