"""The public surface of quasibasis, pinned. A change here is an API change:
edit the literals together with the README's list of removed names."""

import importlib
import inspect
import types

import quasibasis

PUBLIC_NAMES = {
    "BasisClass", "BasisValidationError", "BornMatrix", "DiagnosticsReport",
    "DistanceReport", "EquivalenceResult", "GaugeSplit", "MeasureBasis",
    "PWResult", "QuasiDistribution", "ReconstructedState", "SicOrbitError",
    "SuiteResult", "TripleProducts",
    "as_hermitian", "bias", "bias_matrix", "born_matrix", "builtin_sic",
    "ceiling_negativity", "ceiling_negativity_sampled", "collinear",
    "composite_wootters", "conditional_matrix", "coords_to_op",
    "diagnostics", "distance", "distance_bounds",
    "dual_basis", "ebmc_apply", "frame_operator", "gauge_split", "gram",
    "herm_onb", "hs_inner", "lift", "mic_t_range",
    "op_to_coords", "principal_wigner", "probs_to_state", "random_mic",
    "random_unbiased_mic", "random_unbiased_wigner",
    "rescaled_frame_operator", "shifted", "sic_bounds", "sic_from_fiducial",
    "sic_gram", "sic_triple_relation_check", "sqrt_born", "state_to_probs",
    "tensor_basis", "tensorhedron", "triple_products", "two_step_q",
    "validate", "validate_povm", "validate_state", "verify_collinear",
    "verify_negativity", "verify_theorem1", "verify_theorem2",
    "verify_triple", "wh_displacement",
    "wigner_equivalent", "wootters_triple_oracle", "wootters_wigner",
}

MODULES = (
    "operators", "bases", "constructions", "wigner", "representations",
    "analysis", "serialize", "cli",
)

# Parameters of every public function, class constructor and public method
# (without self) defined in the package's modules; exception classes
# excluded. A keyword added or removed anywhere shows up here.
SIGNATURES = {
    "operators.as_hermitian": ["A"],
    "operators.hs_inner": ["A", "B"],
    "operators.herm_onb": ["d"],
    "operators.op_to_coords": ["A"],
    "operators.coords_to_op": ["v", "d"],
    "bases.BasisClass": [
        "is_measure_basis", "is_mic", "is_wigner", "is_unbiased", "is_rank1",
        "min_eigenvalue", "gram_condition", "failures"
    ],
    "bases.BasisClass.summary": [],
    "bases.MeasureBasis": ["elements", "label"],
    "bases.MeasureBasis.classify": [],
    "bases.validate": ["candidate"],
    "bases.gram": ["basis"],
    "bases.bias": ["basis"],
    "bases.bias_matrix": ["basis"],
    "bases.dual_basis": ["basis"],
    "bases.frame_operator": ["basis"],
    "bases.rescaled_frame_operator": ["basis"],
    "bases.BornMatrix": ["phi", "phi_sqrt", "weights"],
    "bases.BornMatrix.column_sum_residual": [],
    "bases.BornMatrix.weight_eigvec_residual": [],
    "bases.born_matrix": ["basis"],
    "constructions.wh_displacement": ["d", "k", "l"],
    "constructions.sic_gram": ["d"],
    "constructions.sic_gram_deviation": ["elements"],
    "constructions.sic_from_fiducial": ["fiducial", "tol"],
    "constructions.builtin_sic": ["d"],
    "constructions.prime_factors": ["n"],
    "constructions.parity_operator": ["d"],
    "constructions.wootters_wigner": ["d"],
    "constructions.tensor_basis": ["left", "right"],
    "constructions.composite_wootters": ["primes"],
    "constructions.tensorhedron": ["n"],
    "constructions.collinear": ["basis", "t"],
    "constructions.mic_t_range": ["basis"],
    "constructions.random_mic": ["d", "seed"],
    "constructions.random_unbiased_mic": ["d", "seed"],
    "constructions.random_unbiased_wigner": ["d", "seed"],
    "wigner.sqrt_born": ["basis"],
    "wigner.PWResult": ["basis", "via_polar", "via_sqrtphi", "cross_error",
                        "orthogonality_residual", "bias_deviation"],
    "wigner.principal_wigner": ["basis"],
    "wigner.shifted": ["basis"],
    "wigner.EquivalenceResult": [
        "equivalent", "max_deviation", "verdict", "permutation"
    ],
    "wigner.wigner_equivalent": ["left", "right", "mode"],
    "wigner.lift": ["wigner_basis", "reference"],
    "representations.validate_state": ["rho"],
    "representations.validate_povm": ["effects"],
    "representations.state_to_probs": ["rho", "basis"],
    "representations.ReconstructedState": [
        "operator", "trace", "min_eigenvalue", "is_state"
    ],
    "representations.probs_to_state": ["p", "basis"],
    "representations.QuasiDistribution": ["values"],
    "representations.conditional_matrix": ["effects", "basis"],
    "representations.two_step_q": ["effects", "basis", "rho"],
    "representations.GaugeSplit": ["left", "right", "reconstruction_residual"],
    "representations.gauge_split": ["effects", "basis", "rho"],
    "representations.ebmc_apply": ["basis", "X"],
    "analysis.distance": ["left", "right"],
    "analysis.DistanceReport": ["lower_bound", "upper_bound", "spectrum"],
    "analysis.distance_bounds": ["mic"],
    "analysis.sic_bounds": ["d"],
    "analysis.ceiling_negativity": ["wigner_basis"],
    "analysis.ceiling_negativity_sampled": [
        "wigner_basis", "n_samples", "seed"
    ],
    "analysis.TripleProducts": ["dim", "gamma"],
    "analysis.TripleProducts.cyclic_residual": [],
    "analysis.TripleProducts.conjugation_residual": [],
    "analysis.TripleProducts.sum_rule_residual": ["basis"],
    "analysis.triple_products": ["basis"],
    "analysis.wootters_triple_oracle": ["d"],
    "analysis.sic_triple_relation_check": ["sic", "sign"],
    "analysis.DiagnosticsReport": [
        "equiangular", "equiangular_spread", "rank_profile", "wh_covariant"
    ],
    "analysis.wh_covariant": ["basis"],
    "analysis.diagnostics": ["basis"],
    "analysis.SuiteResult": ["suite", "clauses", "extras"],
    "analysis.verify_theorem1": ["mic", "tol"],
    "analysis.verify_theorem2": ["mic", "tol"],
    "analysis.verify_collinear": ["basis", "ts", "tol"],
    "analysis.verify_triple": ["basis", "products", "tol"],
    "analysis.verify_negativity": ["wigner_basis", "samples", "seed", "tol"],
    "serialize.dumps_json": ["obj"],
    "serialize.basis_to_dict": ["basis"],
    "serialize.write_basis": ["basis", "path"],
    "serialize.read_basis": ["path"],
    "serialize.read_povm": ["path"],
    "serialize.read_fiducial": ["path"],
    "serialize.write_fiducial": ["fiducial", "path"],
    "serialize.read_state": ["path"],
    "serialize.write_state": ["rho", "path"],
    "cli.build_parser": [],
    "cli.main": ["argv"],
}


def test_public_names():
    exported = {
        name for name, value in vars(quasibasis).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def _parameters(func, skip_self=False):
    return list(inspect.signature(func).parameters)[int(skip_self):]


def test_public_signatures():
    found = {}
    for mod in MODULES:
        module = importlib.import_module(f"quasibasis.{mod}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if inspect.isclass(obj):
                if issubclass(obj, BaseException):
                    continue
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        key = f"{mod}.{name}.{attr}"
                        found[key] = _parameters(member, skip_self=True)
            found[f"{mod}.{name}"] = _parameters(obj)
    assert found == SIGNATURES


def test_superoperator_surface():
    # SuperOperator is retired: frame operators are plain (d², d²) arrays,
    # and no module keeps the class under its old name.
    assert "SuperOperator" not in vars(quasibasis)
    for mod in MODULES:
        module = importlib.import_module(f"quasibasis.{mod}")
        assert not hasattr(module, "SuperOperator")


def test_triple_products_signature():
    params = inspect.signature(quasibasis.triple_products).parameters
    assert list(params) == ["basis"]


# Every public numeric module constant: the tolerances, the condition and
# byte limits, and the CLI's exit codes. A loosened tolerance shows up here.
CONSTANTS = {
    "HERMITICITY_RTOL": 1e-9,
    "VALIDATION_TOL": 1e-9,
    "MAX_GRAM_CONDITION": 1e12,
    "RANK_EIG_RTOL": 1e-8,
    "WEIGHT_TOL": 1e-12,
    "SIC_TOL": 1e-8,
    "CROSS_CHECK_TOL": 1e-8,
    "EQUIV_TOL": 1e-8,
    "STATE_TOL": 1e-9,
    "QUASI_SUM_TOL": 1e-10,
    "SATURATION_TOL": 1e-9,
    "MATCH_TOL": 1e-8,
    "EQUIANGULAR_TOL": 1e-8,
    "TRIPLE_BYTES_BUDGET": 2**28,
    "USAGE_ERROR": 2,
    "VERIFY_ERROR": 1,
}


def test_tolerances_pinned():
    found = {}
    for mod in MODULES:
        module = importlib.import_module(f"quasibasis.{mod}")
        for name, value in vars(module).items():
            if (name.isupper() and not name.startswith("_")
                    and isinstance(value, (int, float))):
                assert found.setdefault(name, value) == value, name
    assert found == CONSTANTS
