"""Every operator, stack or fiducial argument goes through one shape and
dimension rule (operators._square): a malformed argument raises ValueError
naming the expected shape, and a dimension mismatch names both dimensions."""

import json
import os
import re

import numpy as np
import pytest

from quasibasis import analysis, bases, constructions, operators
from quasibasis import representations, serialize, wigner
from quasibasis.cli import main
from quasibasis.constructions import builtin_sic, wootters_wigner

from test_api import SIGNATURES


def _represent_mismatch(tmp_path, capsys):
    basis, state = tmp_path / "w3.json", tmp_path / "qubit.json"
    serialize.write_basis(wootters_wigner(3), basis)
    serialize.write_state(np.eye(2) / 2, state)
    code = main(["represent", "--state", str(state), "--basis", str(basis),
                 "--mode", "quasi"])
    assert code == 2
    return json.loads(capsys.readouterr().out)["payload"]["message"]


def _raised(call):
    def message(tmp_path, capsys):
        with pytest.raises(ValueError) as info:
            call()
        return str(info.value)
    return message


Q2, Q3 = np.eye(2) / 2, np.eye(3) / 3

MISMATCHES = {
    "hs_inner": _raised(lambda: operators.hs_inner(np.eye(2), np.eye(3))),
    "state_to_probs": _raised(
        lambda: representations.state_to_probs(Q2, builtin_sic(3))),
    "conditional_matrix": _raised(lambda: representations.conditional_matrix(
        builtin_sic(3).elements, builtin_sic(2))),
    "ebmc_apply": _raised(
        lambda: representations.ebmc_apply(builtin_sic(2), Q3)),
    "distance": _raised(
        lambda: analysis.distance(builtin_sic(2), builtin_sic(3))),
    "wigner_equivalent": _raised(
        lambda: wigner.wigner_equivalent(builtin_sic(2), builtin_sic(3))),
    "lift": _raised(
        lambda: wigner.lift(wootters_wigner(2), builtin_sic(3))),
    "cli-represent": _represent_mismatch,
}


@pytest.mark.parametrize("case", MISMATCHES)
def test_dimension_mismatch_names_both_dimensions(case, tmp_path, capsys):
    message = MISMATCHES[case](tmp_path, capsys)
    assert re.fullmatch(r"dimension mismatch: [\w ]+ d=\d, expected d=\d",
                        message), message
    assert "d=2" in message and "d=3" in message


# Every public function that takes an operator, a stack or a fiducial, one
# entry per such parameter, with the other arguments valid.
OPERATOR_PARAMS = {"A", "B", "elements", "candidate", "rho", "effects", "X",
                   "fiducial"}
SIC2 = builtin_sic(2)
TAKERS = {
    ("operators.as_hermitian", "A"): operators.as_hermitian,
    ("operators.hs_inner", "A"): lambda a: operators.hs_inner(a, np.eye(2)),
    ("operators.hs_inner", "B"): lambda a: operators.hs_inner(np.eye(2), a),
    ("operators.op_to_coords", "A"): operators.op_to_coords,
    ("bases.MeasureBasis", "elements"): bases.MeasureBasis,
    ("bases.validate", "candidate"): bases.validate,
    ("bases.dual_basis", "basis"): bases.dual_basis,
    ("constructions.sic_gram_deviation", "elements"):
        constructions.sic_gram_deviation,
    ("constructions.sic_from_fiducial", "fiducial"):
        constructions.sic_from_fiducial,
    ("representations.validate_state", "rho"): representations.validate_state,
    ("representations.validate_povm", "effects"):
        representations.validate_povm,
    ("representations.state_to_probs", "rho"):
        lambda a: representations.state_to_probs(a, SIC2),
    ("representations.conditional_matrix", "effects"):
        lambda a: representations.conditional_matrix(a, SIC2),
    ("representations.two_step_q", "effects"):
        lambda a: representations.two_step_q(a, SIC2, Q2),
    ("representations.two_step_q", "rho"):
        lambda a: representations.two_step_q(SIC2.elements, SIC2, a),
    ("representations.gauge_split", "effects"):
        lambda a: representations.gauge_split(a, SIC2, Q2),
    ("representations.gauge_split", "rho"):
        lambda a: representations.gauge_split(SIC2.elements, SIC2, a),
    ("representations.ebmc_apply", "X"):
        lambda a: representations.ebmc_apply(SIC2, a),
    ("serialize.write_fiducial", "fiducial"):
        lambda a: serialize.write_fiducial(a, os.devnull),
    ("serialize.write_state", "rho"):
        lambda a: serialize.write_state(a, os.devnull),
}

# kind: (the operator or stack argument, the fiducial argument); a fiducial
# is a vector, so its wrong rank is a matrix
MALFORMED = {
    "wrong-rank": (np.ones(4) / 4, np.eye(2) / np.sqrt(2)),
    "non-square": (np.ones((2, 3)),) * 2,
    "4d": (np.ones((2, 2, 2, 2)),) * 2,
}


def test_table_covers_every_operator_parameter():
    takers = {
        (name, param) for name, params in SIGNATURES.items()
        for param in params if param in OPERATOR_PARAMS
    }
    takers.add(("bases.dual_basis", "basis"))  # a basis or a raw stack
    assert set(TAKERS) == takers


@pytest.mark.parametrize("taker", TAKERS, ids="{0[0]}[{0[1]}]".format)
@pytest.mark.parametrize("kind", MALFORMED)
def test_malformed_argument_raises_value_error(taker, kind):
    arg = MALFORMED[kind][taker[1] == "fiducial"]
    with pytest.raises(ValueError, match=re.escape(f"shape {arg.shape}")):
        TAKERS[taker](arg)
