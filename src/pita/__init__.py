"""Exact factorisation calculus on skeletal finite sets, with axiom,
coherence and coalgebra checks that run by exhaustive enumeration at desk
scale."""

__version__ = "0.1.0"

from .decomp import (
    CoalgebraElement,
    FactorisationGroupoid,
    comult,
    comult_closed_form,
)
from .factorisation import PitaFactorisation, eta_rel, omega, pita_general
from .finskel import FinMap, compose, identity, pita
from .instances import make_fin, make_fin_surj, make_instance, make_op
from .nerve import Chain, FopDiagram, beta, opfibration_lift
from .opcat import Report, is_fop_square, verify_axioms

__all__ = [
    "FinMap",
    "compose",
    "identity",
    "pita",
    "pita_general",
    "PitaFactorisation",
    "eta_rel",
    "omega",
    "make_fin",
    "make_fin_surj",
    "make_instance",
    "make_op",
    "Report",
    "is_fop_square",
    "verify_axioms",
    "Chain",
    "FopDiagram",
    "beta",
    "opfibration_lift",
    "CoalgebraElement",
    "FactorisationGroupoid",
    "comult",
    "comult_closed_form",
    "__version__",
]
