"""Metric two-step nilpotent Lie algebras and the geodesic-orbit property."""

from .algebra import (
    MetricLieAlgebra,
    TwoStepSplit,
    algebra_from_dict,
    algebra_to_dict,
    center,
    derived,
    detect_flat_factor,
    make_algebra,
    nilpotency_class,
    split_two_step,
    validate,
)
from .errors import InputError, InterpolationError, NilgoError, NotTwoStepError, PreconditionError
from .families import (
    build_family,
    family_thm2,
    h_type_clifford,
    heisenberg,
    n10,
    n10_second,
    quaternionic_heisenberg,
)
from .geodesics import compare_geodesic_orbit, geodesic_integrate, orbit_integrate
from .go_checker import (
    GOCertificate,
    SamplerConfig,
    apply_center_metric,
    gordon_go_check,
    kv_go_check,
    kv_solve,
    riehm_predict,
    tnc_check,
)
from .invariants import distinguish, moebius_invariant, pfaffian_roots
from .jmaps import build_jmap, is_h_type, is_nonsingular, isotypic_test, pfaffian_form, radon_hurwitz
from .linear_core import HomogeneousPolynomial2, interpolate_homogeneous2
from .operator_subspaces import SkewOperatorSubspace, skew_derivations

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
