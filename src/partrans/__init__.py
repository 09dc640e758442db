"""Exact group calculus for basic transformations of parabolic bundles
over a curve with marked points, with a torsion model of the Picard group.

Every public name loads on first use (PEP 562): `import partrans` imports
no submodule, and reading `partrans.X` imports only the module that
defines X, with what that module imports in turn.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names it gives; the package's one list of its surface
_EXPORTS = {
    "classify": (
        "ModuliDescriptor", "bridge_transformation", "curves_isomorphic", "torelli_3birational",
        "verify_decomposition", "weight_system_for",
    ),
    "curve": (
        "CurveAutomorphism", "CurveModel", "MarkedPoint", "load_config", "point_class",
        "validate_model",
    ),
    "dsl": ("divisor_form", "eval_expression", "format_canonical", "parse_expression"),
    "errors": (
        "ConfigError", "DimensionMismatch", "EnumerationCapExceeded", "ExtendedCompositionError",
        "HeckeOutOfRange", "ModelError", "NotGeneric", "NotInvertible", "ParseError",
        "PartransError", "ResultTooLarge", "ShapeMismatch", "UnknownAutomorphism", "UnknownPoint",
    ),
    "extended": (
        "ExtendedTransformation", "act_A", "act_ext", "automorphism_group_report", "compose_ext",
        "conjugate_tilde", "default_ref_det", "describe_ext", "ext_inverse", "identity_ext",
        "lift_basic",
    ),
    "picard": (
        "DEFAULT_ENUM_CAP", "JacobianAutomorphism", "JacobianElement", "LineBundleClass",
        "apply_jac_aut", "apply_jac_aut_line", "divide_by_r", "frac_to_str", "jac_aut_inverse",
        "lincomb", "make_jac_aut", "of_divisor", "pullback", "r_torsion", "tilde_compose",
    ),
    "transform": (
        "BasicTransformation", "Divisor", "ParabolicInvariant", "act_degree", "act_det",
        "act_invariant", "act_weights", "compose", "describe", "identity_transform", "inverse",
        "make_basic", "normalize_word", "stabilizer_d_alpha_quotient", "stabilizer_xi",
        "subgroup_membership", "t_d_quotient_reps",
    ),
    "weights": (
        "ChamberFingerprint", "WallDatum", "WeightSystem", "canonicalize", "chamber_fingerprint",
        "dual_weights", "hecke_weights", "is_generic", "parabolic_degree", "same_chamber",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the module that gives `name` and keep the value here, so
    later reads are plain attribute hits."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
