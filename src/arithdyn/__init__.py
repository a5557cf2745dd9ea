"""arithdyn: exact orbits of rational and monomial self-maps, Weil heights,
and certified estimates of dynamical degrees, arithmetic degrees and
canonical heights.

The exported names load lazily (PEP 562): ``from arithdyn import orbit``
imports ``arithdyn.projmaps`` on first use, so a process imports only the
modules whose names it reads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "errors": ("ArithDynError", "ConeNotPreserved", "ContractViolation",
               "DegreeMismatch", "IndeterminatePoint", "NonMorphism",
               "NotAPoint", "NotOnTorus", "ResourceCapExceeded"),
    "polynomials": ("MultiPoly", "format_poly", "parse_poly", "poly_compose",
                    "poly_content", "poly_gcd", "poly_mul",
                    "poly_primitive_part"),
    "heights": ("HeightSequence", "HeightValue", "ProjPointQ",
                "format_point", "heights_from_values", "normalize",
                "parse_point", "weil_height"),
    "projmaps": ("DegreeSequence", "DynDegEstimate", "OrbitRecord",
                 "RationalMapPN", "compose_normalized", "degree_sequence",
                 "dyndeg_estimate", "map_evaluate", "orbit", "parse_map_spec",
                 "serialize_map_spec", "sylvester_resultant"),
    "monomial": ("FactoredTorusPoint", "MonomialMap", "factor_point",
                 "mon_dyndeg", "monomial_arithdeg", "monomial_step",
                 "monomial_to_projective", "reconstruct", "torus_height"),
    "spectral": ("IntMat", "SpectralEstimate", "birkhoff_cone_eigvec",
                 "char_poly", "parse_matrix", "power_norms",
                 "spectral_radius", "submult_check", "supnorm"),
    "degrees": ("ArithDegreeEstimate", "CanonicalHeightResult",
                "CanHtChecks", "CountingReport", "GrowthFit",
                "InequalityReport", "PreperiodicReport",
                "arithdeg_estimate", "canht_functional_checks",
                "canonical_height", "counting_function",
                "fundamental_inequality_check", "growth_fit",
                "growth_profile_nondiverging", "heights_from_orbit",
                "p1_height_walk", "p1_step_constant", "preperiodic_detect",
                "recursion_bound_check"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module("." + mod, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
