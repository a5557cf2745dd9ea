"""arithdyn: exact orbits of rational and monomial self-maps, Weil heights,
and certified estimates of dynamical degrees, arithmetic degrees and
canonical heights."""

__version__ = "0.1.0"

from .errors import (ArithDynError, ConeNotPreserved, ContractViolation,
                     DegreeMismatch, IndeterminatePoint, NonMorphism,
                     NotAPoint, NotOnTorus, ResourceCapExceeded,
                     UnsupportedDimension)
from .polynomials import (MultiPoly, format_poly, parse_poly, poly_add,
                          poly_compose, poly_content, poly_gcd, poly_mul,
                          poly_primitive_part)
from .heights import (HeightValue, ProjPointQ, format_point, hplus,
                      normalize, parse_point, weil_height)
from .projmaps import (DegreeSequence, DynDegEstimate, OrbitRecord,
                       RationalMapPN, ResourceCaps, compose_normalized,
                       degree_sequence, dyndeg_estimate, is_morphism_p1,
                       map_evaluate, orbit, parse_map_spec,
                       serialize_map_spec, sylvester_resultant)
from .monomial import (FactoredTorusPoint, MonomialMap, factor_point,
                       mon_dyndeg, monomial_arithdeg, monomial_step,
                       monomial_to_projective, reconstruct, torus_height)
from .spectral import (IntMat, SpectralEstimate, birkhoff_cone_eigvec,
                       char_poly, fekete_limit, parse_matrix, power_norms,
                       spectral_radius, submult_check, supnorm)
from .degrees import (ArithDegreeEstimate, CanonicalHeightResult,
                      CanHtChecks, CountingReport, GrowthFit,
                      HeightSequence, InequalityReport, PreperiodicReport,
                      arithdeg_estimate, canht_functional_checks,
                      canonical_height, counting_function,
                      fundamental_inequality_check, growth_fit,
                      growth_profile_nondiverging, heights_from_orbit,
                      heights_from_values, p1_height_walk, p1_step_constant,
                      preperiodic_detect, recursion_bound_check,
                      tail_invariance_check)
