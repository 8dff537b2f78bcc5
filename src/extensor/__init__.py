"""Exact multilinear algebra toolkit.

Exterior algebras over the rationals with wedge and coproduct slices;
tensor powers with raising and lowering geometric products; Peano-space
meets, brackets, and Hodge stars; letterplace algebras with place
polarizations, biproducts, and the straightening rewrite; Whitney
algebras of matroids with normal forms, a brute-force ideal oracle,
exchange relations, and representation morphisms; plus an identity
verification suite and a small expression CLI.
"""

from .exterior import (DimensionMismatch, ExteriorElement, as_vector,
                       extensor_span, make_extensor, substitute, unit_vector)
from .tensor_power import (FoldMismatch, TensorPowerElement, contains, diamond,
                           meet_join_factor)
from .cg_algebra import OrderedBasis, PeanoSpace, hodge, join, standard_basis
from .span_invariants import (GeneralizedHodge, MinimalRepresentation,
                              dagger_representation, generalized_hodge,
                              geometric_product_sum, left_span,
                              minimal_representation, pairing_beta, right_span)
from .letterplace import (Biproduct, LetterplaceElement, biproduct_expand,
                          expand_raw, lp_normalize, make_biproduct, phi,
                          phi_inv, polarize, polarize_divided)
from .bitableau import (BitableauElement, StraighteningBudgetExceeded,
                        is_doubly_standard, is_standard,
                        shuffle_identity_sides, standard_expansion, straighten)
from .whitney import (Matroid, NotARepresentation, WhitneyElement,
                      check_representation, exchange_check, exchange_sides,
                      ideal_membership_bruteforce, make_matroid, represent,
                      wh_normal_form)
from .identity_suite import (Report, run_suite, verify_alternative_r,
                             verify_capelli, verify_desargues,
                             verify_distributive, verify_hodge_diamond,
                             verify_modular)

__version__ = "0.1.0"
