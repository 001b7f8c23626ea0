"""Springer Weyl-group representations by fixed-point localization.

For a nilpotent of Jordan type λ in type A this package computes the image
module of equivariant cohomology restricted to the fixed-point word set, the
induced symmetric-group action, the descent to ordinary cohomology through the
augmentation quotient, and the graded character — all in exact rational
arithmetic, cross-checked against an independent Garsia–Procesi (Tanisaki
ideal) oracle.
"""

from .errors import (CertificateError, ConventionError, GuardrailError,
                     MalformedInputError, SpringerlocError, StabilityError)
from .exactalg import (SparseEchelon, SparsePoly, TrackedEchelon,
                       monomial_count, monomials_of_degree)
from .flagmodel import (BorelClass, FixedPointVector, GkmReport, artin_basis,
                        equivariance_failures, gkm_divisibility_check,
                        restrict_to_t_fixed, springer_restriction,
                        weyl_act_on_class)
from .gporacle import (TANISAKI_CONJUGATE, CrossCheckReport,
                       gp_graded_character, oracle_cross_check,
                       tanisaki_generators, verify_orientation_convention)
from .locengine import (FreenessReport, GradedCharacter, ImageModule,
                        QuotientPresentation, StabilityReport, act_on_vector,
                        augmentation_quotient, build_image_module,
                        freeness_certificate, graded_character,
                        quotient_action_matrix, verify_w_stability)
from .springer import (EquivarianceReport, KostkaFoulkesTable, SpringerReport,
                       equivariance_check, gaussian_factorial,
                       irreducible_dimension, kostka_foulkes_table,
                       springer_compute, staircase_family)
from .straighten import StaircaseReducer
from .symgroup import (ConjClass, FixedPointSet, Partition, Permutation,
                       all_permutations, class_representative, class_size,
                       conjugacy_classes, coset_action, count_fixed_words,
                       decompose_class_function, fixed_point_set,
                       mn_character, partitions_of)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
