"""Springer Weyl-group representations by fixed-point localization.

For a nilpotent of Jordan type λ in type A this package computes the image
module of equivariant cohomology restricted to the fixed-point word set, the
induced symmetric-group action, the descent to ordinary cohomology through the
augmentation quotient, and the graded character — all in exact rational
arithmetic, cross-checked against an independent Garsia–Procesi (Tanisaki
ideal) oracle.
"""

from .errors import (CertificateError, GuardrailError, MalformedInputError,
                     SpringerlocError)
from .exactalg import (SparseEchelon, SparsePoly, TrackedEchelon,
                       monomial_count, monomials_of_degree)
from .flagmodel import (BorelClass, GkmReport, artin_basis,
                        equivariance_failures, gkm_divisibility_check,
                        packed_restrictions, restrict_to_t_fixed,
                        springer_restriction, weyl_act_on_class)
from .gporacle import gp_graded_character, tanisaki_generators
from .locengine import (GradedCharacter, ImageModule, StabilityReport,
                        augmentation_quotient, build_image_module,
                        freeness_certificate, graded_character,
                        verify_w_stability)
from .springer import (CrossCheckReport, EquivarianceReport,
                       KostkaFoulkesTable, SpringerReport, equivariance_check,
                       gaussian_factorial, kostka_foulkes_table,
                       oracle_cross_check, springer_compute, staircase_family)
from .straighten import StaircaseReducer
from .symgroup import (ConjClass, FixedPointSet, Partition, Permutation,
                       all_permutations, class_representative, class_size,
                       conjugacy_classes, coset_action, count_fixed_words,
                       decompose_class_function, fixed_point_set,
                       mn_character, partitions_of)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
