"""Exact enumeration of Grassmann and Schubert codes over small finite fields.

The package builds the codes as projective systems of Pluecker coordinate
vectors, sweeps their full weight distributions in exact arithmetic, and
machine-checks the classification of minimum-weight codewords by
decomposable hyperplanes together with the second-minimum-weight formula
and the supporting combinatorial identities.
"""

from .gf import GF
from .qcombin import (index_tuples, delta, bruhat_leq, nabla_set, delta_set,
                      complement, gaussian_binomial, e_bound, e_prime_bound,
                      verify_gaussian_identities, verify_e_inequalities)
from .grassmann import (EchelonMatrix, PluckerVector, enumerate_cell,
                        enumerate_grassmannian, enumerate_schubert_variety,
                        plucker, string_label, string_fiber, project_tau)
from .exterior import (DualFunctional, WedgeElement, functional_to_wedge,
                       wedge_with_vector, wedge_of_vectors, wedge_pairing,
                       annihilator_dimension, annihilator_basis,
                       is_decomposable, check_functional,
                       parse_functional)
from .codes import (CodeSpec, Code, GeneratorMatrix, WeightDistribution,
                    BudgetExceeded, build_generator, point_table,
                    decomposable_table, codeword_weight, weight_distribution,
                    min_distance, second_min_weight, schubert_min_distance,
                    verify_nogin, verify_second_weight, verify_attained_family,
                    verify_string_section, verify_zanella_incidence,
                    verify_l2_dichotomy)
from .macwilliams import dual_distribution, check_macwilliams

__version__ = "0.1.0"
