"""Exact arithmetic invariants of Fermat and Kummer Calabi-Yau varieties
in positive characteristic: Jacobi sums, zeta functions, Newton slopes,
formal-group heights, supersingularity predicates and period lattices,
each paired with an independent brute-force check."""

from .errors import BudgetError, InputError, InternalCheckError
from .finite_field import FiniteField, build_field, frobenius_subgroup
from .cyclotomic import CycInt, cyclotomic_polynomial, modulus_squared
from .padic import PadicContext, padic_valuation
from .character_sums import Character, jacobi_sum, jacobi_sum_table
from .fermat import (FermatParams, INFINITE, alpha_count, artin_comparison,
                     artin_survey, brute_force_point_count,
                     exponent_multisets, exponent_vectors,
                     fully_rigged_fermat, height_fermat,
                     hodge_numbers_fermat, newton_slopes,
                     point_count_from_zeta, predicted_height,
                     stickelberger_check, variety_report, variety_survey,
                     zeta_fermat, zeta_report)
from .kummer import (QuadLattice, abelian_height, ec_count_points,
                     kummer_report, lattice_from_generators, lattice_index,
                     period_lattice, predicted_example_height,
                     standard_lattice)

__version__ = "0.1.0"
