"""Exact computer algebra for homotopy associative and homotopy Lie
structures presented as codifferentials on tensor and exterior coalgebras
of finite-dimensional Z2-graded spaces."""

from .fields import QQ, FpElement, PrimeField, Rationals
from .graded import EXTERIOR, TENSOR, GradedSpace
from .cochain import (Cochain, InnerProduct, ScalarCochain, add,
                      canonical_tuples, scale, tilde, untilde, zero_cochain)
from .coderivation import (CONVENTIONS, V_OF_W, W_OF_V, compose,
                           convert_convention_parts, family_bracket,
                           modified_bracket)
from .structures import (A_INFINITY, L_INFINITY, InfinityStructure,
                         StructureError, ValidationReport,
                         structure_residual, validate)
from .homology import (CohomologyReport, DeformationClass, InvarianceError,
                       classify_deformation, coboundary, cohomology,
                       cyclic_coboundary, cyclic_cohomology, cyclicize,
                       deform_check, is_cyclic, is_cyclic_scalar)
from .algfile import AlgebraFile, ParseError, parse, serialize

__version__ = "0.1.0"
