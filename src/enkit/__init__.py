"""enkit: compile Diophantine equations into systems of the three atomic
forms x_i = 1, x_i + x_j = x_k, x_i * x_j = x_k, and verify the reductions
with brute-force and propagation oracles."""

from .eqio import (FnRepresentation, format_polynomial, parse_equation,
                   parse_polynomial, parse_rep)
from .errors import (BoxTooLarge, CertificateMismatch, DimensionMismatch,
                     EnkitError, FamilyTooLarge, FormatError, ParseError,
                     UnusedVariable, ZeroPolynomial)
from .oracle import (Box, Conflict, EquivalenceReport, OracleLimits,
                     PinningReport, Solved, Stuck, check_assignment,
                     check_equivalence, enumerate_roots, foursquare_decompose,
                     lift, propagate, solve_bounded, verify_pinning)
from .pipeline import (AssembledSystem, PsiSystem, assemble, build_psi,
                       build_pipeline, check_assembled, master_witness,
                       threshold)
from .poly import Polynomial
from .reductions import (FamilyDescriptor, ReductionCertificate,
                         build_compact_n, build_compact_z, build_full_n,
                         build_full_z, build_halved_z, build_master_z,
                         build_reduction, enumerate_t, family_descriptor,
                         validate_certificate)
from .system import (DOMAIN_N, DOMAIN_Z, Add, EnSystem, Mul, One,
                     deserialize, serialize, validate)

__version__ = "0.1.0"
