"""Heegner-point class polynomials on X_0*(p) and supersingular prime search.

Construct the class polynomials P_D(X) attached to Heegner points of
discriminant -pl and -4pl on the Atkin-Lehner quotients X_0*(p) for
p in {3, 5, 7, 11, 13, 19}, search for supersingular primes of the elliptic
curves parametrized by rational points, and verify the findings
independently by walking the 2-isogeny graph of each reduction (Sutherland's
test, equivalent to the Hasse-invariant criterion) for primes below 2^64.
"""

from .classpoly import (
    ClassPolynomial,
    PrecisionExhaustedError,
    build_PD,
    build_Pl,
    evaluate,
)
from .intmath import FactorBudget, Factorization, factorize, is_prime, kronecker
from .levels import LEVELS, Level, level
from .modpoly import (
    epsilon_split,
    is_perfect_square,
    is_square_times_linear,
    mod_p_square_check,
    supersingular_jp_residues,
)
from .quadforms import (
    Discriminant,
    QuadForm,
    class_number,
    enumerate_classes,
    fundamental_unit,
    heegner_rep,
)
from .hauptmodul import jp_arc_interval
from .sssearch import (
    RealJCaseError,
    SearchCertificate,
    SupersingularAtPError,
    ell_admissible,
    extract_primes,
    search,
    search_polynomial,
    sigma_condition,
)
from .ssverify import QuadSurd, lift_j_from_h_level3, verify_certificate

__version__ = "0.1.0"
