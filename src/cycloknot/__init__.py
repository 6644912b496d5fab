"""Exact computation of Habiro cyclotomic coefficients and the colored Jones,
ADO, WRT and CGP invariants of double twist and (2,2t+1) torus knots, with a
verification harness for the identities relating them.

All arithmetic is exact: arbitrary-precision integers, sparse Laurent
polynomials with half-integer exponents, and cyclotomic integers Z[zeta_m].
"""

import sys

from .exactring import (
    CycNumber,
    InexactDivisionError,
    LaurentPoly,
    cyclotomic_polynomial,
    eval_at_root,
    exact_div,
    euler_phi,
    zeta,
)
from .invariants import (
    AdoPoly,
    CgpResult,
    InvariantReport,
    MixedResidueError,
    ado,
    ado_conjectural,
    cgp_from_ado,
    cgp_torus_direct,
    cgp_zero,
    check_torus_recurrence,
    chi_st,
    colored_jones,
    colored_jones_hyper_t2,
    extract_T,
    normalized_wrt,
    verify_T_claim,
    verify_thm3,
    wrt_torus_direct,
    wrt_zero,
    wrt_zero_closed,
)
from .knots import (
    DoubleTwist,
    KnotParseError,
    Mirror,
    TorusTwoStrand,
    a_at_one,
    a_at_root,
    a_minus_one_closed,
    a_one_closed,
    alexander,
    double_twist,
    habiro_a,
    habiro_c,
    habiro_from_jones,
    knot_str,
    mirror,
    parse_knot,
    t25_closed_forms,
    torus_two_strand,
)
from .qtools import (
    brace,
    bracket_poly,
    pochhammer_pair,
    pochhammer_xq,
    qbinomial,
    qbinomial_at_root,
    qbinomial_balanced,
    qfactorial,
    qint,
    qpochhammer,
    sigma,
    sigma_at_root,
)
from .verify import SUITES, run_suite

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every functools.lru_cache of the package's loaded modules.

    The memoized q-binomials, chain sums and Habiro coefficients are kept
    for the life of the process; this releases them.  Later calls recompute
    what they need and return equal values.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
