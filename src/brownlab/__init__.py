"""Desk-scale laboratory for spectra of quadratic polynomials in Ginibre
matrices: linearizations, pseudospectrum statistics, Brown-measure
estimation, and matrix random-walk anti-concentration experiments."""

__version__ = "0.1.0"

from .ncpoly import (
    NcPoly,
    StarWord,
    ParseError,
    parse,
    parse_star_word,
    evaluate,
    free_moment,
)
from .rmtcore import (
    stream,
    ginibre_matrix,
    ginibre_tuple,
    haar_unitary,
    esd,
)
from .linearize import (
    Linearization,
    SingularFactorError,
    SchurMismatchError,
    build_linearization,
    verify_schur,
)
from .pseudospec import (
    GridSpec,
    TailEstimate,
    trial_tuple,
    trial_matrix,
    trial_map,
    smin_map_full,
    tail_estimate,
    pseudospectrum_area,
)
from .brown import (
    LogPotentialField,
    BrownEstimate,
    default_floor,
    log_potential,
    brown_estimate,
    stieltjes,
    compare_esd_brown,
)
from .walks import (
    WalkBasis,
    DeltaReport,
    DegenerateDrawError,
    orthocomplement_basis,
    delta_report,
    walk_matrix,
    det_tail_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
