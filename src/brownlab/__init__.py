"""Desk-scale laboratory for spectra of quadratic polynomials in Ginibre
matrices: linearizations, pseudospectrum statistics, Brown-measure
estimation, and matrix random-walk anti-concentration experiments."""

__version__ = "0.1.0"

from .ncpoly import (
    NcPoly,
    QuadraticData,
    StarWord,
    ParseError,
    parse,
    parse_star_word,
    quadratic_data,
    evaluate,
    free_moment,
    circular_word_traces,
)
from .rmtcore import (
    SpectrumSample,
    SingularSpectrum,
    DecompositionError,
    stream,
    ginibre_matrix,
    ginibre_tuple,
    haar_unitary,
    esd,
    singular_values,
)
from .linearize import (
    Linearization,
    BlockShift,
    SingularFactorError,
    SchurMismatchError,
    build_linearization,
    assemble_Lz,
    verify_schur,
)
from .pseudospec import (
    GridSpec,
    GridField,
    TailEstimate,
    trial_tuple,
    trial_matrix,
    smin_map_full,
    tail_estimate,
    smin_shifted_tail,
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
    WalkMatrix,
    DegenerateDrawError,
    orthocomplement_basis,
    block_column,
    test_projection,
    delta_report,
    walk_matrix,
    select_rows,
    det_tail_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
