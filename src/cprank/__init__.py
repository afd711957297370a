"""Analysis of symmetric nonnegative matrices: double nonnegativity,
complete positivity certificates with cp-rank equal to rank, and the
graph and cone conditions that bound cp-rank when equality fails.

The package logs to the ``cprank`` logger, which has a ``NullHandler``:
attach a handler at DEBUG level to trace the rotation searches."""

import logging

from .cones import (
    ConeReport,
    extreme_rays,
    fit_rays,
)
from .errors import (
    ComputationFailureError,
    CprankError,
    InvalidInputError,
    PreconditionError,
)
from .fixtures import (
    EXAMPLE_IDS,
    SoulesBasis,
    example_factor,
    example_matrix,
    random_dn,
    soules_basis,
    soules_cp,
)
from .graphcond import (
    CycleCheck,
    GraphShape,
    TriangleFreeResult,
    classify_graph,
    cycle_necessary,
    kaykobad_factor,
    triangle_free_criterion,
)
from .matcore import (
    DEFAULT_TOL,
    DnVerdict,
    EigenDecomposition,
    PsdRank,
    SymmetricMatrix,
    Tolerances,
    as_symmetric,
    classify_dn,
    comparison_matrix,
    psd_rank,
)
from .nnq import (
    IN_CP_N3,
    NnqSearchResult,
    NnqWitness,
    Rank3RayDecision,
    decide_rank3_three_rays,
    is_nnq_gram,
    nnq_from_rays,
)
from .pipeline import (
    AnalysisConfig,
    AnalysisReport,
    StepRecord,
    analyze,
    matrix_to_text,
    read_matrix,
    write_report,
)
from .rotate import (
    RotationPlan,
    RowSumData,
    boundary_witness,
    e_cone_threshold,
    few_rays_factor,
    householder_align,
    in_e_cone,
    orthant_rotation_search,
    random_orthogonal,
    rowsum_condition,
    rowsum_factor,
)
from .srfactor import (
    CpCertificate,
    VerificationReport,
    make_certificate,
    sr_factor,
    verify_certificate,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"
