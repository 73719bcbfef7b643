"""End-proximity statistics of branched structures.

Exact finite-size tables, limiting laws, exact samplers, k-let shuffling,
and a structure-file pipeline for the end-proximity measurements of the
exterior loop (deg, unp, chn, len, ete, hel, stm).
"""

from .exact import (
    CountTable,
    DEFAULT_PFOLD,
    Model,
    PfoldParams,
    SizeTooLarge,
    Stat,
    UnsupportedCombination,
    ZeroMassLength,
    catalan,
    conditional_law,
    dyck_deg_counts,
    enumerate_all,
    hel_stm_counts,
    motzkin_joint_counts,
    motzkin_number,
    pfold_inside,
    pfold_joint_probs,
    pfold_joint_table,
    pfold_string_probability,
)
from .limits import (
    JointNB,
    LenDist,
    MomentSummary,
    NegBinomial,
    NoRootInRange,
    PfoldDerived,
    TolNotAchievable,
    dyck_ete_truncations,
    ete_limit_moments,
    limit_of,
    moments,
    pfold_rho_delta,
    pmf_expand,
)
from .pipeline import (
    CompareReport,
    EmptyHistogram,
    NoRecords,
    SummaryBlock,
    compare,
    heatmap,
    run_stats,
    summarize,
    total_variation,
)
from .sampling import RngHandle, sample_dyck, sample_motzkin, sample_pfold
from .shuffling import KTooLarge, klet_shuffle, validate_klets
from .structure import (
    CrossingStructure,
    DEFAULT_ETE,
    EmptyStructure,
    EteModel,
    ExteriorStats,
    SecondaryStructure,
    StructureError,
    UnbalancedBracket,
    ete_distance,
    exterior_stats,
    first_helix_length,
    first_stem,
    parse_bpseq,
    parse_dot_bracket,
    rms_distance,
    shortest_path_stats,
    to_dot_bracket,
)

__version__ = "0.1.0"
