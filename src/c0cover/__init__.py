"""Cover calculus on finite discretizations of metric compactification packs.

The library builds canonical covers of minimal multiplicity (at most
dim X + 2) on the complement of a boundary set, constructs and tests
displacement-controlled relations, and verifies the multiplicity identities
and inequalities of the calculus at desk scale.
"""

from .covers import (
    Cover,
    RefinementWitness,
    common_multiplicity,
    delta_of,
    is_canonical,
    lebesgue_number,
    mesh,
    mult_along,
    mult_at,
    mult_on,
    multiplicity,
    refines,
    singleton_cover,
    star,
    uniformity_verdict,
    whole_space_cover,
)
from .canonical import (
    Provider,
    build_alpha,
    canonical_refining,
    ext,
    finite_dim0_provider,
    interval_dim1_provider,
    minimal_canonical,
    provider_for,
    refine_subsequence,
    star_expand,
)
from .cylinder import (
    Embedding,
    collar_embedding,
    f_map,
    fxf_modulus,
    g_map,
    identity_embedding,
    lower_bound_check,
    pullback_cover,
    random_uniform_candidates,
)
from .errors import C0CoverError
from .experiment import ExperimentConfig, run_experiment
from .packs import (
    DiscretePack,
    ModulusCurve,
    PackKind,
    ScaleLadder,
    annulus,
    default_ladder,
    generate_pack,
    h_profile,
    merged_levels,
    sample_levels,
    validate_pack,
)
from .relations import (
    CurveVerdict,
    LambdaSpec,
    Relation,
    ball_cover,
    c0_modulus,
    compose,
    controlled_E,
    diag_nbhd_from_lambda,
    diagonal,
    full_relation,
    shrink_cover,
)
from .svg import emit_svg
from .verify import verify_suite

__version__ = "0.1.0"
