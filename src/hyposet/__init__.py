"""hyposet: diagnostics for samplers over exactly enumerated hypothesis sets.

Three underdetermined inference tasks (perturbed causal networks, gravity-
constrained voxel stacks, Boolean input/output programs) with deterministic
validators and exact enumeration, plus validity/uniqueness/recovery scoring,
entropy-based exploration analysis, and a sampling harness.
"""

from .boolexpr import (
    BoolInstance,
    PhenotypeObservation,
    canon_expr,
    depth,
    enumerate_exprs,
    eval_expr,
    expr_key,
    filter_consistent,
    generate_bool_instance,
    parse_expr,
    serialize_expr,
    validate_expr,
)
from .causal import (
    CausalInstance,
    Dag,
    InterventionObservation,
    canon_dag,
    descendants,
    enumerate_admissible_dags,
    forward_effect,
    generate_causal_instance,
    parse_edges,
    serialize_dag,
    validate_dag,
)
from .errors import (
    ConfigError,
    ConstraintViolation,
    EnumerationLimit,
    ParseFailure,
    SamplerExhausted,
    TransportFailure,
)
from .harness import (
    RunLog,
    SamplerConfig,
    SamplerContext,
    derive_seed,
    load_log,
    make_sampler,
    render_prompt,
    rescore_log,
    run_instance,
    run_suite,
    send_chat,
)
from .metrics import (
    MetricsSummary,
    ProposalRecord,
    RunScorer,
    aggregate,
    coverage_fraction,
    creativity_measures,
    info_gain_series,
    is_novel,
    pattern_entropy,
    rr_at_k,
    score_run,
)
from .tasks import get_task, load_instance
from .voxel import (
    VoxelInstance,
    canon_stack,
    check_gravity,
    count_admissible,
    enumerate_admissible_stacks,
    generate_voxel_instance,
    parse_layers,
    project,
    serialize_stack,
    validate_stack,
)

__version__ = "0.1.0"
