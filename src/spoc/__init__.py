"""Sequential particle approximation of McKean-Vlasov SDEs.

Recursive weighted-empirical-measure particle systems (sequential, batch, and
classical mean-field variants), Wasserstein distance machinery, dissipativity
profile transforms, and convergence-rate studies.
"""

__version__ = "0.1.0"

from .errors import (
    AssumptionViolationError,
    BlowUpError,
    ConfigError,
    DimensionMismatchError,
    InvalidScheduleError,
    MeasureSizeError,
    NumericsError,
    RunFormatError,
    SingularScheduleError,
    SpocError,
)
from .schedules import (
    RecursiveBoundProbe,
    ScheduleDiagnostics,
    UpdateSchedule,
    decay_product,
    recursive_bound_probe,
    schedule_diagnostics,
    theta_sequence,
    weight_sequence,
)
from .measures import (
    GroundCost,
    SlicedReference,
    SummaryStats,
    WeightedEmpirical,
    combine_kn,
    combine_kn_running,
    gaussian_w2_1d,
    moment,
    sliced_w2,
    update,
    w2_quantile_grid,
    wasserstein_1d,
    wasserstein_exact,
)
from .models import (
    FProfile,
    KappaProfile,
    ModelSpec,
    WeakInteractionCheck,
    build_f_from_kappa,
    builtin_model,
    curie_weiss_weak_interaction_check,
)
from .simulate import (
    CoupledRunResult,
    InitialCondition,
    ReferenceSolution,
    RunResult,
    SimConfig,
    batch_spoc_run,
    classical_poc_run,
    coupled_spoc_run,
    load_run,
    reference_run,
    save_run,
    spoc_run,
)
from .analysis import (
    ConvergenceTable,
    RateFit,
    convergence_study,
    density_histogram,
    iid_convergence_study,
    kn_second_moment_study,
    path_projection_tk,
    path_space_w2,
    rate_fit,
)
