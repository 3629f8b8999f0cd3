"""Desk-scale pipeline: reversible machines, self-looping permutation
circuits, clock-observable spectra, and accuracy-limited decision tests."""

from .circuits import (
    BasisState,
    Circuit,
    PermGate,
    RegisterLayout,
    Wire,
    apply_circuit,
    build_step_circuit,
    build_wrapper_circuit,
    circuit_orbit_length,
    dump_circuit,
    machine_layout,
    nominal_cycle_length,
    state_bits,
    wrapper_layout,
)
from .clock import (
    ClockedState,
    ForwardOperator,
    LocalityReport,
    Orbit,
    SpectralModel,
    apply_forward,
    choose_time_scale,
    compute_orbit,
    dense_orbit_oracle,
    locality_report,
    norm_bound,
    spectral_model,
)
from .errors import (
    BudgetExceededError,
    ClockObsError,
    DimensionError,
    MachineStepError,
    PermutationError,
    SpecParseError,
    StageError,
)
from .harness import ExperimentConfig, ExperimentReport, run_experiment
from .metrology import (
    AccuracyModel,
    DecisionResult,
    PhaseEstimationSetup,
    SampleBatch,
    chernoff_confidence,
    decide,
    draw_batch,
    filter_round,
    phase_estimate_distribution,
    sample_phase_estimate,
)
from .rtm import (
    MachineConfig,
    MovingRule,
    ReadWriteRule,
    ReversibilityReport,
    RtmSpec,
    RunResult,
    StateKind,
    check_reversibility,
    parse_rtm_file,
    parse_rtm_spec,
    run_machine,
    step_machine,
)

__version__ = "0.1.0"
