"""Desk-scale simulator of linear-optics superdense coding on a mixed basis.

Exact two-photon polarization states, the four-message encoder with its
monitored polarizer, the beam-splitter analyzer, three protocol scenarios
with a classical side channel, and the capacity accounting that goes with
them. See the README for the command-line interface.
"""

from .capacity import (
    CapacityReport,
    ExpectedAccounting,
    SymbolCounts,
    capacity_from_counts,
    expected_accounting,
    total_variation_distance,
    uniform_alphabet,
)
from .elements import beam_splitter, hwp, pbs, polarizer_monitor
from .fock import (
    CoverageError,
    ModeLabel,
    ModeRegistry,
    ModeUnitary,
    NonUnitaryError,
    OutcomeTable,
    PureState,
    RegistryError,
    apply_element,
    branch_on_modes,
    make_state,
    outcome_distribution,
    sample_outcome,
)
from .protocol import (
    ALPHABET,
    Branch,
    ClassifiedOutcome,
    ClonePolicy,
    DetectionPattern,
    MessageSymbol,
    OpticalBench,
    Owner,
    ReferenceState,
    Scenario,
    Verdict,
    default_bench,
)
from .session import (
    InvalidConfigError,
    Note,
    NoteKind,
    RunConfig,
    ScenarioAction,
    Session,
    SessionResult,
    TrialRecord,
    Trials,
    bob_records,
    bob_reconstruction,
    delivered_sequence,
    intended_stream,
    run_session,
)

__version__ = "0.1.0"
