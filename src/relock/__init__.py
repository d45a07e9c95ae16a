"""Gate-level sequential logic encryption with sporadic re-authentication."""

from types import ModuleType as _ModuleType

from .bench import (
    BenchError,
    CircuitStats,
    CompiledCircuit,
    DanglingNetWarning,
    Gate,
    Netlist,
    emit_bench,
    load_bench,
    parse_bench,
    save_bench,
)
from .lfsr import MAXIMAL_TAPS, Lfsr, new_lfsr, period, step
from .encrypt import (
    DEFAULT_SEED,
    EncryptConfig,
    EncryptedDesign,
    EncryptReport,
    KeySchedule,
    XorSite,
    encrypt,
    load_config,
    load_schedule,
    save_schedule,
)
from .sim import (
    AuthWindow,
    Trace,
    authentication_schedule,
    simulate,
    trusted_user_stimulus,
    workload_cycle_mask,
    workload_stimulus,
    write_columnar,
    write_vcd,
)
from .evaluate import (
    Case,
    HdReport,
    OverheadReport,
    brute_force_effort,
    cycle_delay_overhead,
    cycle_delay_sweep,
    overhead_report,
    run_case,
    write_hd_csv,
)
from .unroll import CnfBuilder, to_dimacs
from .sat import SAT, UNKNOWN, UNSAT, Solver, SolveResult, solve
from .attack import (
    STATUS_BUDGET,
    STATUS_NO_KEY,
    STATUS_RECOVERED,
    STATUS_VERIFY_FAILED,
    AttackResult,
    SequenceOracle,
    WindowRecovery,
    derive_window_starts,
    recover_key_sequences,
)

__version__ = "0.1.0"

# API names only: the submodules imported above are not part of it
__all__ = [
    name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
