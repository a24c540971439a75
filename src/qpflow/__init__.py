"""Cartesian power-flow lab with exactly simulated quantum linear solvers."""

from .grid import (
    Branch,
    Bus,
    BusKind,
    CaseError,
    GridCase,
    PowerFlowProblem,
    RowKind,
    SolverError,
    build_admittance,
    build_quadratic_forms,
    condition_number,
    flat_start,
    jacobian,
    parse_case,
    residual,
    sparsity,
)
from .hhl import HHLConfig, HHLResult, ShadowReadout, hhl_solve, qpf_hhl, recover_normalization
from .lcu import LCUDecomposition, hermitian_dilation, lcu_statistics, pauli_decompose, reconstruct, truncate
from .newton import NewtonConfig, SolveTrace, diagnostics_csv, lu_solve, newton_raphson
from .qsim import (
    DepthCounter,
    PauliString,
    PhaseEstimation,
    StateVector,
    apply_pauli_exponential,
    depth_report,
    eigenvalue_inversion,
    measure_ancilla_postselect,
)
from .resources import (
    DepthQuery,
    QramBudget,
    eigeninversion_gate_count,
    hhl_depth,
    qram_epsilon_for_infidelity,
    qram_epsilon_hardware,
    qram_infidelity,
    sweep,
)
from .shadows import ShadowEstimate, ShadowSnapshots, collect_shadows, estimate_pauli, reconstruct_real_state
from .variational import (
    Ansatz,
    OptimizerConfig,
    VQPFProblem,
    apply_ansatz,
    gradient,
    qpf_vqls,
    vqls_loss_global,
    vqls_loss_local,
    vqls_solve,
    vqpf_from_power_flow,
    vqpf_loss,
    vqpf_solve,
)

__version__ = "0.1.0"
