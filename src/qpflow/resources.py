"""Closed-form resource calculators: phase-estimation depth tables and
QRAM error budgets.

Depth queries assemble the QPE + eigenvalue-inversion + inverse-QPE
circuit symbolically (no amplitudes) under the gate-cost convention shared
with the simulator.  Each clock bit contributes one Trotterized controlled
evolution of trotter_m steps over L representative Pauli terms costed at
the exact average of a uniformly drawn non-identity Pauli word; table
comparisons against transpiled-circuit figures are order-of-magnitude by
construction.

QRAM formulas use base-2 logarithms throughout (a binary-tree switch
depth); every emitted record carries that convention.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qsim import DepthCounter, depth_report

LOG_BASE_NOTE = "log base 2"


@dataclass
class DepthQuery:
    n: int  # system qubits
    l: int  # LCU term count
    trotter_m: int = 10
    clock_bits: int | None = None  # None selects clock_bits = n

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.trotter_m < 1:
            raise ValueError("trotter_m must be >= 1")
        if not 1 <= self.l <= 4**self.n:
            raise ValueError(f"need 1 <= L <= 4**n, got L={self.l} at n={self.n}")

    @property
    def clock(self) -> int:
        return self.n if self.clock_bits is None else self.clock_bits


@dataclass
class QramBudget:
    kappa_gamma: float = 0.0  # summed phonon+transmon decoherence rate, Hz * 2*pi
    g_d: float = 2 * np.pi * 1e3  # direct coupling, Hz * 2*pi
    nu: float = 2 * np.pi * 1e7  # free spectral range, Hz * 2*pi
    c_d: float = 4.5  # average gate-duration constant

    def __post_init__(self):
        if self.g_d <= 0 or self.nu <= 0:
            raise ValueError("coupling and free spectral range must be positive")
        if self.kappa_gamma < 0 or self.c_d <= 0:
            raise ValueError("rates must be non-negative and c_d positive")


def _mean_letter_stats(n: int) -> tuple[Fraction, Fraction]:
    """(E[weight], E[#XY letters]) over uniform non-identity Pauli words."""
    total = 4**n - 1
    sum_w = Fraction(3 * n, 4) * 4**n  # each letter non-identity w.p. 3/4
    sum_x = Fraction(n, 2) * 4**n  # each letter in {X, Y} w.p. 1/2
    return sum_w / total, sum_x / total


def qpe_depth(q: DepthQuery) -> DepthCounter:
    """Gate tallies of one phase-estimation pass, no amplitudes run.

    Per clock bit: one controlled Trotter evolution of trotter_m steps,
    each step applying the L representative terms.  The terms are costed
    by ``DepthCounter.add_pauli_exp`` at the exact (Fraction) mean weight
    and mean count of basis-changing letters, and their tallies rounded
    to whole gates.
    """
    c = q.clock
    mean_w, mean_x = _mean_letter_stats(q.n)
    terms = DepthCounter()
    terms.add_pauli_exp(mean_w, mean_x, controlled=True, reps=c * q.l * q.trotter_m)
    counter = DepthCounter()
    counter.add_single(c)  # clock Hadamards
    counter.single_qubit += round(terms.single_qubit)
    counter.two_qubit += round(terms.two_qubit)
    counter.ctrl_rotation += terms.ctrl_rotation
    counter.add_qft(c)
    return counter


def hhl_depth(q: DepthQuery) -> dict:
    """Depth record for the full QPE + inversion + IQPE assembly."""
    counter = qpe_depth(q)
    counter.merge(qpe_depth(q))
    counter.add_ctrl_rotation(eigeninversion_gate_count(q.clock))
    return depth_report(counter)


def eigeninversion_gate_count(clock_bits: int) -> int:
    """Conditional rotations of the naive eigenvalue inversion: 2**c - 1."""
    if clock_bits < 1:
        raise ValueError("clock_bits must be >= 1")
    return 2**clock_bits - 1


def qram_infidelity(epsilon: float, n_data: int) -> float:
    """1 - F ~ epsilon * (log2 N)**2 / 4 for a bucket-brigade lookup."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if n_data < 2:
        raise ValueError("data size must be >= 2")
    return 0.25 * epsilon * float(np.log2(float(n_data))) ** 2


def qram_epsilon_for_infidelity(target_infidelity: float, n_data: int) -> float:
    """Per-time-step error budget that meets a target lookup infidelity."""
    if target_infidelity <= 0:
        raise ValueError("target infidelity must be positive")
    if n_data < 2:
        raise ValueError("data size must be >= 2")
    return 4.0 * target_infidelity / float(np.log2(float(n_data))) ** 2


def qram_epsilon_hardware(b: QramBudget) -> float:
    """Per-query error of the direct gate on the phonon-transmon hardware.

    epsilon = (kappa+gamma) * c_d * pi / (2 g_d) + (g_d / nu)**2.
    """
    return b.kappa_gamma * b.c_d * np.pi / (2.0 * b.g_d) + (b.g_d / b.nu) ** 2


SWEEP_HEADER = "n,L,M,clock_bits,depth,single_qubit,two_qubit,ctrl_rotation,flag"


def sweep(
    n_values,
    l_values,
    trotter_m_values=(10,),
    clock_bits_values=(None,),
) -> bytes:
    """Cartesian-product depth table as CSV.

    Grid points with L > 4**n are evaluated at the clamped L = 4**n and
    flagged 1, mirroring table cells that exceed the Pauli-basis size.
    """
    if not n_values or not l_values or not trotter_m_values or not clock_bits_values:
        raise ValueError("all sweep ranges must be nonempty")
    buf = io.StringIO()
    buf.write(SWEEP_HEADER + "\n")
    for n in n_values:
        for l in l_values:
            for m in trotter_m_values:
                for cb in clock_bits_values:
                    flag = int(l > 4**n)
                    l_eff = min(l, 4**n)
                    rec = hhl_depth(DepthQuery(n=n, l=l_eff, trotter_m=m, clock_bits=cb))
                    cb_out = n if cb is None else cb
                    buf.write(
                        f"{n},{l},{m},{cb_out},{rec['depth']},{rec['single_qubit']},"
                        f"{rec['two_qubit']},{rec['ctrl_rotation']},{flag}\n"
                    )
    return buf.getvalue().encode()
