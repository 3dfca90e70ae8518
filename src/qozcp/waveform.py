"""Thue-Morse machinery, Golay baseline pairs, and Doppler-resilient schedules.

Schedules store symbolic variants (base sequence, sign, reversal flags) and
materialize concrete length-L sequences on demand.  Variants are hashable, so
the ambiguity code correlates each distinct cell pair once; correlation
identities of the variants are asserted in the tests rather than encoded
algebraically.
"""

from dataclasses import dataclass

import numpy as np

from .sequences import SequencePair, as_sequence, reverse_conjugate

__all__ = [
    "ptm",
    "prouhet_partition_sums",
    "golay_pair",
    "SequenceVariant",
    "TransmitSchedule",
    "siso_schedule",
    "ptm_a_schedule",
    "materialize",
]


def ptm(N: int) -> np.ndarray:
    """First N terms of the Thue-Morse bit sequence (a_0 = 0, a_2k = a_k,
    a_2k+1 = 1 - a_k): a_n is the parity of the binary digit sum of n."""
    if N < 1:
        raise ValueError("N must be positive")
    return (np.bitwise_count(np.arange(N)) & 1).astype(np.int64)


def prouhet_partition_sums(bits: np.ndarray, m: int) -> tuple[float, float]:
    """Power sums of order m over the two index classes of a bit sequence.

    Returns (s0, s1) with s0 = sum of n**m over indices with bit 0 and s1
    likewise for bit 1.  For the Thue-Morse split of length 2**(M+1) the two
    agree for all m <= M.
    """
    n = np.arange(bits.size, dtype=np.float64)
    powers = n ** m
    s0 = float(np.sum(powers[bits == 0]))
    s1 = float(np.sum(powers[bits == 1]))
    return s0, s1


def golay_pair(L: int) -> SequencePair:
    """Binary Golay pair of power-of-two length via the doubling recursion.

    Seed ([1], [1]); each step maps (x, y) -> ([x, y], [x, -y]).  The
    complementary autocorrelation sum is exactly zero off-peak.
    """
    if L < 2 or (L & (L - 1)) != 0:
        raise ValueError("length must be a power of two, at least 2")
    x = np.array([1.0 + 0j])
    y = np.array([1.0 + 0j])
    while x.size < L:
        x, y = np.concatenate([x, y]), np.concatenate([x, -y])
    return SequencePair(x, y, meta={"kind": "golay", "L": L})


@dataclass(frozen=True)
class SequenceVariant:
    """One schedule cell: +/- x or y, optionally reversed-conjugated."""

    base: str                       # "X" or "Y"
    negated: bool = False
    reversed_conjugated: bool = False

    def __post_init__(self):
        if self.base not in ("X", "Y"):
            raise ValueError("base must be 'X' or 'Y'")

    def __str__(self):
        s = "~" + self.base.lower() if self.reversed_conjugated else self.base.lower()
        return "-" + s if self.negated else s


@dataclass
class TransmitSchedule:
    """Per-PRI variant assignments for one or two polarization rows."""

    assignments: list            # rows x N nested list of SequenceVariant
    pair: SequencePair

    def __post_init__(self):
        if len(self.assignments) not in (1, 2):
            raise ValueError("schedule must have 1 or 2 rows")
        n = len(self.assignments[0])
        if n < 1 or any(len(row) != n for row in self.assignments):
            raise ValueError("rows must be non-empty and equal-length")

    @property
    def rows(self) -> int:
        return len(self.assignments)

    @property
    def n_pri(self) -> int:
        return len(self.assignments[0])


def materialize(schedule: TransmitSchedule, row: int, n: int) -> np.ndarray:
    """Concrete length-L sequence for schedule cell (row, n)."""
    if not 0 <= row < schedule.rows or not 0 <= n < schedule.n_pri:
        raise ValueError("schedule cell out of range")
    variant = schedule.assignments[row][n]
    seq = schedule.pair.x if variant.base == "X" else schedule.pair.y
    seq = as_sequence(seq)
    if variant.reversed_conjugated:
        seq = reverse_conjugate(seq)
    if variant.negated:
        seq = -seq
    return seq


def siso_schedule(pair: SequencePair, N: int) -> TransmitSchedule:
    """Single-row schedule: PRI n carries x when the Thue-Morse bit is 0,
    else y."""
    bits = ptm(N)
    row = [SequenceVariant("X") if b == 0 else SequenceVariant("Y") for b in bits]
    return TransmitSchedule(assignments=[row], pair=pair)


def ptm_a_schedule(pair: SequencePair, N: int) -> TransmitSchedule:
    """Two-row (V/H) Alamouti-style schedule driven by the Thue-Morse bits.

    Even PRI 2k: V carries x (bit 0) or -~y (bit 1); H carries y or ~x.
    Odd PRI 2k+1: V carries -~y (bit 1) or -x (bit 0); H carries ~x or -y.
    For N = 8 this materializes
        V = [x, -~y, -~y, -x, -~y, -x, x, -~y]
        H = [y,  ~x,  ~x, -y,  ~x, -y, y,  ~x].
    """
    if N < 2 or N % 2 != 0:
        raise ValueError("N must be a positive even integer")
    row_v: list[SequenceVariant] = []
    row_h: list[SequenceVariant] = []
    for n, b in enumerate(ptm(N)):
        if b == 1:
            row_v.append(SequenceVariant("Y", negated=True, reversed_conjugated=True))
            row_h.append(SequenceVariant("X", reversed_conjugated=True))
        else:
            row_v.append(SequenceVariant("X", negated=n % 2 == 1))
            row_h.append(SequenceVariant("Y", negated=n % 2 == 1))
    return TransmitSchedule(assignments=[row_v, row_h], pair=pair)
