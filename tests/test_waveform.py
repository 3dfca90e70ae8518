import numpy as np
import pytest

from qozcp.sequences import complementary_sum, cross_correlation, reverse_conjugate
from qozcp.waveform import (
    SequenceVariant,
    TransmitSchedule,
    golay_pair,
    materialize,
    prouhet_partition_sums,
    ptm,
    ptm_a_schedule,
    siso_schedule,
)


def test_ptm_prefix():
    assert list(ptm(16)) == [0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0]


def test_ptm_recursion_properties():
    bits = ptm(4096)
    assert bits.dtype == np.int64
    for k in range(2048):
        assert bits[2 * k] == bits[k]
        assert bits[2 * k + 1] == 1 - bits[k]


def test_ptm_rejects_nonpositive():
    with pytest.raises(ValueError):
        ptm(0)
    with pytest.raises(ValueError, match="N must be positive"):
        siso_schedule(golay_pair(4), 0)


@pytest.mark.parametrize("M", [0, 1, 2, 3])
def test_prouhet_power_sums_agree(M):
    bits = ptm(2 ** (M + 1))
    for m in range(M + 1):
        s0, s1 = prouhet_partition_sums(bits, m)
        assert s0 == pytest.approx(s1)


def test_prouhet_sums_n8_values():
    bits = ptm(8)
    assert prouhet_partition_sums(bits, 0) == (4.0, 4.0)
    assert prouhet_partition_sums(bits, 1) == (14.0, 14.0)
    assert prouhet_partition_sums(bits, 2) == (70.0, 70.0)
    # order 3 breaks at N = 8
    s0, s1 = prouhet_partition_sums(bits, 3)
    assert s0 != s1
    assert s0 - s1 == pytest.approx(-48.0)


@pytest.mark.parametrize("L", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
def test_golay_pair_exact_complementarity(L):
    pair = golay_pair(L)
    s = complementary_sum(pair)
    assert s[L - 1] == pytest.approx(2 * L)
    off = np.delete(s, L - 1)
    assert np.max(np.abs(off)) == 0.0


def test_golay_pair_is_binary():
    pair = golay_pair(32)
    assert np.all(np.isin(pair.x.real, [-1.0, 1.0]))
    assert np.max(np.abs(pair.x.imag)) == 0.0


def test_golay_pair_rejects_bad_length():
    for L in (0, 1, 3, 6, 100):
        with pytest.raises(ValueError):
            golay_pair(L)


def test_variant_str():
    assert str(SequenceVariant("X")) == "x"
    assert str(SequenceVariant("Y", negated=True)) == "-y"
    assert str(SequenceVariant("Y", negated=True, reversed_conjugated=True)) == "-~y"


def test_variant_rejects_unknown_base():
    with pytest.raises(ValueError, match="base"):
        SequenceVariant("Z")


def test_materialize_variants():
    pair = golay_pair(8)
    sched = TransmitSchedule(
        assignments=[[SequenceVariant("X"),
                      SequenceVariant("Y", negated=True, reversed_conjugated=True)]],
        pair=pair)
    assert np.allclose(materialize(sched, 0, 0), pair.x)
    assert np.allclose(materialize(sched, 0, 1), -reverse_conjugate(pair.y))
    with pytest.raises(ValueError):
        materialize(sched, 1, 0)


def test_siso_schedule_follows_bits():
    pair = golay_pair(4)
    sched = siso_schedule(pair, 8)
    assert sched.rows == 1
    bits = ptm(8)
    for n in range(8):
        expect = pair.y if bits[n] else pair.x
        assert np.allclose(materialize(sched, 0, n), expect)


def test_ptm_a_schedule_n8_layout():
    pair = golay_pair(4)
    sched = ptm_a_schedule(pair, 8)
    v = [str(c) for c in sched.assignments[0]]
    h = [str(c) for c in sched.assignments[1]]
    assert v == ["x", "-~y", "-~y", "-x", "-~y", "-x", "x", "-~y"]
    assert h == ["y", "~x", "~x", "-y", "~x", "-y", "y", "~x"]


# (PRI parity, Thue-Morse bit) -> (V, H), the four cases of the docstring
PTM_A_RULE = {
    (0, 0): ("x", "y"),
    (0, 1): ("-~y", "~x"),
    (1, 1): ("-~y", "~x"),
    (1, 0): ("-x", "-y"),
}


@pytest.mark.parametrize("N", range(2, 65, 2))
def test_ptm_a_schedule_follows_four_case_rule(N):
    sched = ptm_a_schedule(golay_pair(4), N)
    for n in range(N):
        bit = bin(n).count("1") % 2          # Thue-Morse bit as digit-sum parity
        cell = (str(sched.assignments[0][n]), str(sched.assignments[1][n]))
        assert cell == PTM_A_RULE[(n % 2, bit)], (N, n)


def test_ptm_a_schedule_requires_even_n():
    pair = golay_pair(4)
    with pytest.raises(ValueError):
        ptm_a_schedule(pair, 7)


@pytest.mark.parametrize("N", [2, 4, 8, 16])
def test_ptm_a_per_pri_cross_is_signed_cxy(N):
    # every V/H cell pair cross-correlates to +/- C_xy(k)
    rng = np.random.default_rng(N)
    from oracles import random_pair
    from qozcp.sequences import SequencePair

    x, y = random_pair(rng, 12)
    pair = SequencePair(x, y)
    sched = ptm_a_schedule(pair, N)
    cxy = cross_correlation(x, y)
    for n in range(N):
        vn = materialize(sched, 0, n)
        hn = materialize(sched, 1, n)
        c = cross_correlation(vn, hn)
        assert (np.max(np.abs(c - cxy)) < 1e-10
                or np.max(np.abs(c + cxy)) < 1e-10)


def test_schedule_shape_validation():
    pair = golay_pair(4)
    with pytest.raises(ValueError):
        TransmitSchedule(assignments=[], pair=pair)
    with pytest.raises(ValueError):
        TransmitSchedule(
            assignments=[[SequenceVariant("X")], []], pair=pair)
