"""Dense brute-force constructions and slow reference paths used only as test oracles.

The dense ones materialize the lifted matrices that the production path
deliberately avoids; they are only feasible for tiny L.  The reference paths
are earlier, plainer versions of fast production code, kept so the tests can
check the fast code bit for bit or byte for byte.
"""

import numpy as np

from qozcp.sequences import WeightProfile, auto_correlation, cross_correlation
from qozcp.spectral import cross_correlation_fft
from qozcp.waveform import materialize


def shift_matrix(L: int, k: int) -> np.ndarray:
    """Toeplitz matrix with ones on the k-th diagonal (j - i = k)."""
    m = np.zeros((L, L))
    for i in range(L):
        if 0 <= i + k < L:
            m[i, i + k] = 1.0
    return m


def block_auto(L: int, k: int) -> np.ndarray:
    u = shift_matrix(L, k)
    z = np.zeros((L, L))
    return np.block([[u, z], [z, u]])


def block_cross(L: int, k: int) -> np.ndarray:
    u = shift_matrix(L, k)
    z = np.zeros((L, L))
    return np.block([[z, u], [z, z]])


def dense_lifted_form(wp: WeightProfile) -> np.ndarray:
    """The (2L)^2 x (2L)^2 Gram matrix of the lifted quartic objective."""
    L = wp.L
    full_w, full_wt = wp.symmetric()
    dim = (2 * L) ** 2
    J = np.zeros((dim, dim), dtype=np.complex128)
    for idx, k in enumerate(range(-(L - 1), L)):
        va = block_auto(L, k).flatten("F")
        vb = block_cross(L, k).flatten("F")
        J += wp.alpha * full_w[idx] * np.outer(va, va.conj())
        J += (1.0 - wp.alpha) * full_wt[idx] * np.outer(vb, vb.conj())
    return J


def dense_q(z: np.ndarray, wp: WeightProfile) -> np.ndarray:
    """Dense banded matrix Q built from the correlations of the iterate."""
    L = wp.L
    x, y = z[:L], z[L:]
    r = auto_correlation(x) + auto_correlation(y)
    c = cross_correlation(x, y)
    full_w, full_wt = wp.symmetric()
    Q = np.zeros((2 * L, 2 * L), dtype=np.complex128)
    for idx, k in enumerate(range(-(L - 1), L)):
        Q += wp.alpha * full_w[idx] * r[idx] * block_auto(L, k)
        Q += (1.0 - wp.alpha) * full_wt[idx] * c[idx] * block_cross(L, k)
    return Q


def dense_descent(z: np.ndarray, wp: WeightProfile, lam_j: float) -> np.ndarray:
    """P(z) from the dense Q and the dense entry bound."""
    L = wp.L
    Q = dense_q(z, wp)
    lam_u = 4.0 * L * float(np.max(np.abs(Q)))
    scale = 2.0 * lam_j * float(np.vdot(z, z).real) + lam_u
    return scale * z - (Q + Q.conj().T) @ z


def gram_product_per_row(mu: np.ndarray, f: np.ndarray, alpha: float, L: int) -> np.ndarray:
    """(Q + Q^H) z with one inverse transform per kernel product, mixed after."""
    f_x, f_y = f
    mu_r_rev = np.roll(mu[0][::-1], 1)
    nu_c = np.roll(mu[1][::-1], 1)
    nu_c_conj = np.conj(nu_c)

    def corr(f_v, kernel):
        return np.fft.ifft(f_v * kernel)[:L]

    top = 2.0 * alpha * corr(f_x, mu_r_rev) + (1.0 - alpha) * corr(f_y, nu_c)
    bottom = 2.0 * alpha * corr(f_y, mu_r_rev) + (1.0 - alpha) * corr(f_x, nu_c_conj)
    return np.concatenate([top, bottom])


def proj_unimodular(v: np.ndarray) -> np.ndarray:
    """Entry-wise unit-modulus maximizer of Re{x^H v} by angle and exp; zeros map to 1.

    The solver forms the same maximizer from the majorant's parts instead
    (``solver._phase_update``).
    """
    v = np.asarray(v, dtype=np.complex128)
    out = np.multiply(1j, np.angle(v))
    np.exp(out, out=out)
    out[v == 0] = 1.0
    return out


def random_pair(rng: np.random.Generator, L: int):
    x = rng.normal(size=L) + 1j * rng.normal(size=L)
    y = rng.normal(size=L) + 1j * rng.normal(size=L)
    return x, y


def proj_papr_bisect(v: np.ndarray, p_e: float, p_c: float) -> np.ndarray:
    """PAPR projection by bisection on the energy equation.

    Same maximizer as the closed form in :func:`qozcp.solver.proj_papr`,
    found the slow way: bisect for the scale delta, then rescale the
    unsaturated entries so the energy holds exactly.
    """
    v = np.asarray(v, dtype=np.complex128)
    L = v.size
    mags = np.abs(v)
    nonzero = mags > 0.0
    m = int(np.count_nonzero(nonzero))
    phases = np.where(nonzero, np.exp(1j * np.angle(v)), 1.0)

    out_mag = np.empty(L)
    if m * p_c ** 2 <= p_e:
        out_mag[nonzero] = p_c
        if m < L:
            out_mag[~nonzero] = np.sqrt(max(p_e - m * p_c ** 2, 0.0) / (L - m))
        return out_mag * phases
    lo, hi = 0.0, p_c / float(mags[nonzero].min())
    for _ in range(200):
        delta = 0.5 * (lo + hi)
        energy = float(np.sum(np.minimum(delta * mags, p_c) ** 2))
        if abs(energy - p_e) <= 1e-12 * p_e:
            break
        if energy < p_e:
            lo = delta
        else:
            hi = delta
    else:
        raise RuntimeError("PAPR projection bisection did not converge")
    saturated = delta * mags >= p_c
    free = nonzero & ~saturated
    residual = p_e - float(np.count_nonzero(saturated)) * p_c ** 2
    free_norm2 = float(np.sum(mags[free] ** 2))
    if free_norm2 > 0.0 and residual > 0.0:
        delta = np.sqrt(residual / free_norm2)
    out_mag = np.minimum(delta * mags, p_c)
    out_mag[~nonzero] = 0.0
    return out_mag * phases


def per_pri_correlations(schedule, row_a: int, row_b: int) -> np.ndarray:
    """One FFT correlation of the materialized cells per PRI, repeats included."""
    return np.stack([
        cross_correlation_fft(materialize(schedule, row_a, n),
                              materialize(schedule, row_b, n))
        for n in range(schedule.n_pri)
    ])


def write_surface_table_per_cell(path: str, surface) -> None:
    """Surface CSV formatted one numpy scalar at a time: the reference bytes."""
    with open(path, "w") as fh:
        fh.write("k,theta,re,im,modulus\n")
        for i, k in enumerate(surface.grid.delays):
            for j, theta in enumerate(surface.grid.dopplers):
                v = complex(surface.values[i, j])
                fh.write(f"{int(k)},{float(theta)!r},{v.real!r},{v.imag!r},{abs(v)!r}\n")
