"""Real-space Majorana covariance reference for the stored energy.

Peschel's correlation-matrix method (J. Phys. A 36, L205 (2003)), sharing no
code with the engines: no momentum, no Bloch matrix, no dispersion.  The
Jordan-Wigner Majoranas of a ring of N spins are c_j = (prod_{l<j} sz_l) sx_j
and d_j = (prod_{l<j} sz_l) sy_j, so that

    sz_j = -i c_j d_j,  sx_j sx_{j+1} = -i d_j c_{j+1},  sy_j sy_{j+1} = i c_j d_{j+1}.

On the boundary bond (N, 1) the string leaves a factor -P, P = prod_j sz_j,
so in the even sector (P = +1) that bond changes sign: antiperiodic.  Every
term pairs a c with a d, so with the bond signs of ``spinbattery.ed`` the
spin Hamiltonian is H = (i/2) sum_jk M_jk c_j d_k, M real N x N.  With the
singular value decomposition M = X diag(s) Y^T (Lieb, Schultz and Mattis,
Ann. Phys. 16, 407 (1961)), H = (i/2) sum_k s_k c'_k d'_k for c' = X^T c and
d' = Y^T d, so E_0 = -(1/2) sum_k s_k, and the ground state has
i <c'_k d'_k> = -1.  The covariance G_jk = i <c_j d_k> of that state is
-X Y^T, and <H> = (1/2) sum_jk M_jk G_jk.  Under the charger each pair
(c'_k, d'_k) of its own basis rotates by the angle s'_k t.
"""

import numpy as np

from spinbattery.ed import DimerizedXY


def coupling_matrix(kind, n_sites: int, boundary: float = -1.0) -> np.ndarray:
    """M of H = (i/2) c^T M d for ``kind`` on a ring of n_sites spins.

    ``boundary`` multiplies the bond (N, 1): -1 for the even sector, +1 for
    the periodic fermion chain.
    """
    m = np.zeros((n_sites, n_sites))
    for j in range(n_sites):
        nxt = (j + 1) % n_sites
        sign = boundary if nxt == 0 else 1.0
        if isinstance(kind, DimerizedXY):
            # -J [(1 + g)/2 sx sx + (1 - g)/2 sy sy], J = 1 -+ delta on site j + 1 odd/even
            bond = 1.0 + (-1.0) ** j * kind.delta
            m[nxt, j] -= sign * bond * (1.0 + kind.gamma)
            m[j, nxt] -= sign * bond * (1.0 - kind.gamma)
        else:
            # (1/2) [sx sx + h sz]
            m[nxt, j] += sign
            m[j, j] -= kind.h
    return m


def ground_energy(kind, n_sites: int, boundary: float = -1.0) -> float:
    """-(1/2) sum_k s_k: the energy of the fermion vacuum."""
    m = coupling_matrix(kind, n_sites, boundary)
    return -0.5 * float(np.sum(np.linalg.svd(m, compute_uv=False)))


def stored_energy(battery, charger, n_sites: int, times) -> np.ndarray:
    """<H_B>(t) - E_0 from the battery's ground state, charged by ``charger``.

    In the charger's basis, with B and G the battery's M and the covariance
    rotated there, cos = cos(s' t) and sin = sin(s' t),

        <H_B>(t) = (1/2) [cos^T (B o G) cos + sin^T (B o G^T) sin],

    o the elementwise product: two N x N quadratic forms per time.
    """
    m_b = coupling_matrix(battery, n_sites)
    x, _, yt = np.linalg.svd(m_b)
    cov = -x @ yt
    xc, s_c, yct = np.linalg.svd(coupling_matrix(charger, n_sites))
    b, g = xc.T @ m_b @ yct.T, xc.T @ cov @ yct.T
    phase = np.multiply.outer(np.concatenate([[0.0], times]), s_c)
    cos, sin = np.cos(phase), np.sin(phase)
    energy = 0.5 * np.sum((cos @ (b * g)) * cos + (sin @ (b * g.T)) * sin, axis=1)
    return energy[1:] - energy[0]
