"""Independent oracles for the test suite.

These deliberately avoid the package's operator assembly and eigensolver so
that agreement with them is evidence, not tautology: the matrix is built
inline and only eigenvalues are requested.
"""

from functools import lru_cache

import numpy as np
import scipy.linalg

_POTENTIALS = {
    "cos1": lambda x: np.cos(2 * np.pi * x),
    "cos1+halfsin2": lambda x: np.cos(2 * np.pi * x) + 0.5 * np.sin(4 * np.pi * x),
    "4": lambda x: np.full_like(x, 4.0),
    "4cos1": lambda x: 4.0 * np.cos(2 * np.pi * x),
    "100cos1": lambda x: 100.0 * np.cos(2 * np.pi * x),
    "1000cos1": lambda x: 1000.0 * np.cos(2 * np.pi * x),
    "1000cos20": lambda x: 1000.0 * np.cos(40 * np.pi * x),
    "3000cos30": lambda x: 3000.0 * np.cos(60 * np.pi * x),
}


def fd_top_eigenvalue(n: int, potential: str) -> float:
    """Top eigenvalue of fd_operator's periodic stencil matrix."""
    return float(np.linalg.eigvalsh(fd_operator(n, potential))[-1])


@lru_cache(maxsize=None)
def richardson_eigenvalue(potential: str) -> float:
    """Fine-grid eigenvalue: n=4096 solve with h^2 Richardson extrapolation."""
    coarse = fd_top_eigenvalue(2048, potential)
    fine = fd_top_eigenvalue(4096, potential)
    return fine + (fine - coarse) / 3.0


def fd_operator(n: int, potential) -> np.ndarray:
    """Dense periodic stencil operator f''/2 + V f, assembled inline.

    potential is a name in _POTENTIALS or the n node values of V.
    """
    h = 1.0 / n
    x = np.arange(n) / n
    idx = np.arange(n)
    mat = np.zeros((n, n))
    mat[idx, idx] = -2.0
    mat[idx, (idx + 1) % n] = 1.0
    mat[idx, (idx - 1) % n] = 1.0
    mat *= 0.5 / h**2
    mat[idx, idx] += (_POTENTIALS[potential](x) if isinstance(potential, str)
                      else potential)
    return mat


def dense_semigroup(mat: np.ndarray, f: np.ndarray, t: float) -> np.ndarray:
    """exp(t mat) f by dense scaling-and-squaring Pade (scipy.linalg.expm).

    No Krylov space and no sparse LU; at n = 512 its own error is about
    1e-11 of the result.
    """
    return scipy.linalg.expm(t * mat) @ f


def fourier_companion_drift(n: int, potential: str) -> np.ndarray:
    """Drift (log u)' of the top eigenvector u of the dense Fourier operator.

    The second derivative is the FFT of the identity times -k^2, symmetrized;
    np.linalg.eigh gives u, and (log u)' is an FFT derivative with the
    Nyquist mode dropped.
    """
    x = np.arange(n) / n
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
    second = np.fft.ifft(-(k**2)[:, None] * np.fft.fft(np.eye(n), axis=0),
                         axis=0).real
    mat = 0.25 * (second + second.T) + np.diag(_POTENTIALS[potential](x))
    u = np.linalg.eigh(mat)[1][:, -1]
    u = u if u.sum() > 0 else -u
    ik = 1j * k
    ik[n // 2] = 0.0
    return np.fft.ifft(ik * np.fft.fft(np.log(u))).real


def euler_paths(drift, potential, start, n_steps: int, dt: float,
                n_paths: int, seed: int, stride: int):
    """Reference Euler walk on the circle, one whole-horizon draw per path.

    drift and potential are node values on the grid i/n (or None); start is
    a circle point or a map from each path's first uniform to its start.
    Every path's increments are drawn up front from its own Philox stream
    and tables are read by np.interp.  Returns (positions, integrals).
    """
    n = len(drift if drift is not None else potential)
    xp = np.append(np.arange(n) / n, 1.0)
    gens = [np.random.Generator(np.random.Philox(key=seed, counter=j << 128))
            for j in range(n_paths)]
    uniforms = np.array([g.random() for g in gens])
    normals = np.array([g.standard_normal(n_steps) for g in gens])
    if callable(start):
        x = start(uniforms)
    else:
        x = np.full(n_paths, float(start) % 1.0)
        x = np.where(x >= 1.0, x - 1.0, x)
    rows = [x]
    acc = np.zeros(n_paths)
    for k in range(n_steps):
        if potential is not None:
            acc += np.interp(x, xp, np.append(potential, potential[0])) * dt
        step = np.sqrt(dt) * normals[:, k]
        if drift is not None:
            step = step + np.interp(x, xp, np.append(drift, drift[0])) * dt
        x = (x + step) % 1.0
        x = np.where(x >= 1.0, x - 1.0, x)
        if (k + 1) % stride == 0:
            rows.append(x)
    return np.stack(rows, axis=1), (acc if potential is not None else None)
