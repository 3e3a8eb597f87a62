"""Independent numerical oracles for the test suite.

Everything here is deliberately written from scratch against the model
definitions, sharing no code with the package: fixed-node composite
Simpson quadrature instead of adaptive panels, finite differences
instead of analytic derivatives, and the textbook eigendecomposition
QFI. Slow and dumb on purpose.

``sld`` and ``qfi_eigen`` are the eigendecomposition route over the full
4x4 matrix, the independent check on the library's closed block algebra.
"""

import numpy as np

SIMPSON_NODES = 1_000_001  # odd
# Eigenvalue pairs summing to at most this lie outside the support; the
# same cut as the library's dmchain.fisher.SUPPORT_TOL.
SUPPORT_TOL = 1e-12


def simpson(f, a, b, nodes=SIMPSON_NODES):
    xs = np.linspace(a, b, nodes)
    ys = f(xs)
    h = (b - a) / (nodes - 1)
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return h / 3.0 * float(w @ ys)


def correlators_simpson(J, gamma, D, nodes=SIMPSON_NODES):
    """(mz, gxx, gyy, gzz) from the frozen integral convention."""

    def u(phi):
        return J * (np.cos(phi) - 2.0 * D * np.sin(phi)) - 1.0

    def delta(phi):
        return np.hypot(u(phi), J * gamma * np.sin(phi))

    mz = -simpson(lambda p: u(p) / delta(p), 0.0, np.pi, nodes) / np.pi

    def g(R):
        even = -simpson(lambda p: np.cos(R * p) * u(p) / delta(p),
                        0.0, np.pi, nodes) / np.pi
        odd = simpson(lambda p: J * np.sin(R * p) * np.sin(p) / delta(p),
                      0.0, np.pi, nodes) * gamma / np.pi
        return even + odd

    gxx = g(-1)
    gyy = g(+1)
    gzz = mz * mz - gxx * gyy
    return mz, gxx, gyy, gzz


def x_matrix_direct(mz, gxx, gyy, gzz):
    """Two-spin X state assembled entry by entry."""
    a_plus = 0.25 * (1.0 + 2.0 * mz + gzz)
    a_minus = 0.25 * (1.0 - 2.0 * mz + gzz)
    c = 0.25 * (1.0 - gzz)
    b_plus = 0.25 * (gxx + gyy)
    b_minus = 0.25 * (gxx - gyy)
    rho = np.zeros((4, 4))
    rho[0, 0] = a_plus
    rho[3, 3] = a_minus
    rho[1, 1] = rho[2, 2] = c
    rho[1, 2] = rho[2, 1] = b_plus
    rho[0, 3] = rho[3, 0] = b_minus
    return rho


def rho_direct(J, gamma, D, nodes=SIMPSON_NODES):
    return x_matrix_direct(*correlators_simpson(J, gamma, D, nodes))


def richardson(f, x, h=1e-4):
    """5-point central first derivative, O(h^4)."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def drho_fd(J, gamma, D, wrt, h=1e-4, nodes=100_001):
    args = {"J": J, "gamma": gamma, "D": D}

    def at(value):
        local = dict(args)
        local[wrt] = value
        return rho_direct(local["J"], local["gamma"], local["D"], nodes)

    x = args[wrt]
    return (at(x - 2 * h) - 8 * at(x - h) + 8 * at(x + h) - at(x + 2 * h)) / (12 * h)


def qfi_eigen_direct(rho, drho, tol=1e-12):
    """Textbook QFI: 2 sum |<i|drho|j>|^2 / (li + lj)."""
    lam, vec = np.linalg.eigh(rho)
    m = vec.T @ drho @ vec
    out = 0.0
    for i in range(4):
        for j in range(4):
            denom = lam[i] + lam[j]
            if denom > tol:
                out += 2.0 * m[i, j] ** 2 / denom
    return out


def classical_fi_direct(p, dp, tol=1e-12):
    out = 0.0
    for pi, di in zip(p, dp):
        if pi > tol:
            out += di * di / pi
    return out


def sld(rho: np.ndarray, drho: np.ndarray, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Symmetric logarithmic derivative solving drho = (L rho + rho L)/2.

    Built in the eigenbasis of rho; matrix elements whose eigenvalue sum
    falls below tol are outside the support and are set to zero.
    """
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    num = 2.0 * (v.T.conj() @ drho @ v)
    denom = w[:, None] + w[None, :]
    mask = denom > tol
    core = np.zeros_like(num)
    core[mask] = num[mask] / denom[mask]
    return v @ core @ v.T.conj()


def qfi_eigen(rho: np.ndarray, drho: np.ndarray, tol: float = SUPPORT_TOL) -> float:
    """Quantum Fisher information from the eigendecomposition of rho."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    m = v.T.conj() @ drho @ v
    denom = w[:, None] + w[None, :]
    mask = denom > tol
    return float((2.0 * np.abs(m[mask]) ** 2 / denom[mask]).sum())
