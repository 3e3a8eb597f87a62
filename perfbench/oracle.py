"""Independent oracle for the benchmark's correctness checks.

Written from the model definitions alone and sharing no code with
``dmchain``: every correlator is its own ``scipy.integrate.quad`` call,
derivatives are 5-point central differences of the assembled state, the
quantum Fisher information comes from the eigendecomposition of the 4x4
X state, and the classical Fisher information from its populations.
Slow on purpose; the checks call it at a small seeded sample of points
with ||J| - 1| >= 0.05, where the integrands are smooth.
"""

import math

import numpy as np
from scipy.integrate import quad

TAGS = ("J", "gamma", "D")
STEP = 1e-3
_EPS_ABS = 1e-13
_EPS_REL = 1e-12
# Eigenvalue pairs whose sum falls below this are outside the support.
_SUPPORT = 1e-12


def correlators(J, gamma, D):
    """(mz, gxx, gyy, gzz) of the ground state, one quad call each integral."""

    def u(phi):
        return J * (math.cos(phi) - 2.0 * D * math.sin(phi)) - 1.0

    def dl(phi):
        return math.hypot(u(phi), J * gamma * math.sin(phi))

    def integral(f):
        return quad(f, 0.0, math.pi, epsabs=_EPS_ABS, epsrel=_EPS_REL,
                    limit=400)[0] / math.pi

    mz = -integral(lambda p: u(p) / dl(p))
    even = -integral(lambda p: math.cos(p) * u(p) / dl(p))
    odd = gamma * integral(lambda p: J * math.sin(p) ** 2 / dl(p))
    gxx = even - odd
    gyy = even + odd
    return mz, gxx, gyy, mz * mz - gxx * gyy


def rho(J, gamma, D):
    """Two-spin X state in the (uu, ud, du, dd) basis."""
    mz, gxx, gyy, gzz = correlators(J, gamma, D)
    r = np.zeros((4, 4))
    r[0, 0] = 0.25 * (1.0 + 2.0 * mz + gzz)
    r[3, 3] = 0.25 * (1.0 - 2.0 * mz + gzz)
    r[1, 1] = r[2, 2] = 0.25 * (1.0 - gzz)
    r[1, 2] = r[2, 1] = 0.25 * (gxx + gyy)
    r[0, 3] = r[3, 0] = 0.25 * (gxx - gyy)
    return r


def drho(J, gamma, D, wrt, h=STEP):
    """5-point central difference of the state along one coupling."""
    base = {"J": J, "gamma": gamma, "D": D}

    def at(shift):
        p = dict(base)
        p[wrt] += shift
        return rho(p["J"], p["gamma"], p["D"])

    return (at(-2 * h) - 8 * at(-h) + 8 * at(h) - at(2 * h)) / (12 * h)


def qfim(J, gamma, D):
    """Quantum Fisher information matrix over (J, gamma, D) by eigendecomposition."""
    lam, vec = np.linalg.eigh(rho(J, gamma, D))
    ms = [vec.T @ drho(J, gamma, D, t) @ vec for t in TAGS]
    denom = lam[:, None] + lam[None, :]
    keep = denom > _SUPPORT
    out = np.empty((len(TAGS), len(TAGS)))
    for i, a in enumerate(ms):
        for j, b in enumerate(ms):
            out[i, j] = float((2.0 * a[keep] * b.T[keep] / denom[keep]).sum())
    return out


def fisher(J, gamma, D):
    """(F, H): population Fisher information and QFI with respect to J."""
    r = rho(J, gamma, D)
    dr = drho(J, gamma, D, "J")
    p, dp = np.diag(r), np.diag(dr)
    f = float(sum(d * d / q for q, d in zip(p, dp) if q > _SUPPORT))
    lam, vec = np.linalg.eigh(r)
    m = vec.T @ dr @ vec
    denom = lam[:, None] + lam[None, :]
    keep = denom > _SUPPORT
    h = float((2.0 * m[keep] ** 2 / denom[keep]).sum())
    return f, h
