"""Independent numerical oracles for the test suite.

Everything here is deliberately written from scratch against the model
definitions, sharing no code with the package: fixed-node composite
Simpson quadrature instead of adaptive panels, finite differences
instead of analytic derivatives, and the textbook eigendecomposition
QFI. Slow and dumb on purpose.

``sld`` and ``qfi_eigen`` are the eigendecomposition route over the full
4x4 matrix, the independent check on the library's closed block algebra;
``x_matrix`` builds that matrix from a library X state.

``critical_integrals`` is the high-precision check near |J| = 1: mpmath
quadrature on a mesh graded by hand, with the J derivatives taken by a
complex step instead of differentiated integrands.  Its values on the
grid of ``tests/critical_oracle.json`` (about 20 s) are regenerated by
``python tests/_oracles.py tests/critical_oracle.json > new.json``.

``start_mesh`` builds the graded start panels of each point the direct
way: the ladder depth from its formula per point, and the edges of each
point's panels listed one point at a time; with ``coarse=False`` every
point gets the 7 uniform panels above pi/8 instead of the library's 4,
the fine start that the library's is checked against.

``free_fermion_chain`` is the spin chain itself: the correlators at the
centre bond of an open chain of N sites in its ground state, from the
Bogoliubov-de Gennes matrix that Jordan-Wigner makes of the Hamiltonian,
with no momentum integral.

``integrand_rows`` is the chain's integrand stack evaluated per node,
with each node's sin and cos taken at that node and the couplings given
per node: the bit oracle for the library's integrand, which takes its
phi-only factors from a table of panels and each coupling as a float (when
the family shares it) or an array of the nodes' shape.

``assembled`` builds a pass's correlators, state and derivatives from the
integrals of that stack in four separate steps, each record a plain tuple
in field order: the bit oracle for the library's one-step assembly.
"""

import json
import sys

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


def x_matrix(state):
    """4x4 matrix of an X state, or of its derivative, from its five entries."""
    return np.array(
        [
            [state.a_plus, 0.0, 0.0, state.b_minus],
            [0.0, state.c, state.b_plus, 0.0],
            [0.0, state.b_plus, state.c, 0.0],
            [state.b_minus, 0.0, 0.0, state.a_minus],
        ]
    )


def delta(params, phi):
    """Dispersion-like kernel; its zeros at |J| = 1 mark criticality."""
    s = np.sin(phi)
    bracket = params.J * (np.cos(phi) - 2.0 * params.D * s) - 1.0
    return np.sqrt(bracket * bracket + (params.J * params.gamma * s) ** 2)


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


def start_mesh(J, max_subdivisions, coarse=True):
    """Start panels ``(lo, hi, counts)`` of the points J, innermost panel
    first.  The first of 8 uniform panels on [0, pi] is cut by rungs
    (pi/8) 2^-k toward phi = 0 (J >= 0) or pi (J < 0), down to the rung
    nearest max(||J| - 1|, 1e-5), at most min(15, max_subdivisions - 8)
    of them.  The 4 panels with edges pi/8, pi/4, pi/2, 3 pi/4 and pi
    follow, or, where coarse is false, the other 7 uniform panels.  The
    mesh of J < 0 is that of |J| mirrored about pi/2."""
    J = np.asarray(J, dtype=float).ravel()
    near = np.maximum(np.abs(np.abs(J) - 1.0), 1e-5)
    depth = np.rint(np.log2((np.pi / 8) / near))
    cap = min(15, max_subdivisions - 8)
    rungs = np.minimum(np.maximum(depth, 0), cap).astype(np.intp)
    uniform = np.linspace(0.0, np.pi, 9)
    lo, hi = [], []
    tail = uniform[[1, 2, 4, 6, 8]] if coarse else uniform[1:]
    for j, k in zip(J.tolist(), rungs.tolist()):
        edges = np.concatenate([[0.0], (np.pi / 8) * 2.0 ** -np.arange(k, 0, -1),
                                tail])
        if j < 0.0:
            lo.append(np.pi - edges[1:])
            hi.append(np.pi - edges[:-1])
        else:
            lo.append(edges[:-1])
            hi.append(edges[1:])
    counts = np.array([a.size for a in lo], dtype=np.intp)
    return np.concatenate(lo), np.concatenate(hi), counts


def free_fermion_chain(J, gamma, D, N):
    """(mz, gxx, gyy, gzz) at the centre bond of the open chain of N sites
    H = sum_i J [(1+gamma)/2 X_i X_i+1 + (1-gamma)/2 Y_i Y_i+1
    + D (X_i Y_i+1 - Y_i X_i+1)] - sum_i Z_i, in its ground state.

    Jordan-Wigner with Z_i = 1 - 2 c_i^dag c_i gives the matrix
    [[A, B], [-B*, -A*]] with A_ii = 2, A_i,i+1 = J - 2i J D (A
    Hermitian) and B_i,i+1 = -B_i+1,i = J gamma.  The projector P onto
    its positive modes is <psi psi^dag> for psi = (c, c^dag).  With the
    Majorana operators A_i = c_i^dag + c_i and B_i = c_i^dag - c_i,
    Z_i = A_i B_i, gxx = <B_i A_i+1>, gyy = -<A_i B_i+1>, and gzz follows
    from Wick's theorem."""
    hop = J * (1.0 - 2.0j * D) if D else J
    A = np.zeros((N, N), dtype=complex if D else float)
    B = np.zeros((N, N))
    np.fill_diagonal(A, 2.0)
    i = np.arange(N - 1)
    A[i, i + 1], A[i + 1, i] = hop, np.conj(hop)
    B[i, i + 1], B[i + 1, i] = J * gamma, -J * gamma
    w, v = np.linalg.eigh(np.block([[A, B], [-B.conj(), -A.conj()]]))
    pos = v[:, w > 0.0]
    P = pos @ pos.conj().T
    pairs = np.roll(P, N, axis=1)           # <psi_a psi_b>
    k = N // 2 - 1

    def majorana(site, sign):
        x = np.zeros(2 * N)
        x[site], x[N + site] = sign, 1.0
        return x

    a0, b0 = majorana(k, 1.0), majorana(k, -1.0)
    a1, b1 = majorana(k + 1, 1.0), majorana(k + 1, -1.0)

    def ev(x, y):
        return (x @ pairs @ y).real

    mz = 1.0 - 2.0 * P[N + k, N + k].real
    gxx, gyy = ev(b0, a1), -ev(a0, b1)
    gzz = ev(a0, b0) * ev(a1, b1) - ev(a0, a1) * ev(b0, b1) + ev(a0, b1) * ev(b0, a1)
    return mz, gxx, gyy, gzz


def integrand_rows(J, g, D, tags, phi):
    """Integrand stack of the chain at nodes phi, shape (3 + 3 len(tags),
    phi.size); J, g, D are scalars or per-node arrays.  Rows: mz, the even
    and odd parts of the pair correlator, then per tag their derivatives.
    Every value is the same product, in the same order, as the library's,
    so the two agree bit for bit."""
    out = np.empty((3 + 3 * len(tags), phi.size))
    s = np.sin(phi)
    cp = np.cos(phi)
    u = 2.0 * D * s                        # u = J (cp - 2 D s) - 1
    np.subtract(cp, u, out=u)
    u *= J
    u -= 1.0
    inv = J * g * s                        # 1 / Delta
    np.square(inv, out=inv)
    inv += u * u
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    inv3 = inv * inv
    inv3 *= inv
    s2 = s * s
    np.multiply(-1.0 / np.pi, u, out=out[0])
    out[0] *= inv
    np.multiply(-1.0 / np.pi, cp, out=out[1])
    out[1] *= u
    out[1] *= inv
    np.multiply((g / np.pi) * J, s2, out=out[2])
    out[2] *= inv
    for i, tag in enumerate(tags):
        # du = d(u/Delta)/dtag and dq = d(gamma J/Delta)/dtag
        du, row, dq = out[3 + 3 * i:6 + 3 * i]
        if tag == "J":
            np.multiply(J * g * g, s2, out=du)            # J g^2 s2 inv3
            np.multiply(-g, u, out=dq)                    # -g u inv3
        elif tag == "gamma":
            np.negative(u, out=du)                        # -u J J g s2 inv3
            du *= J
            du *= J
            du *= g
            du *= s2
            np.multiply(J, u, out=dq)                     # J u u inv3
            dq *= u
        else:
            np.multiply(-2.0 * J * J * J * g * g, s2, out=du)  # ... s2 s inv3
            du *= s
            np.multiply(2.0 * J * J * g, s, out=dq)       # ... s u inv3
            dq *= u
        du *= inv3
        dq *= inv3
        np.multiply(-1.0 / np.pi, cp, out=row)
        row *= du
        du *= -1.0 / np.pi
        dq *= (1.0 / np.pi) * s2
    return out


def _assemble(mz, even, odd):
    gxx = even - odd
    gyy = even + odd
    gzz = mz * mz - gyy * gxx
    return mz, gxx, gyy, gzz


def _assemble_derivative(corr, dmz, deven, dodd):
    mz, gxx, gyy, _ = corr
    dgxx = deven - dodd
    dgyy = deven + dodd
    dgzz = 2.0 * mz * dmz - (dgyy * gxx + gyy * dgxx)
    return dmz, dgxx, dgyy, dgzz


def _state_from(corr):
    mz, gxx, gyy, gzz = corr
    gxy = gxx * gyy
    up, down = 1.0 + mz, 1.0 - mz
    return (0.25 * (up * up - gxy), 0.25 * (down * down - gxy),
            0.25 * (1.0 - gzz), 0.25 * (gxx + gyy), 0.25 * (gxx - gyy))


def _dstate_from(dcorr):
    dmz, dgxx, dgyy, dgzz = dcorr
    return (0.25 * (2.0 * dmz + dgzz), 0.25 * (-2.0 * dmz + dgzz),
            -0.25 * dgzz, 0.25 * (dgxx + dgyy), 0.25 * (dgxx - dgyy))


def assembled(tags, vals):
    """``(corr, state, dcorr, dstate)`` from the integrals ``vals`` of the
    stack of ``integrand_rows`` (floats, or rows over points): corr
    (mz, gxx, gyy, gzz) and state (a_plus, a_minus, c, b_plus, b_minus) as
    tuples, and per tag their derivatives in dicts of such tuples."""
    corr = _assemble(vals[0], vals[1], vals[2])
    dcorr = {tag: _assemble_derivative(corr, *vals[3 + 3 * i:6 + 3 * i])
             for i, tag in enumerate(tags)}
    dstate = {tag: _dstate_from(d) for tag, d in dcorr.items()}
    return corr, _state_from(corr), dcorr, dstate


def critical_integrals(J, gamma, D, dps=30):
    """The integrals (mz, even, odd) with gxx = even - odd, gyy = even + odd,
    followed by their J derivatives, by ``mpmath.quad`` at ``dps`` digits.

    The breakpoints grade geometrically, by factors of 8, from ||J| - 1| / 8
    up to pi/8 at the end where Delta nearly vanishes (phi = 0 for J > 0,
    pi for J < 0).  The derivative is the imaginary part of the same
    integrals at J + ih, over h = 1e-40: a complex step, exact to the
    working precision with no difference quotient.
    """
    import mpmath as mp

    with mp.workdps(dps):
        h = mp.mpf("1e-40")
        j = mp.mpf(J) + 1j * h
        g, d = mp.mpf(gamma), mp.mpf(D)
        pts, x = [mp.mpf(0)], abs(abs(mp.mpf(J)) - 1) / 8
        while x < mp.pi / 8:
            pts.append(x)
            x *= 8
        pts += [mp.pi / 8, mp.pi / 4, mp.pi / 2, mp.pi]
        if J < 0:
            pts = sorted(mp.pi - p for p in pts)
        cache = {}

        def terms(p):
            # the three integrands share u and Delta at each node
            if p not in cache:
                s, c = mp.sin(p), mp.cos(p)
                u = j * (c - 2 * d * s) - 1
                w = 1 / (mp.pi * mp.sqrt(u * u + (j * g * s) ** 2))
                cache[p] = (-u * w, -c * u * w, g * j * s * s * w)
            return cache[p]

        out = [mp.quad(lambda p: terms(p)[i], pts) for i in range(3)]
        return ([float(v.real) for v in out]
                + [float(v.imag / h) for v in out])


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        grid = json.load(fh)["points"]
    rows = (json.dumps(row[:3] + critical_integrals(*row[:3])) for row in grid)
    print('{"dps": 30, "points": [\n' + ",\n".join(rows) + "\n]}")
