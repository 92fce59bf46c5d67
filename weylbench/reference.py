"""Reference values computed apart from the program under test.

Nothing here imports `weyl`.  Every quantity the benchmark checks is
recomputed from its closed form: exact constant-coefficient transfer matrices
for piecewise-constant potentials, the Bessel power series for corners,
`math.gamma` for the sector constant, and a few lines of dense complex linear
algebra for the transforms and characteristic functions.
"""

from __future__ import annotations

import cmath
import math

# -- dense complex linear algebra (lists of rows) ----------------------------


def eye(n):
    return [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]


def diag(values):
    n = len(values)
    return [[complex(values[i]) if i == j else 0j for j in range(n)] for i in range(n)]


def add(a, b, s=1.0):
    """a + s*b."""
    return [[x + s * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, s):
    return [[s * x for x in r] for r in a]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in a]


def adjoint(a):
    return [[x.conjugate() for x in c] for c in zip(*a)]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def _eliminate(a, b):
    """Gauss-Jordan with partial pivoting on copies; returns (x, det)."""
    n = len(a)
    m = [list(map(complex, ra)) + list(map(complex, rb)) for ra, rb in zip(a, b)]
    d = 1.0 + 0j
    for k in range(n):
        p = max(range(k, n), key=lambda r: abs(m[r][k]))
        if m[p][k] == 0:
            raise ZeroDivisionError("singular matrix")
        if p != k:
            m[k], m[p] = m[p], m[k]
            d = -d
        piv = m[k][k]
        d *= piv
        m[k] = [x / piv for x in m[k]]
        for r in range(n):
            if r != k and m[r][k] != 0:
                f = m[r][k]
                m[r] = [x - f * y for x, y in zip(m[r], m[k])]
    return [row[n:] for row in m], d


def solve(a, b):
    """X with A X = B."""
    return _eliminate(a, b)[0]


def det(a):
    return _eliminate(a, eye(len(a)))[1]


def psd_margin_ok(h, tol):
    """True when the Hermitian matrix h + tol*I admits a Cholesky factorization,
    i.e. lambda_min(h) > -tol (up to rounding)."""
    n = len(h)
    a = [[h[i][j] + (tol if i == j else 0.0) for j in range(n)] for i in range(n)]
    lower = [[0j] * n for _ in range(n)]
    for j in range(n):
        s = a[j][j].real - sum(abs(lower[j][k]) ** 2 for k in range(j))
        if s <= 0.0:
            return False
        lower[j][j] = complex(math.sqrt(s))
        for i in range(j + 1, n):
            t = a[i][j] - sum(lower[i][k] * lower[j][k].conjugate() for k in range(j))
            lower[i][j] = t / lower[j][j]
    return True


def imag_part(a):
    """(A - A*)/2i."""
    return scale(add(a, adjoint(a), -1.0), -0.5j)


def norm_max(a):
    return max(abs(x) for r in a for x in r)


# -- branches ------------------------------------------------------------------


def sqrt_upper(z):
    """Square root with Im >= 0."""
    w = cmath.sqrt(complex(z))
    return -w if (w.imag < 0.0 or (w.imag == 0.0 and w.real < 0.0)) else w


def sqrt_right(w):
    """Square root with Re >= 0 (the principal root)."""
    return cmath.sqrt(complex(w))


# -- piecewise-constant Sturm-Liouville propagation ----------------------------


def _cosh_sinhc(k2, d):
    """(cosh(k d), sinh(k d)/k, k sinh(k d)) for k^2 = k2; even in k, so branch-free."""
    k2 = complex(k2)
    if abs(k2) * d * d < 1e-6:
        u = k2 * d * d
        return 1.0 + u / 2.0 + u * u / 24.0, d * (1.0 + u / 6.0 + u * u / 120.0), k2 * d * (1.0 + u / 6.0)
    k = cmath.sqrt(k2)
    c, s = cmath.cosh(k * d), cmath.sinh(k * d)
    return c, s / k, k * s


def step(y, yp, q, z, d):
    """Propagate (y, y') of -y'' + q y = z y over a signed length d with q constant."""
    c, sk, ks = _cosh_sinhc(q - z, abs(d))
    if d < 0:
        sk, ks = -sk, -ks
    return c * y + sk * yp, ks * y + c * yp


def halfline_m_inf(segments, z):
    """m_inf(z) = y'(0)/y(0) for the solution decaying as exp(-kappa x) where
    q = 0, propagated backward through the constant segments [(length, q),
    ...] that cover [0, support)."""
    kappa = sqrt_right(-complex(z))
    y, yp = 1.0 + 0j, -kappa
    for length, q in reversed(segments):
        y, yp = step(y, yp, q, z, -length)
    return yp / y


def m_h_from_inf(m, h):
    """The h-triplet member (1 - h m)/(m - h)."""
    return (1.0 - h * m) / (m - h)


def m_inf_from_h(mh, h):
    """Inverse of m_h_from_inf."""
    return (1.0 + h * mh) / (mh + h)


def interval_M(segments, z):
    """2x2 Weyl matrix of the interval triplet (y(0), y(b)) / (y'(0), -y'(b))."""
    u = (1.0 + 0j, 0j)
    v = (0j, 1.0 + 0j)
    for length, q in segments:
        u = step(u[0], u[1], q, z, length)
        v = step(v[0], v[1], q, z, length)
    y0 = [[1.0 + 0j, 0j], [u[0], v[0]]]
    y1 = [[0j, 1.0 + 0j], [-u[1], -v[1]]]
    return matmul(y1, solve(y0, eye(2)))


def interval_segments(potential, b):
    """Constant pieces covering [0, b] for the zero or square-well potential."""
    if potential["kind"] == "zero":
        return [(b, 0.0)]
    w = min(potential["width"], b)
    segs = [(w, potential["depth"])]
    if b > w:
        segs.append((b - w, 0.0))
    return segs


def halfline_segments(potential):
    if potential["kind"] == "zero":
        return []
    return [(potential["width"], potential["depth"])]


# -- closed-form models ----------------------------------------------------------


def sector_constant(beta):
    return cmath.exp(-1j * beta * math.pi) * 4.0 ** (-beta) * math.gamma(1.0 - beta) / math.gamma(1.0 + beta)


def sector_m(beta, z):
    """-C_beta z^beta, z^beta = exp(2 beta log sqrt_upper(z))."""
    return -sector_constant(beta) * cmath.exp(2.0 * beta * cmath.log(sqrt_upper(z)))


def _bessel_reduced(nu, z):
    """S_nu(z) = sum_k (-z/4)^k / (k! Gamma(k+nu+1)), so J_nu(s) = (s/2)^nu S_nu(s^2)."""
    w = -0.25 * complex(z)
    term = 1.0 / math.gamma(nu + 1.0) + 0j
    acc = term
    k = 0
    while True:
        k += 1
        term *= w / (k * (k + nu))
        acc += term
        if abs(term) <= 1e-18 * abs(acc) and k > 4:
            return acc
        if k > 500:
            raise ArithmeticError("Bessel series did not converge")


def corner_m(beta, z):
    """-Gamma(1-b) J_{-b}(s) (s/2)^{2b} / (Gamma(1+b) J_b(s)), s^2 = z.

    The powers of s/2 cancel, leaving a ratio of entire functions of z."""
    return -math.gamma(1.0 - beta) * _bessel_reduced(-beta, z) / (
        math.gamma(1.0 + beta) * _bessel_reduced(beta, z)
    )


def op_potential_entry(a, z):
    """sqrt(a) (sqrt(a) - sqrt(a-1-z)) with the Re >= 0 root."""
    return math.sqrt(a) * (math.sqrt(a) - sqrt_right(a - 1.0 - complex(z)))


def strip_M(a_diag, width, z):
    m = len(a_diag)
    out = [[0j] * (2 * m) for _ in range(2 * m)]
    for i, a in enumerate(a_diag):
        kappa = cmath.sqrt(a - 1.0 - complex(z))  # entries are even in kappa
        if abs(kappa * width) < 1e-6:
            coth_k, csch_k = 1.0 / width, 1.0 / width
        else:
            coth_k = kappa * cmath.cosh(width * kappa) / cmath.sinh(width * kappa)
            csch_k = kappa / cmath.sinh(width * kappa)
        ra = math.sqrt(a)
        out[i][i] = out[m + i][m + i] = a - ra * coth_k
        out[i][m + i] = out[m + i][i] = -ra * csch_k
    return out


def has_closed_form(model):
    """False for the sampled-table and expression potentials."""
    return model.get("potential", {"kind": "zero"})["kind"] in ("zero", "square_well")


def model_M(model, z):
    """Closed-form M(z) for a problem-file model dict (see has_closed_form)."""
    kind = model["kind"]
    if kind in ("half_line", "radial_schrodinger"):
        m = halfline_m_inf(halfline_segments(model.get("potential", {"kind": "zero"})), z)
        h = model.get("h")
        return [[m if h is None else m_h_from_inf(m, h)]]
    if kind == "finite_interval":
        pot = model.get("potential", {"kind": "zero"})
        return interval_M(interval_segments(pot, model["b"]), z)
    if kind == "operator_potential_halfline":
        return diag([op_potential_entry(a, z) for a in model["a_diag"]])
    if kind == "strip":
        return strip_M(model["a_diag"], model.get("width", math.pi), z)
    if kind == "corner":
        return [[corner_m(model["beta"], z)]]
    if kind == "sector":
        return [[sector_m(model["beta"], z)]]
    if kind == "multi_corner":
        return diag([corner_m(b, z) for b in model["betas"]])
    raise ValueError(f"unknown model kind {kind!r}")


def model_M0(model):
    """Closed-form M(0) (the Krein boundary operator)."""
    kind = model["kind"]
    if kind == "corner":
        return [[-1.0 + 0j]]
    if kind == "multi_corner":
        return diag([-1.0] * len(model["betas"]))
    if kind == "sector":
        return [[0j]]
    return model_M(model, 0.0)


# -- transforms and characteristic functions ----------------------------------


def mobius(t, m):
    """U (X11 M + X12)(X21 M + X22)^-1 U*."""
    num = add(matmul(t["X11"], m), t["X12"])
    den = add(matmul(t["X21"], m), t["X22"])
    core = adjoint(solve(adjoint(den), adjoint(num)))  # num den^-1
    return matmul(matmul(t["U"], core), adjoint(t["U"]))


def char_full(b, m):
    """W(z) = (B* - M)^-1 (B - M)."""
    return solve(add(adjoint(b), m, -1.0), add(b, m, -1.0))


# -- secular equations on the real axis ------------------------------------------


def find_roots(f, lo, hi, n=4000, tol=1e-13):
    """Sign changes of a continuous real function on a uniform grid, bisected."""
    xs = [lo + (hi - lo) * k / n for k in range(n + 1)]
    vals = [f(x) for x in xs]
    roots = []
    for xa, xb, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
        if fa == 0.0:
            roots.append(xa)
        elif fa * fb < 0.0:
            a, b = xa, xb
            while b - a > tol * (1.0 + abs(a)):
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fm == 0.0:
                    a = b = mid
                elif fa * fm < 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            roots.append(0.5 * (a + b))
    return roots


def halfline_robin_eigs(potential, bval, lo, hi):
    """Eigenvalues in (lo, hi), below 0, of -y'' + q y with y'(0) = B y(0):
    zeros of y'(0) - B y(0) for the decaying solution (entire in x < 0)."""
    segs = halfline_segments(potential)

    def g(x):
        kappa = math.sqrt(-x)
        y, yp = 1.0 + 0j, -kappa + 0j
        for length, q in reversed(segs):
            y, yp = step(y, yp, q, x, -length)
        return (yp - bval * y).real

    return find_roots(g, lo, hi)


def interval_robin_eigs(potential, b, b0, b1, lo, hi):
    """Eigenvalues in (lo, hi) for y'(0) = b0 y(0), -y'(b) = b1 y(b)."""
    segs = interval_segments(potential, b)

    def g(x):
        y, yp = 1.0 + 0j, complex(b0)
        for length, q in segs:
            y, yp = step(y, yp, q, x, length)
        return (-yp - b1 * y).real

    return find_roots(g, lo, hi)


def op_potential_eigs(a_diag, bdiag, lo, hi):
    """x = a - 1 - (sqrt a - B_ii/sqrt a)^2 for each channel with a positive root."""
    out = []
    for a, bii in zip(a_diag, bdiag):
        s = math.sqrt(a) - bii / math.sqrt(a)
        if s > 0.0:
            x = a - 1.0 - s * s
            if lo < x < hi:
                out.append(x)
    return sorted(out)


def sector_zeros(beta, bval):
    """Zeros of -C_beta z^beta - B in the open upper half-plane."""
    zeta = -complex(bval) / sector_constant(beta)
    r = abs(zeta) ** (1.0 / (2.0 * beta))
    phi = cmath.phase(zeta) % (2.0 * math.pi)
    out = []
    for k in range(-2, 3):
        arg_w = (phi + 2.0 * math.pi * k) / (2.0 * beta)
        if 0.0 < arg_w < 0.5 * math.pi:  # arg z = 2 arg w in (0, pi)
            out.append(cmath.rect(r * r, 2.0 * arg_w))
    return out


def op_potential_zeros(a_diag, bdiag):
    """Zeros of det(M(z) - B) for diagonal B: z = a - 1 - r^2, r = sqrt(a) - B_ii/sqrt(a), Re r > 0."""
    out = []
    for a, bii in zip(a_diag, bdiag):
        r = math.sqrt(a) - complex(bii) / math.sqrt(a)
        if r.real > 0.0:
            out.append(a - 1.0 - r * r)
    return out


# -- zero-energy oscillation counts ----------------------------------------------


def halfline_negative_count(potential, bval, samples=4000):
    """Zeros in (0, inf) of the zero-energy solution with y(0) = 1, y'(0) = B.

    Inside the well it is sampled through exact transfer steps; beyond it
    q = 0, the solution is linear and has one more zero iff y and y' differ
    in sign at the well edge."""
    zeros = 0
    y, yp = 1.0, float(bval)
    for length, q in halfline_segments(potential):
        d = length / samples
        for _ in range(samples):
            y2, yp2 = step(y, yp, q, 0.0, d)
            y2, yp2 = y2.real, yp2.real
            if y * y2 < 0.0:
                zeros += 1
            y, yp = y2, yp2
    if y * yp < 0.0:
        zeros += 1
    return zeros


def interval_negative_count(potential, b, b0, b1, samples=4000):
    """Eigenvalues below 0 for y'(0) = b0 y(0), -y'(b) = b1 y(b), from the
    Pruefer angle theta (y = r sin theta, y' = r cos theta) of the zero-energy
    solution: the n-th eigenvalue sits where theta(b) = beta + n pi."""
    y, yp = 1.0, float(b0)
    theta = math.atan2(y, yp)
    if theta < 0.0:
        theta += math.pi  # theta(0) in [0, pi)
    for length, q in interval_segments(potential, b):
        d = length / samples
        for _ in range(samples):
            y, yp = (v.real for v in step(y, yp, q, 0.0, d))
            ang = math.atan2(y, yp)
            # unwrap: the angle moves by much less than pi per sub-step
            ang += 2.0 * math.pi * round((theta - ang) / (2.0 * math.pi))
            theta = ang
    beta = math.atan2(1.0, -b1)  # tan beta = y/y' = -1/b1, beta in (0, pi)
    return max(0, math.ceil((theta - beta) / math.pi))
