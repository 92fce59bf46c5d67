"""Characteristic-function calculus for non-self-adjoint extensions.

W(z) = (B* - M(z))^-1 (B - M(z)) on the boundary space when Im B is
injective; when Im B has a kernel, the colligation form
W(z) = I + 2i K* (B* - M(z))^-1 K J on the reduced space ran(K*).  The two
coincide for scalars; for matrices they are intertwined by K*,

    K* W_full(z) = W_reduced(z) K*,

which is what "both paths agree" means operator-wise (they live on different
coordinates of the same boundary space).  V(z) = K* (B_R - M(z))^-1 K is the
Herglotz transform of W via the Cayley identity
V = -i (W - I)(W + I)^-1 J, checked numerically by cayley_check.
"""

from __future__ import annotations

import math

from .errors import ContractError, DegenerateColligationError, SingularMatrixError, SpectralPointError
from .extensions import ExtensionSpec
from .linalg import Matrix, hermitian_eigh, imag_part, inverse, solve
from .models import evaluate
from .values import Value


class Colligation(Value):
    # B: n x n; K: n x r, r = rank of Im B; J: r x r signature (diagonal +-1)
    _fields = ("B", "K", "J")

    def __post_init__(self):
        # B* and K*, derived once per colligation, outside ==, hash and repr
        self._derive(B_star=self.B.adjoint(), K_star=self.K.adjoint())

    @property
    def reduced_dim(self) -> int:
        return self.K.cols

    @property
    def full_rank(self) -> bool:
        return self.K.cols == self.B.rows


def factor_colligation(b: Matrix) -> Colligation:
    """Factor Im B = K J K* from its eigendecomposition (K = Q |L|^(1/2))."""
    bi = imag_part(b)
    scale = bi.norm_fro()
    if scale <= 1e-14 * max(1.0, b.norm_fro()):
        raise DegenerateColligationError("Im B = 0: W(z) is identically the identity")
    evals, q = hermitian_eigh(bi)
    keep = [i for i, w in enumerate(evals) if abs(w) > 1e-12 * scale]
    if not keep:
        raise DegenerateColligationError("Im B numerically zero after eigen cut")
    n = b.rows
    k = Matrix.from_rows(
        [[q.at(i, j) * math.sqrt(abs(evals[j])) for j in keep] for i in range(n)]
    )
    j_sig = Matrix.diag([1.0 if evals[j] > 0 else -1.0 for j in keep])
    col = Colligation(b, k, j_sig)
    resid = (k @ j_sig @ col.K_star - bi).norm_fro()
    if resid > 1e-10 * max(1.0, scale):
        raise ContractError(f"colligation residual {resid:.3e} exceeds tolerance")
    return col


def char_function(spec: ExtensionSpec, z: complex) -> Matrix:
    """W(z) per the resolvent form when Im B is injective, else the reduced form."""
    m = evaluate(spec.model, complex(z))
    return char_function_from_m(factor_colligation(spec.B), m)


def char_function_from_m(col: Colligation, m: Matrix) -> Matrix:
    """W at a point where the Weyl function is m, for the extension factored in col.

    col depends on B alone, so a grid request factors once; for n <= 4 its
    points then run a generated kernel with this function's bits (`kernels`),
    and beyond that they call this per point.
    """
    if col.full_rank:
        return _char_full(col, m)
    return char_function_colligation(col, m)


def _adjoint_solve(col: Colligation, m: Matrix, rhs: Matrix) -> Matrix:
    """(B* - M(z))^-1 rhs, the solve both forms of W share."""
    try:
        return solve(col.B_star - m, rhs)
    except SingularMatrixError as e:
        raise SpectralPointError(
            "B* - M(z) singular: z in the spectrum of the adjoint extension"
        ) from e


def _char_full(col: Colligation, m: Matrix) -> Matrix:
    """W(z) = (B* - M(z))^-1 (B - M(z))."""
    return _adjoint_solve(col, m, col.B - m)


def char_function_colligation(col: Colligation, m: Matrix) -> Matrix:
    """Reduced-space W(z) = I + 2i K* (B* - M(z))^-1 K J."""
    core = _adjoint_solve(col, m, col.K)
    return Matrix.identity(col.reduced_dim) + (col.K_star @ core @ col.J).scale(2j)


def v_function(col: Colligation, m: Matrix) -> Matrix:
    """V(z) = K* (B_R - M(z))^-1 K with B_R the Hermitian part of B."""
    b_r = (col.B + col.B_star).scale(0.5)
    try:
        core = solve(b_r - m, col.K)
    except SingularMatrixError as e:
        raise SpectralPointError("B_R - M(z) singular") from e
    return col.K_star @ core


def cayley_check(col: Colligation, w: Matrix, v: Matrix) -> float:
    """Relative residual of V = -i (W - I)(W + I)^-1 J for a matched (W, V) pair."""
    ident = Matrix.identity(w.rows)
    try:
        inv_wp = inverse(w + ident)
    except SingularMatrixError as e:
        raise SpectralPointError("W + I singular: z outside the admissible set") from e
    recon = ((w - ident) @ inv_wp @ col.J).scale(-1j)
    return (v - recon).norm_fro() / (1.0 + v.norm_fro())
