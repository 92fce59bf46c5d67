import cmath
import math
import random

import pytest

from weyl import charfun, extensions, models
from weyl.errors import DegenerateColligationError, SpectralPointError
from weyl.linalg import Matrix, imag_part, lambda_min
from weyl.slsolve import PotentialSpec

Q0 = PotentialSpec.zero()


def test_factor_scalar():
    col = charfun.factor_colligation(Matrix.scalar(1j))
    assert col.K.at(0, 0) == 1 and col.J.at(0, 0) == 1
    assert col.full_rank


def test_factor_indefinite_signature():
    b = Matrix.from_rows([[1, 1j], [1j, 1]])
    col = charfun.factor_colligation(b)
    js = sorted(col.J.at(i, i).real for i in range(2))
    assert js == [-1.0, 1.0]
    resid = (col.K @ col.J @ col.K.adjoint() - imag_part(b)).norm_fro()
    assert resid < 1e-12


def test_factor_rank_one_imaginary():
    # Hermitian plus i times a PSD rank-1 bump
    u = Matrix.from_rows([[1.0], [2.0]])
    b = Matrix.from_rows([[2.0, 0.5], [0.5, -1.0]]) + (u @ u.adjoint()).scale(1j)
    col = charfun.factor_colligation(b)
    assert col.reduced_dim == 1
    assert col.J.at(0, 0) == 1
    assert not col.full_rank


def test_degenerate_colligation():
    with pytest.raises(DegenerateColligationError):
        charfun.factor_colligation(Matrix.from_rows([[1.0, 0.2], [0.2, 3.0]]))


def test_char_function_scalar_value():
    hl = models.half_line(Q0)
    w = charfun.char_function(extensions.extension(hl, 1j), 1j).at(0, 0)
    m = 1j * cmath.exp(1j * math.pi / 4)
    assert abs(w - (m - 1j) / (m + 1j)) < 1e-9
    assert abs(abs(w) - 0.41421356) < 1e-6


def test_char_function_reduced_space():
    fi = models.finite_interval(Q0, math.pi)
    u = Matrix.from_rows([[1.0], [-1.0]])
    b = Matrix.from_rows([[0.5, 0.1], [0.1, -0.7]]) + (u @ u.adjoint()).scale(1j)
    spec = extensions.ExtensionSpec(fi, b)
    w = charfun.char_function(spec, 1.5j)
    assert w.rows == 1  # reduced to ran(K)
    col = charfun.factor_colligation(b)
    v = charfun.v_function(col, models.evaluate(fi, 1.5j))
    assert charfun.cayley_check(col, w, v) < 1e-10


def test_v_function_scalar_example():
    # B = i, q = 0: B_R = 0, so V = -1/m
    hl = models.half_line(Q0)
    col = charfun.factor_colligation(Matrix.scalar(1j))
    z = 1j
    m = models.evaluate(hl, z).at(0, 0)
    v = charfun.v_function(col, models.evaluate(hl, z)).at(0, 0)
    assert abs(v + 1.0 / m) < 1e-10


def test_v_conjugate_symmetry():
    hl = models.half_line(Q0)
    col = charfun.factor_colligation(Matrix.scalar(0.5 + 1j))
    z = -1 + 1.2j
    va = charfun.v_function(col, models.evaluate(hl, z.conjugate()))
    vb = charfun.v_function(col, models.evaluate(hl, z)).adjoint()
    assert (va - vb).norm_fro() < 1e-9


def test_im_v_psd_in_upper_half_plane():
    fi = models.finite_interval(Q0, math.pi)
    b = Matrix.from_rows([[1 + 1j, 0.3], [0.3, -0.5 - 0.7j]])
    col = charfun.factor_colligation(b)
    rng = random.Random(4)
    for _ in range(10):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.4, 5))
        v = charfun.v_function(col, models.evaluate(fi, z))
        assert lambda_min(imag_part(v)) >= -1e-9 * max(1.0, v.norm_fro())


def test_cayley_negative_control():
    hl = models.half_line(Q0)
    col = charfun.factor_colligation(Matrix.scalar(1j))
    w = charfun.char_function_colligation(col, models.evaluate(hl, 2j))
    v_bad = charfun.v_function(col, models.evaluate(hl, 3j))
    assert charfun.cayley_check(col, w, v_bad) > 1e-6


def test_char_function_spectral_point_error():
    # z at an eigenvalue of A_{B*}: B* - M(z) singular
    lin = models.callable_model(lambda z: Matrix.scalar(z), 1, ess_floor=-math.inf)
    spec = extensions.ExtensionSpec(lin, Matrix.scalar(1.0 + 1.0j))
    with pytest.raises(SpectralPointError):
        charfun.char_function(spec, 1.0 - 1.0j)  # M(z) = z = conj(B): singular
