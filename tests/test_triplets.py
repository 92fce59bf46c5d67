import math
import random

import pytest

from weyl import triplets
from weyl.errors import TransformValidationError, TransversalityError
from weyl.linalg import Matrix, imag_part, lambda_min


def herglotz_test_matrix(rng, n):
    g = triplets._random_hermitian(rng, n)
    return triplets._random_hermitian(rng, n) + (g @ g).scale(1j) + Matrix.identity(n).scale(0.05j)


def test_identity_transform():
    t = triplets.identity_transform(2)
    m = Matrix.from_rows([[1j, 0.2], [0.2, 2j]])
    assert (triplets.transform_weyl(t, m) - m).norm_fro() < 1e-14
    assert (triplets.transform_boundary_operator(t, m) - m).norm_fro() < 1e-14


def test_k_shift_is_valid():
    ident = Matrix.identity(2)
    k = Matrix.from_rows([[1.0, 0.5], [0.5, -2.0]])
    t = triplets.make_transform(ident, ident, k, Matrix.zeros(2, 2), ident)
    b = Matrix.diag([-1.0, 2.0])
    assert (triplets.transform_boundary_operator(t, b) - (b + k)).norm_fro() < 1e-12


def test_non_hermitian_k_rejected():
    ident = Matrix.identity(2)
    bad = Matrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(TransformValidationError) as exc:
        triplets.make_transform(ident, ident, bad, Matrix.zeros(2, 2), ident)
    assert any("X12" in name for name, _ in exc.value.failures)


def test_gamma0_shift_inverts_weyl_function():
    # new Gamma0 = Gamma0 + K Gamma1 realizes M~^-1 = M^-1 + K
    t = triplets.make_transform(
        Matrix.identity(1), Matrix.identity(1), Matrix.zeros(1, 1),
        Matrix.scalar(1.0), Matrix.identity(1),
    )
    mt = triplets.transform_weyl(t, Matrix.scalar(1j))
    assert abs(mt.at(0, 0) - (0.5 + 0.5j)) < 1e-14


def test_congruence_form():
    # M -> C M C* + D with C = 2, D = 1
    c = Matrix.scalar(2.0)
    d = Matrix.scalar(1.0)
    t = triplets.make_transform(
        Matrix.identity(1), c, d @ Matrix.scalar(0.5), Matrix.zeros(1, 1), Matrix.scalar(0.5)
    )
    mt = triplets.transform_weyl(t, Matrix.scalar(1j))
    assert abs(mt.at(0, 0) - (1 + 4j)) < 1e-14


def test_unitary_validation():
    bad_u = Matrix.from_rows([[1, 0], [0, 2]])
    ident = Matrix.identity(2)
    with pytest.raises(TransformValidationError):
        triplets.make_transform(bad_u, ident, Matrix.zeros(2, 2), Matrix.zeros(2, 2), ident)


def test_composition_matches_sequential_application():
    rng = random.Random(11)
    for n in (1, 2, 3):
        for _ in range(8):
            t1 = triplets.sample_transform(rng, n)
            t2 = triplets.sample_transform(rng, n)
            m = herglotz_test_matrix(rng, n)
            lhs = triplets.transform_weyl(t2, triplets.transform_weyl(t1, m))
            rhs = triplets.transform_weyl(triplets.compose(t2, t1), m)
            assert (lhs - rhs).norm_fro() <= 1e-9 * max(1.0, lhs.norm_fro())


def test_herglotz_preservation():
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        for _ in range(13):
            t = triplets.sample_transform(rng, n)
            m = herglotz_test_matrix(rng, n)
            mt = triplets.transform_weyl(t, m)
            assert lambda_min(imag_part(mt)) >= -1e-9 * max(1.0, mt.norm_fro())


def test_nevanlinna_kernel_preserved():
    # Pick kernel positivity survives the Mobius action (tolerance 1e-7)
    rng = random.Random(14)
    for _ in range(25):
        n = rng.choice((1, 2, 3, 4))
        t = triplets.sample_transform(rng, n)
        zs = [complex(rng.uniform(-2, 2), rng.uniform(0.4, 3)) for _ in range(4)]
        base = triplets._random_hermitian(rng, n)
        g = triplets._random_hermitian(rng, n)
        psd = g @ g
        g2 = triplets._random_hermitian(rng, n)
        residue = g2 @ g2

        def m_of(z):
            # Herglotz: Hermitian + PSD-linear + PSD pole on the real axis
            return base + psd.scale(z) + residue.scale(1.0 / (-4.0 - z))

        mats = [triplets.transform_weyl(t, m_of(z)) for z in zs]
        k = len(zs)
        hs = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in zs]
        data = []
        for i in range(k):
            for j in range(k):
                kern = (mats[i] - mats[j].adjoint()).scale(1.0 / (zs[i] - zs[j].conjugate()))
                acc = 0j
                for r in range(n):
                    for c in range(n):
                        acc += hs[j][r].conjugate() * kern.at(r, c) * hs[i][c]
                data.append(acc)
        gram = Matrix(k, k, tuple(data))
        assert lambda_min(gram) >= -1e-7 * max(1.0, gram.norm_fro())


def test_singular_denominator_raises():
    # X21 M + X22 = 0 for M = i, rotation with cot(theta) = ... picks M = i pole
    th = math.pi / 4
    ident = Matrix.identity(1)
    t = triplets.make_transform(
        ident,
        ident.scale(math.cos(th)),
        ident.scale(math.sin(th)),
        ident.scale(-math.sin(th)),
        ident.scale(math.cos(th)),
    )
    with pytest.raises(TransversalityError):
        triplets.transform_weyl(t, Matrix.scalar(1.0))  # cot(pi/4) = 1: singular
