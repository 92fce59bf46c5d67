import math
import random

import pytest

from weyl import charfun, triplets
from weyl.errors import DegenerateColligationError, TransformValidationError, TransversalityError
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


def _two_by_two_transform():
    # U a rotation; [[I, 0], [L, I]] [[I, K], [0, I]] with dyadic K, L: every block is exact
    u = Matrix.from_rows([[0.6, 0.8j], [0.8j, 0.6]])
    ident = Matrix.identity(2)
    k = Matrix.from_rows([[1, 0.5], [0.5, -1]])
    l = Matrix.from_rows([[0.25, -0.5j], [0.5j, 2]])
    return triplets.make_transform(u, ident, k, l, ident + l @ k)


def _four_by_four_transform():
    # U the unitary 4-point DFT; [[I, 0], [L, I]] [[C, D C^-*], [0, C^-*]], exact
    u = Matrix.from_rows([[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]).scale(0.5)
    c = Matrix.from_rows([[2, 1, 0, 0], [0, 1, 0, 0], [0, 0, 0.5, 0.5j], [0, 0, 0, 4]])
    c_inv_adj = Matrix.from_rows([[0.5, -0.5, 0, 0], [0, 1, 0, 0], [0, 0, 2, -0.25j], [0, 0, 0, 0.25]]).adjoint()
    d = Matrix.from_rows([[1, 0.5j, 0, 0.25], [-0.5j, -2, 1, 0], [0, 1, 0.5, -1j], [0.25, 0, 1j, 3]])
    l = Matrix.from_rows([[0.5, 0, 0.25j, 0], [0, -1, 0, 0.5], [-0.25j, 0, 1, 0], [0, 0.5, 0, 0.125]])
    return triplets.make_transform(u, c, d @ c_inv_adj, l @ c, l @ d @ c_inv_adj + c_inv_adj)


@pytest.mark.parametrize("t, m, expected", [
    # mpmath at 40 digits of U (X11 M + X12)(X21 M + X22)^-1 U*
    (_two_by_two_transform(),
     Matrix.from_rows([[0.5 + 1j, 0.25 - 0.5j], [0.25 - 0.5j, -1 + 2j]]),
     [[1.3385794336694609 + 0.57033134427208799j, 0.16858027777597415 - 0.56563603425773823j],
      [-0.45095338584108724 + 0.48377068872598359j, 0.83558571252329418 + 0.25278938243868869j]]),
    (_four_by_four_transform(),
     Matrix.from_rows([[1 + 2j, 0.5, -0.25j, 0], [0.5, -1 + 1j, 0.5 + 0.5j, 0.25],
                       [0.25j, 0.5 - 0.5j, 2 + 0.5j, -1], [0, 0.25, -1, 0.5 + 3j]]),
     [[1.876267126323493 + 0.19673488173056993j, 0.22344968232920385 + 0.99300572054165451j,
       -0.56798028992535887 - 0.13763317652605762j, 0.39452124999074021 - 0.51462357394314771j],
      [0.42459878329810847 - 0.90666735828961094j, 0.72367528901171682 + 0.14975696710597949j,
       0.11728160815200665 + 0.80701971694176333j, 0.56029729726461992 - 0.1035752095734389j],
      [-0.61029256651815755 + 0.11462991886184827j, 0.24616036969056285 - 0.7122755046197637j,
       1.9257846059763296 + 0.19851598993771016j, 0.19821445646089368 + 1.053404278759998j],
      [0.37638351527695525 + 0.62607580757335204j, 0.59728859556580489 + 0.14604448753998553j,
       0.42661220912700255 - 0.85859599921862611j, 0.66385870730069765 + 0.1616911555137887j]]),
])
def test_transform_weyl_pinned(t, m, expected):
    want = Matrix.from_rows(expected)
    assert (triplets.transform_weyl(t, m) - want).norm_max() <= 1e-13 * want.norm_max()


@pytest.mark.parametrize("eps, expected", [
    (0.0, "vanishes"), (3e-13, "vanishes"), (1e-11, None), (0.5, "singular"),
])
def test_vanishing_denominator_refusal_ignores_u(eps, expected):
    # rotation by pi/4 mixes the traces: X21 M + X22 = cos - sin M, which is
    # diag(-sin eps, one ulp) here: below 1e-12 of the inputs it vanishes, and
    # once its larger pivot dwarfs the ulp it is singular
    th = math.pi / 4
    ident = Matrix.identity(2)
    blocks = (ident.scale(math.cos(th)), ident.scale(math.sin(th)),
              ident.scale(-math.sin(th)), ident.scale(math.cos(th)))
    m = Matrix.diag([1.0 + eps, 1.0])

    def refusal(u):
        try:
            triplets.transform_weyl(triplets.make_transform(u, *blocks), m)
        except TransversalityError as e:
            return "vanishes" if "vanishes" in str(e) else "singular"
        return None

    phased_swap = Matrix.from_rows([[0, 1j], [-1, 0]])
    rotation = Matrix.from_rows([[0.6, 0.8j], [0.8j, 0.6]])
    assert refusal(phased_swap) == refusal(rotation) == refusal(ident) == expected


@pytest.mark.parametrize("b", [
    Matrix.from_rows([[2, 0.5 - 1j], [0.5 + 1j, -3]]),
    Matrix.from_rows([[0.5, 1.25j], [-1.25j, 1.5]]),
    Matrix.diag([0.5, -1.0]),
])
def test_near_unitary_u_keeps_hermitian_b_hermitian(b):
    # U = diag(1, e^i) R(0.6) typed to 10 digits: U*U - I is about 1.5e-10, inside
    # the validation tolerance but no scalar multiple of I.  The map must stay the
    # congruence U A U*; a similarity U A U^-1 would give Im B of about 1e-10 and
    # a characteristic function built from rounding noise.
    u = Matrix.from_rows([[0.8253356149, -0.5646424734],
                          [0.3050776304 + 0.4751302582j, 0.4459307359 + 0.6944959727j]])
    ident = Matrix.identity(2)
    k = Matrix.from_rows([[1, 0.5], [0.5, -1]])
    l = Matrix.from_rows([[0.25, -0.5j], [0.5j, 2]])
    t = triplets.make_transform(u, ident, k, l, ident + l @ k)
    bt = triplets.transform_boundary_operator(t, b)
    assert (bt - bt.adjoint()).norm_fro() <= 1e-14 * bt.norm_fro()
    with pytest.raises(DegenerateColligationError):
        charfun.factor_colligation(bt)
