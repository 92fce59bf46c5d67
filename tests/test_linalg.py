import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weyl.errors import ContractError, DimensionError, RangeError, SingularMatrixError
from weyl.linalg import (
    Matrix,
    det,
    herm_part,
    hermitian_eigh,
    imag_part,
    inertia,
    inverse,
    numeric_rank,
    singular_values,
    solve,
)


def random_matrix(rng, n, m=None, scale=1.0):
    m = n if m is None else m
    return Matrix.from_rows(
        [[complex(rng.gauss(0, scale), rng.gauss(0, scale)) for _ in range(m)] for _ in range(n)]
    )


def random_hermitian(rng, n):
    a = random_matrix(rng, n)
    return herm_part(a)


def test_imag_part_of_i_is_one():
    assert imag_part(Matrix.scalar(1j)).at(0, 0) == 1


def test_herm_part_scalar():
    assert herm_part(Matrix.scalar(1 + 2j)).at(0, 0) == 1


def test_imag_part_of_hermitian_is_zero():
    rng = random.Random(0)
    m = random_hermitian(rng, 4)
    assert imag_part(m).norm_fro() < 1e-15 * max(1.0, m.norm_fro())


def test_herm_plus_i_imag_reconstructs():
    rng = random.Random(1)
    for n in (1, 2, 5):
        m = random_matrix(rng, n)
        recon = herm_part(m) + imag_part(m).scale(1j)
        assert (recon - m).norm_fro() <= 1e-14 * m.norm_fro()


def test_solve_identity():
    rng = random.Random(2)
    b = random_matrix(rng, 3, 2)
    x = solve(Matrix.identity(3), b)
    assert (x - b).norm_fro() < 1e-14


def test_det_diagonal():
    assert abs(det(Matrix.diag([2, 3j])) - 6j) < 1e-14


def test_inverse_swap_involution():
    swap = Matrix.from_rows([[0, 1], [1, 0]])
    assert (inverse(swap) - swap).norm_fro() < 1e-14


def test_solve_residual_random():
    rng = random.Random(3)
    for n in (2, 4, 8):
        a = random_matrix(rng, n) + Matrix.identity(n).scale(3.0)
        b = random_matrix(rng, n, 2)
        x = solve(a, b)
        assert (a @ x - b).norm_fro() <= 1e-12 * n * max(1.0, b.norm_fro())


def test_singular_solve_raises_with_pivot():
    a = Matrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as exc:
        solve(a, Matrix.identity(2))
    assert exc.value.smallest_pivot < 1e-12


def test_non_square_rejected():
    with pytest.raises(DimensionError):
        herm_part(Matrix.from_rows([[1, 2]]))
    with pytest.raises(DimensionError):
        det(Matrix.from_rows([[1, 2]]))


def test_pauli_x_eigenvalues():
    evals = hermitian_eigh(Matrix.from_rows([[0, 1], [1, 0]]))[0]
    assert abs(evals[0] + 1) < 1e-12 and abs(evals[1] - 1) < 1e-12


def test_eigh_reconstruction_and_trace():
    rng = random.Random(4)
    # and a repeated eigenvalue, a zero block and a diagonal input (no rotation)
    special = ([[2, 0], [0, 2]], [[0, 0, 0], [0, 0, 1j], [0, -1j, 0]], [[3, 0], [0, -1]])
    for m in [random_hermitian(rng, n) for n in (2, 3, 6)] + [Matrix.from_rows(r) for r in special]:
        n = m.rows
        evals, v = hermitian_eigh(m)
        recon = v @ Matrix.diag(evals) @ v.adjoint()
        assert (recon - m).norm_fro() <= 1e-11 * max(1.0, m.norm_fro())
        trace = sum(m.at(i, i).real for i in range(n))
        assert abs(sum(evals) - trace) <= 1e-10 * max(1.0, m.norm_fro())


def test_non_hermitian_input_rejected():
    for f in (hermitian_eigh, inertia):
        with pytest.raises(ContractError):
            f(Matrix.from_rows([[0, 1], [0, 0]]))


def test_eigenvalues_of_entries_whose_squares_overflow():
    # the squares of 1e200 overflow: Jacobi runs on the matrix scaled by a power of two
    w = hermitian_eigh(Matrix.from_rows([[1e200, 1e200], [1e200, -1e200]]))[0]
    r = math.sqrt(2.0) * 1e200
    assert abs(w[0] + r) <= 4e-16 * r and abs(w[1] - r) <= 4e-16 * r


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_entries_raise_range_error(entry):
    m = Matrix.diag([entry, 1.0])
    for f in (hermitian_eigh, inertia):
        with pytest.raises(RangeError):
            f(m)


@pytest.mark.parametrize("rows, want", [
    ([[0, 1], [1, 0]], (1, 0, 1)),
    ([[0, 0], [0, 2]], (0, 1, 1)),
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], (0, 3, 0)),
    # a zero diagonal fails every 1x1 pivot test: rows 0 and 2 make a 2x2 pivot
    ([[0, 1, 2], [1, 0, 3], [2, 3, 0]], (2, 0, 1)),
    ([[0, 1j, 0], [-1j, 0, 0], [0, 0, -3]], (2, 0, 1)),
    ([[2, 1e-300], [1e-300, -1]], (1, 0, 1)),
])
def test_inertia_exact_cases(rows, want):
    assert inertia(Matrix.from_rows(rows)) == want


@pytest.mark.ci_property
@settings(deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6),
       st.sampled_from(["dense", "zero_diagonal", "real"]), st.sampled_from([1.0, 1e-150, 1e170]))
def test_inertia_agrees_with_jacobi_signs(n, seed, shape, scale):
    """Bunch-Kaufman's sign counts are Jacobi's wherever every eigenvalue lies
    at least 1e-6 ||H|| from 0; at 1e170 both run on H scaled by a power of two."""
    rng = random.Random(seed)
    rows = [[complex(rng.gauss(0, 1), 0.0 if shape == "real" else rng.gauss(0, 1)) for _ in range(n)]
            for _ in range(n)]
    if shape == "zero_diagonal":  # forces 2x2 pivots and row swaps
        for i in range(n):
            rows[i][i] = 0j
    h = herm_part(Matrix.from_rows(rows))
    norm = h.norm_fro() * scale
    h = h.scale(scale)
    evals = hermitian_eigh(h)[0]
    assume(norm > 0 and min(abs(w) for w in evals) >= 1e-6 * norm)
    assert inertia(h) == (sum(w < 0 for w in evals), 0, sum(w > 0 for w in evals))


def test_inverse_accuracy_bound():
    rng = random.Random(5)
    for n in (2, 4, 6):
        for _ in range(10):
            a = random_matrix(rng, n)
            sig = singular_values(a)
            if sig[-1] == 0 or sig[0] / sig[-1] > 1e8:
                continue
            resid = (a @ inverse(a) - Matrix.identity(n)).norm_fro()
            assert resid <= 1e-9 * n


# 40 examples, or the loaded profile's count when larger (2000 under ci)
@pytest.mark.ci_property
@settings(max_examples=max(40, settings.default.max_examples), deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_inertia_sylvester_invariance(n, seed):
    rng = random.Random(seed)
    m = random_hermitian(rng, n)
    t = random_matrix(rng, n) + Matrix.identity(n).scale(2.0)
    sig = singular_values(t)
    if sig[-1] < 1e-3:
        return
    congruent = t.adjoint() @ m @ t
    tol = 1e-7 * max(1.0, m.norm_fro())
    # the law FiniteInterval.eigen_count rests on, read from the signs of the eigenvalues
    before = _sign_counts(hermitian_eigh(m)[0], tol)
    after = _sign_counts(hermitian_eigh(congruent)[0], tol * sig[0] ** 2)
    if before[1] == 0 and after[1] == 0:
        assert (before[0], before[2]) == (after[0], after[2])


def _sign_counts(evals, zero_tol):
    """Eigenvalues below -zero_tol, within +-zero_tol and above +zero_tol."""
    neg, pos = sum(w < -zero_tol for w in evals), sum(w > zero_tol for w in evals)
    return neg, len(evals) - neg - pos, pos


def test_numeric_rank_outer_product():
    u = Matrix.from_rows([[1], [2j], [-1]])
    v = Matrix.from_rows([[3], [1], [1j]])
    assert numeric_rank(u @ v.adjoint(), 1e-8) == 1


def test_numeric_rank_identity_and_zero():
    assert numeric_rank(Matrix.identity(4), 1e-8) == 4
    assert numeric_rank(Matrix.zeros(3, 3), 1e-8) == 0


def test_singular_values_match_eigen_for_hermitian_psd():
    rng = random.Random(6)
    g = random_matrix(rng, 3)
    p = g @ g.adjoint()
    evals = hermitian_eigh(p)[0]
    sig = singular_values(p)
    for a, b in zip(sorted(evals, reverse=True), sig):
        assert abs(a - b) <= 1e-10 * max(1.0, sig[0])


def test_operation_results_equal_checked_construction():
    a = Matrix.from_rows([[1, 2j], [3, 4 - 1j]])
    b = Matrix.from_rows([[0.5, -1], [2j, 1]])
    for out in (a + b, a - b, -a, a.scale(2j), a @ b, a.adjoint(), a.conjugate(), solve(a, b), inverse(a)):
        checked = Matrix(out.rows, out.cols, out.data)
        assert out == checked and hash(out) == hash(checked)
    assert a.adjoint() == Matrix.from_rows([[1, 3], [-2j, 4 + 1j]])
    assert Matrix.from_rows([[1, 2, 3]]).adjoint() == Matrix.from_rows([[1], [2], [3]])


def test_public_constructor_still_checks_its_shape():
    with pytest.raises(DimensionError):
        Matrix(2, 2, (1, 2, 3))
    with pytest.raises(DimensionError):
        Matrix(0, 1, ())


def test_pivot_ties_take_the_first_row():
    # column 0 holds 1, -1 and 1j, all of modulus 1: the pivot is row 0, and
    # another tie-break moves the last bits of every result
    a = Matrix.from_rows([[1, 2, 3j], [-1, 1j, 2], [1j, 3, 1]])
    assert det(a) == -3.999999999999999 - 1.0000000000000009j
    assert solve(a, Matrix.from_rows([[1], [2j], [-1]])).data == (
        7.470588235294118 - 1.1176470588235317j,
        -1.4705882352941189 - 2.8823529411764706j,
        2.2941176470588243 + 1.1764705882352935j,
    )


def test_det_with_an_exactly_zero_second_pivot():
    # after the first step column 1 is exactly 0 below the diagonal
    d = det(Matrix.from_rows([[2, 4, 1], [1, 2, 3], [1, 2, 5]]))
    assert d == 0 and type(d) is complex


def test_solve_of_real_entries_returns_complex_entries():
    x = solve(Matrix(2, 2, (2.0, 1.0, 1.0, 3.0)), Matrix(2, 1, (1.0, 2.0)))
    assert x.data == (0.2 + 0j, 0.6 + 0j)
    assert all(type(v) is complex for v in x.data)


def test_singular_error_carries_the_smallest_pivot():
    with pytest.raises(SingularMatrixError) as exc:
        solve(Matrix.from_rows([[1e-15, 0], [0, 1]]), Matrix.identity(2))
    assert exc.value.smallest_pivot == 1e-15


def test_identity_is_one_shared_instance_per_size():
    assert Matrix.identity(3) is Matrix.identity(3)
    assert Matrix.identity(3) == Matrix.diag([1, 1, 1])
    assert Matrix.identity(2) is not Matrix.identity(3)
