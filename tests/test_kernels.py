"""The generated grid kernels give the Matrix path's bits, and its errors.

For every n <= kernels.MAX_N, with and without a transform, and for `eval`,
W's full route and every reduced rank, the kernel's entries must have the
repr of the entries that transform_weyl and char_function_from_m give on the
same M, and where those raise the kernel must raise the same error.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl import charfun, kernels, triplets
from weyl.cli import main
from weyl.errors import SpectralPointError, TransversalityError
from weyl.linalg import Matrix, det
from weyl.problems import problem_from_data

SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1.0)


def _reference(n, transform, col, data):
    """The Matrix path: repr of every entry, or the error's type and message."""
    try:
        m = Matrix(n, n, data)
        if transform is not None:
            m = triplets.transform_weyl(transform, m)
        if col is not None:
            m = charfun.char_function_from_m(col, m)
    except Exception as e:  # noqa: BLE001 -- the kernel must raise the same
        return type(e), str(e)
    return [repr(v) for v in m.data]


def _kernel(kernel, data):
    try:
        out = kernel(data)
    except Exception as e:  # noqa: BLE001
        return type(e), str(e)
    return [repr(v) for v in out]


def _boundary(rng, n, r, structural):
    """B with Im B of rank r: on the leading coordinates when structural (so K* holds
    exact zeros), else in a random unitary frame; the signs of Im B alternate."""
    d = [(1.0 + rng.random()) * (-1) ** i if i < r else 0.0 for i in range(n)]
    u = Matrix.identity(n) if structural else triplets.random_unitary(rng, n)
    im_b = u @ Matrix.diag(d) @ u.adjoint()
    return triplets._random_hermitian(rng, n) + im_b.scale(1j)


def _weyl_samples(rng, n, count):
    out = []
    for _ in range(count):  # random M
        out.append(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n * n)))
    for _ in range(count // 4):  # diagonal M: zeros in the structure
        d = [complex(rng.gauss(0, 2), rng.uniform(0.1, 2)) for _ in range(n)]
        out.append(tuple(d[i // n] if i % (n + 1) == 0 else 0j for i in range(n * n)))
    for _ in range(count // 4):  # special floats in random places
        out.append(tuple(complex(rng.choice(SPECIAL), rng.choice(SPECIAL)) if rng.random() < 0.4
                         else complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n * n)))
    return out


def _routes(rng, n):
    """(label, col) for `eval` and for W on the full route and every reduced rank."""
    yield "eval", None
    yield "full", charfun.factor_colligation(_boundary(rng, n, n, False))
    for r in range(1, n):
        for structural in (False, True):
            yield f"reduced r={r} {'diagonal' if structural else 'rotated'}", \
                charfun.factor_colligation(_boundary(rng, n, r, structural))


@pytest.mark.parametrize("with_transform", [False, True])
@pytest.mark.parametrize("n", range(1, kernels.MAX_N + 1))
def test_kernel_entries_have_the_matrix_paths_bits(monkeypatch, n, with_transform):
    rng = random.Random(1000 * n + with_transform)
    calls, matrix_path = [], kernels._matrix_path

    def counted(*args):  # the kernel runs the Matrix path only where that raises
        calls.append(args)
        return matrix_path(*args)

    monkeypatch.setattr(kernels, "_matrix_path", counted)
    transform = triplets.sample_transform(rng, n) if with_transform else None
    for label, col in _routes(rng, n):
        if col is not None:
            assert col.full_rank is (label == "full")
        kernel = kernels.grid_kernel(n, transform, col)
        raised = 0
        for data in _weyl_samples(rng, n, 40):
            want = _reference(n, transform, col, data)
            assert _kernel(kernel, data) == want, (label, data)
            raised += isinstance(want, tuple)
        assert len(calls) == raised, label
        calls.clear()


def test_kernels_compile_once_per_shape():
    # a transform and W compile as two stages, each once: the Mobius stage and W's;
    # the zeros of X21*, P* and U* join the Mobius stage's shape, and the second
    # transform drawn here has X21 = 0, so its stage compiles once more, specialised
    rng = random.Random(5)
    kernels._factory.cache_clear()
    for _ in range(3):
        col = charfun.factor_colligation(_boundary(rng, 3, 2, False))
        transform = triplets.sample_transform(rng, 3)
        kernels.grid_kernel(3, transform, col)((0.5j,) * 9)
    info = kernels._factory.cache_info()
    assert (info.misses, info.hits) == (3, 4)
    # `eval` with the same transform reuses the Mobius stage and compiles nothing
    data = (0.5j,) * 9
    assert _kernel(kernels.grid_kernel(3, transform), data) == _reference(3, transform, None, data)
    info = kernels._factory.cache_info()
    assert (info.misses, info.hits) == (3, 5)


@pytest.mark.ci_property
@settings(deadline=None)
@given(st.integers(min_value=1, max_value=kernels.MAX_N), st.booleans(), st.integers(min_value=0, max_value=10**6),
       st.data())
def test_grid_kernel_has_the_matrix_paths_bits(n, with_transform, seed, data):
    # each grid kernel, with and without a transform, for `eval` and both W routes
    rng = random.Random(seed)
    transform = triplets.sample_transform(rng, n) if with_transform else None
    label, col = data.draw(st.sampled_from(list(_routes(rng, n))))
    kernel = kernels.grid_kernel(n, transform, col)
    for m in _weyl_samples(rng, n, 8):
        assert _kernel(kernel, m) == _reference(n, transform, col, m), (label, m)


def test_beyond_max_n_the_kernel_is_the_matrix_path():
    rng = random.Random(6)
    n = kernels.MAX_N + 1
    kernel = kernels.grid_kernel(n, triplets.sample_transform(rng, n))
    assert kernel.func is kernels._matrix_path
    data = _weyl_samples(rng, n, 1)[0]
    assert _kernel(kernel, data) == _reference(n, kernel.args[1], None, data)


@pytest.mark.ci_property
@settings(deadline=None)
@given(st.integers(min_value=1, max_value=kernels.MAX_N), st.integers(min_value=0, max_value=10**6),
       st.sampled_from(["random", "swap", "zero_column", "special"]))
def test_det_kernel_has_the_matrix_paths_bits(n, seed, shape):
    rng = random.Random(seed)
    b = Matrix(n, n, tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n * n)))
    m = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n * n)]
    if shape == "swap":  # a small diagonal of M - B: the first step swaps rows
        m[::n + 1] = [v + 1e-3 * rng.gauss(0, 1) for v in b.data[::n + 1]]
    elif shape == "zero_column":  # M - B has a zero column: _eliminate skips that step
        j = rng.randrange(n)
        m[j::n] = b.data[j::n]
    elif shape == "special":
        m = [complex(rng.choice(SPECIAL), rng.choice(SPECIAL)) if rng.random() < 0.4 else v for v in m]
    data = tuple(m)
    assert repr(kernels.det_kernel(b)(data)) == repr(det(Matrix(n, n, data) - b))


def test_det_kernel_beyond_max_n_is_the_matrix_path():
    rng = random.Random(7)
    n = kernels.MAX_N + 1
    b = Matrix(n, n, tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n * n)))
    kernel = kernels.det_kernel(b)
    assert kernel.func is kernels._det_path
    data = _weyl_samples(rng, n, 1)[0]
    assert repr(kernel(data)) == repr(det(Matrix(n, n, data) - b))


def test_terms_with_a_constant_zero_left_factor_are_skipped():
    # K* = [0, k] and the solve's core = [nan, finite]: Matrix.__matmul__ skips the 0 * nan
    col = charfun.factor_colligation(Matrix.diag([0.3, 0.5 + 0.8j]))
    data = (1j, complex(math.nan, 0.0), 0j, 2j)
    want = _reference(2, None, col, data)
    assert "nan" not in want[0]
    assert _kernel(kernels.grid_kernel(2, None, col), data) == want


def test_non_finite_transform_blocks_take_the_matrix_path():
    # make_transform refuses such blocks; built directly, Matrix.__matmul__ skips the
    # 0 * inf that a kernel would add
    ident, zero = Matrix.identity(2), Matrix.zeros(2, 2)
    t = triplets.TripletTransform(ident, ident, zero, Matrix.diag([math.inf, 0.0]), ident)
    kernel = kernels.grid_kernel(2, t)
    assert kernel.func is kernels._matrix_path
    data = Matrix.diag([1j, 0.0]).data
    assert _kernel(kernel, data) == _reference(2, t, None, data)


def test_singular_mobius_denominator_raises_the_same_error():
    # the case of test_triplets.test_singular_denominator_raises: M = 1, rotation by pi/4
    th = math.pi / 4
    ident = Matrix.identity(1)
    t = triplets.make_transform(ident, ident.scale(math.cos(th)), ident.scale(math.sin(th)),
                                ident.scale(-math.sin(th)), ident.scale(math.cos(th)))
    with pytest.raises(TransversalityError) as want:
        triplets.transform_weyl(t, Matrix.scalar(1.0))
    with pytest.raises(TransversalityError) as got:
        kernels.grid_kernel(1, t)((1 + 0j,))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("eps", [0.0, 3e-13, 1e-11, 0.5])
def test_vanishing_and_singular_denominators_match(eps):
    # test_triplets.test_vanishing_denominator_refusal_ignores_u: "vanishes" below
    # 1e-12 of the inputs, "singular" with the pivot once the larger pivot dwarfs an ulp
    th = math.pi / 4
    ident = Matrix.identity(2)
    t = triplets.make_transform(Matrix.from_rows([[0, 1j], [-1, 0]]), ident.scale(math.cos(th)),
                                ident.scale(math.sin(th)), ident.scale(-math.sin(th)),
                                ident.scale(math.cos(th)))
    data = Matrix.diag([1.0 + eps, 1.0]).data
    assert _kernel(kernels.grid_kernel(2, t), data) == _reference(2, t, None, data)


def test_spectral_point_raises_the_same_error():
    # the case of test_charfun: M(z) = conj(B), so B* - M(z) = 0
    col = charfun.factor_colligation(Matrix.scalar(1.0 + 1.0j))
    with pytest.raises(SpectralPointError) as want:
        charfun.char_function_from_m(col, Matrix.scalar(1.0 - 1.0j))
    with pytest.raises(SpectralPointError) as got:
        kernels.grid_kernel(1, None, col)((1.0 - 1.0j,))
    assert str(got.value) == str(want.value)


HALF_LINE = {"kind": "half_line", "potential": {"kind": "zero"}}  # M(2i) = -1 + i, M(-1) = -1


@pytest.mark.parametrize("cmd, data, grid, error", [
    ("charfn", {"model": HALF_LINE, "boundary": [[[-1.0, -1.0]]]}, "0:1:2,2:2:1", SpectralPointError),
    ("eval", {"model": HALF_LINE, "transform": {"U": [[1]], "X11": [[1]], "X12": [[0]], "X21": [[1]],
                                                "X22": [[1]]}}, "-2:-1:2,0:0:1", TransversalityError),
])
def test_cli_grid_through_a_refused_point_exits_1(tmp_path, capsys, cmd, data, grid, error):
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(data))
    assert main([cmd, "--problem", str(problem), f"--grid={grid}", "--out", str(tmp_path / "o.json")]) == 1
    p = problem_from_data(data)
    col, m = (charfun.factor_colligation(p.boundary), -1.0 + 1.0j) if cmd == "charfn" else (None, -1.0 + 0j)
    want = _reference(1, p.transform, col, (m,))
    assert want[0] is error
    assert capsys.readouterr().err == f"error: {want[1]}\n"
    assert not (tmp_path / "o.json").exists()


def _structured_transform(rng, n):
    """A transform with structural zeros, as the benchmark's closed-form grids build
    them: a Gamma_1 shift by a tridiagonal Hermitian K, a rotation by theta of the
    trace pair (so X21 = -sin theta I), conjugated by a block-rotation U."""
    th = rng.uniform(-0.9, 0.9)
    k = [[complex(rng.uniform(-0.8, 0.8)) if i == j else 0j for j in range(n)] for i in range(n)]
    u = [[complex(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        k[i][i + 1] = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        k[i + 1][i] = k[i][i + 1].conjugate()
    for i in range(0, n - 1, 2):
        phi = rng.uniform(-math.pi, math.pi)
        u[i][i], u[i][i + 1], u[i + 1][i], u[i + 1][i + 1] = math.cos(phi), -math.sin(phi), math.sin(phi), math.cos(phi)
    ident, k = Matrix.identity(n), Matrix.from_rows(k)
    c, s = math.cos(th), math.sin(th)
    return triplets.make_transform(Matrix.from_rows(u), ident.scale(c), k.scale(c) + ident.scale(s),
                                   ident.scale(-s), ident.scale(c) - k.scale(s))


@pytest.mark.ci_property
@settings(deadline=None)
@given(st.integers(min_value=1, max_value=kernels.MAX_N), st.sampled_from(["structured", "identity"]),
       st.booleans(), st.integers(min_value=0, max_value=10**6))
def test_mobius_stage_skipping_structural_zeros_has_the_matrix_paths_bits(n, kind, with_w, seed):
    # the Mobius stage leaves out the terms whose right factor is a zero of X21*, P*
    # or U*; on finite M, on M with nan, inf and signed zeros, and on M so large that
    # the stage's core overflows, every entry keeps the Matrix path's bits, and the
    # kernel runs that path only where it raises
    rng = random.Random(seed)
    transform = _structured_transform(rng, n) if kind == "structured" else triplets.identity_transform(n)
    right = transform.X21_star.data + transform.P_star.data + transform.U_star.data
    assert any(v == 0 for v in right) or n == 1
    col = charfun.factor_colligation(_boundary(rng, n, n, False)) if with_w else None
    calls, matrix_path = [], kernels._matrix_path

    def counted(*args):
        calls.append(args)
        return matrix_path(*args)

    samples = _weyl_samples(rng, n, 8)
    samples += [tuple(complex(rng.uniform(-1, 1) * 1e308, rng.uniform(-1, 1) * 1e308) for _ in range(n * n))
                for _ in range(2)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_matrix_path", counted)
        kernel = kernels.grid_kernel(n, transform, col)
        for m in samples:
            want = _reference(n, transform, col, m)
            assert _kernel(kernel, m) == want, (kind, m)
            assert not calls or isinstance(want, tuple), (kind, m)
            calls.clear()
