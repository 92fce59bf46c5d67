import math
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weyl import extensions, models, oracle
from weyl.errors import (
    AccuracyError,
    ArgumentPrincipleError,
    BoundaryZeroError,
    ContractError,
    RangeError,
    SpectralPointError,
)
from weyl.linalg import Matrix
from weyl.slsolve import PotentialSpec
from weyl.specfun import sqrt_upper

Q0 = PotentialSpec.zero()


def stub_sqrt_model():
    return models.callable_model(lambda z: Matrix.scalar(1j * sqrt_upper(z)), 1, ess_floor=0.0)


def test_extension_flags():
    hl = models.half_line(Q0)
    assert extensions.extension(hl, -1.0).is_hermitian
    spec = extensions.extension(hl, 1j)
    assert not spec.is_hermitian


def test_point_spectrum_requires_hermitian_b():
    hl = models.half_line(Q0)
    with pytest.raises(ContractError):
        extensions.point_spectrum_real(extensions.extension(hl, 1j), (-2.0, -0.1))


@pytest.mark.parametrize("window", [(-math.inf, -0.05), (-2.0, math.inf), (math.nan, -0.05)])
def test_point_spectrum_refuses_non_finite_window_ends(window):
    # refused before the scan, which would evaluate at nan and raise a
    # RangeError naming a z the caller never gave
    for spec in (extensions.extension(models.half_line(Q0), -1.0),
                 extensions.ExtensionSpec(models.finite_interval(Q0, 1.0), Matrix.zeros(2, 2))):
        with pytest.raises(ContractError, match=r"^window \("):
            extensions.point_spectrum_real(spec, window)


def test_point_spectrum_window_validation():
    hl = models.half_line(Q0)
    with pytest.raises(ContractError):
        extensions.point_spectrum_real(extensions.extension(hl, -1.0), (-2.0, 0.5))
    with pytest.raises(ContractError):
        extensions.point_spectrum_real(extensions.extension(hl, -1.0), (-0.1, -2.0))


def test_robin_bound_state_location():
    hl = models.half_line(Q0)
    rep = extensions.point_spectrum_real(extensions.extension(hl, -1.5), (-4.0, -0.1))
    assert len(rep.eigenvalues) == 1
    assert abs(rep.eigenvalues[0][0] + 2.25) < 1e-8


@pytest.mark.parametrize("b,window,found,budget", [
    (-0.5, (-4.0, -0.3), [], 2),  # the one eigenvalue, -0.25, lies above the window
    (-1.5, (-4.0, -0.1), [-2.25], 2 + math.ceil(math.log2(3.9 / 1e-10))),
])
def test_window_scan_count_budget(monkeypatch, b, window, found, budget):
    """Robin b on q = 0: the scan counts at the window's two ends (so 2 is
    exact), then only inside brackets whose counts differ, each halved down
    to 1e-10 (1 + |x|)."""
    calls = []
    count = models.HalfLine.eigen_count
    monkeypatch.setattr(models.HalfLine, "eigen_count", lambda self, bm, x: calls.append(x) or count(self, bm, x))
    rep = extensions.point_spectrum_real(extensions.extension(models.half_line(Q0), b), window)
    assert [round(x, 8) for x, _mult in rep.eigenvalues] == found
    assert len(calls) <= budget


def test_model_pole_locations_are_the_dirichlet_eigenvalues():
    # M of q = 0 on [0, 2] has its poles at the Dirichlet eigenvalues (k pi / 2)^2
    poles = extensions.model_pole_locations(models.finite_interval(Q0, 2.0), 0.5, 40.0)
    want = [(k * math.pi / 2.0) ** 2 for k in range(1, 5)]
    assert len(poles) == len(want)
    for x, w in zip(poles, want):
        assert abs(x - w) <= 1e-9 * (1.0 + w), (x, w)


def test_interval_collision_spectrum():
    fi = models.finite_interval(Q0, math.pi)
    rep = extensions.point_spectrum_real(
        extensions.ExtensionSpec(fi, Matrix.zeros(2, 2)), (0.5, 9.5)
    )
    locs = [x for x, _ in rep.eigenvalues]
    assert [round(x) for x in locs] == [1, 4, 9]
    assert all(m == 1 for _, m in rep.eigenvalues)
    assert rep.method == "count_scan"


def test_interval_neumann_window_keeps_every_eigenvalue():
    # Neumann on [0, 2]: (k pi/2)^2, k = 0..34, each a Dirichlet pole of M but
    # the first; a determinant sign scan lost 0, 2.47, 9.87 and 22.21 here
    spec = extensions.ExtensionSpec(models.finite_interval(Q0, 2.0), Matrix.zeros(2, 2))
    rep = extensions.point_spectrum_real(spec, (-1.0, 3000.0))
    assert len(rep.eigenvalues) == 35
    for k, (x, mult) in enumerate(rep.eigenvalues):
        want = (k * math.pi / 2.0) ** 2
        assert mult == 1 and abs(x - want) <= 1e-9 * (1.0 + want), (k, x)


def test_h_family_counts_through_the_base_triplet():
    # m_h has a pole at -4 (m = h), which is no eigenvalue of A_0: y'(0) = -0.5 y(0)
    hl = models.half_line(Q0, h=-2.0)
    rep = extensions.point_spectrum_real(extensions.extension(hl, 0.0), (-10.0, -0.1),
                                         compare_oracle=True)
    assert len(rep.eigenvalues) == 1
    x, mult = rep.eigenvalues[0]
    assert mult == 1 and abs(x + 0.25) <= 1e-9
    assert rep.oracle_delta is not None and rep.oracle_delta[0] < 1e-3
    k_m, k_o = extensions.negative_count(extensions.extension(hl, 0.0))
    assert k_m == k_o == 1


def test_interval_mixed_conditions():
    # y'(0) = 0, y(pi) free-Robin: first Neumann-Dirichlet-type spectrum
    fi = models.finite_interval(Q0, math.pi)
    big = 1e6
    rep = extensions.point_spectrum_real(
        extensions.ExtensionSpec(fi, Matrix.diag([0.0, -big])), (0.1, 3.0)
    )
    # B22 -> -inf forces y(pi) ~ 0: Neumann-Dirichlet eigenvalue 1/4
    assert any(abs(x - 0.25) < 1e-3 for x, _ in rep.eigenvalues)


def test_count_complex_stub_boundary_proximity():
    spec = extensions.ExtensionSpec(stub_sqrt_model(), Matrix.scalar(1j))
    rep = extensions.count_complex_eigenvalues(spec, (0.5, 1.5, 0.001, 1.0))
    # the zero of i sqrt(z) - i sits at z = 1 on the real axis: not inside,
    # but the contour passes within 1e-3 of it
    assert rep.count == 0
    assert rep.boundary_proximity


def test_count_complex_hermitian_is_zero():
    spec = extensions.ExtensionSpec(stub_sqrt_model(), Matrix.scalar(-1.0))
    rep = extensions.count_complex_eigenvalues(spec, (-2.0, 2.0, 0.3, 3.0))
    assert rep.count == 0


def test_count_complex_interior_zero_detected():
    # M(z) = z has det(M - B) = z - (1+i): one zero inside the rectangle
    lin = models.callable_model(lambda z: Matrix.scalar(z), 1, ess_floor=-math.inf)
    spec = extensions.ExtensionSpec(lin, Matrix.scalar(1.0 + 1.0j))
    rep = extensions.count_complex_eigenvalues(spec, (0.0, 2.0, 0.5, 1.5))
    assert rep.count == 1
    rep = extensions.count_complex_eigenvalues(spec, (2.0, 4.0, 0.5, 1.5))
    assert rep.count == 0


@pytest.mark.parametrize("rect", [(-math.inf, 1.0, 0.5, 1.5), (0.0, math.inf, 0.5, 1.5),
                                  (0.0, 1.0, 0.5, math.inf)])
def test_count_complex_refuses_non_finite_rect_sides(rect):
    # refused before the contour, which would evaluate at a nan z
    spec = extensions.extension(models.half_line(Q0), 2j)
    with pytest.raises(ContractError, match=r"^rectangle \("):
        extensions.count_complex_eigenvalues(spec, rect)


def test_count_complex_boundary_zero_error():
    # the zero is the corner 1+0.5i, the right end of the walk's 16th segment:
    # the error names that sample, not the segment's left end 0.9375+0.5i
    lin = models.callable_model(lambda z: Matrix.scalar(z), 1, ess_floor=-math.inf)
    spec = extensions.ExtensionSpec(lin, Matrix.scalar(1.0 + 0.5j))
    with pytest.raises(BoundaryZeroError, match=r"^det\(M\(z\)-B\) ~ 0 at contour point \(1\+0\.5j\);"):
        extensions.count_complex_eigenvalues(spec, (0.0, 1.0, 0.5, 1.5))


def test_count_complex_real_model_no_interior_zero():
    hl = models.half_line(Q0)
    spec = extensions.extension(hl, 2j)
    rep = extensions.count_complex_eigenvalues(spec, (3.0, 5.0, 0.5, 2.0))
    assert rep.count == 0


_WELL = models.half_line(PotentialSpec.square_well(-3.0, 0.7))
_INTERVAL = models.finite_interval(Q0, 2.0)


@pytest.mark.parametrize("model, b, rect", [
    (_INTERVAL, Matrix.diag([-0.5j, 0.0]), (-5.0, 60.0, 0.01, 2.0)),
    (_INTERVAL, Matrix.diag([-0.5j, 0.0]), (-5.0, 60.0, 0.3, 2.0)),
    (_INTERVAL, Matrix.diag([-0.5j, 0.0]), (0.0, 20.0, 0.1, 1.0)),
    (_WELL, Matrix.scalar(-2j), (-5.0, 5.0, 0.1, 3.0)),
    (_WELL, Matrix.scalar(-2j), (-10.0, 20.0, 0.3, 2.0)),
], ids=["interval-wide", "interval-raised", "interval-small", "well-small", "well-wide"])
def test_count_complex_dissipative_b_has_no_upper_eigenvalue(model, b, rect):
    # Green's identity: A_B f = z f gives Im z ||f||^2 = <Im B Gamma_0 f, Gamma_0 f>,
    # so Im B <= 0 leaves no eigenvalue in the open upper half-plane
    rep = extensions.count_complex_eigenvalues(extensions.ExtensionSpec(model, b), rect)
    assert rep.count == 0


@pytest.mark.parametrize("model, b, rect, count, samples, min_abs", [
    (_INTERVAL, Matrix.diag([-0.5j, 0.0]), (-5.0, 60.0, 0.01, 2.0), 0, 94, 0.24726272396511723),
    (_INTERVAL, Matrix.diag([-0.5j, 0.0]), (-5.0, 60.0, 0.3, 2.0), 0, 73, 0.5621288544918067),
    (_INTERVAL, Matrix.diag([-0.5j, 0.0]), (0.0, 20.0, 0.1, 1.0), 0, 73, 0.3524640715664323),
    (_INTERVAL, Matrix.diag([0.5j, 0.0]), (0.0, 20.0, 0.1, 1.0), 3, 88, 0.08181010762396454),
    (models.sector(0.75), Matrix.scalar(-0.3 + 0.8j), (-3.0, 3.0, 0.1, 3.0), 1, 67, 0.6065789986273189),
    (models.operator_potential_halfline([2, 5]), Matrix.diag([0.4 + 0.5j, 1.2 + 0.3j]), (-3.0, 3.0, 0.1, 3.0),
     2, 67, 0.31567129104900327),
], ids=["interval-wide", "interval-raised", "interval-small", "interval-small-up", "sector", "operator"])
def test_count_complex_refinement_is_pinned(model, b, rect, count, samples, min_abs):
    # the 65 first samples and every halved segment: the walk's order and rule decide samples
    rep = extensions.count_complex_eigenvalues(extensions.ExtensionSpec(model, b), rect)
    assert (rep.count, rep.samples) == (count, samples)
    assert rep.min_boundary_abs == pytest.approx(min_abs, rel=1e-12, abs=0.0)


def test_count_complex_non_finite_sample_is_a_range_error():
    # M(z) = 1e600 z overflows on the whole contour: the first sample is refused, before any phase
    big = models.callable_model(lambda z: Matrix.scalar(1e300 * z * 1e300), 1, ess_floor=-math.inf)
    with pytest.raises(RangeError, match=r"^det\(M\(z\)-B\) is not finite at contour point 0\.5j$"):
        extensions.count_complex_eigenvalues(extensions.ExtensionSpec(big, Matrix.scalar(0.0)), (0.0, 1.0, 0.5, 1.5))


def test_count_complex_unresolved_phase_jump_exhausts_the_budget():
    # near 1e6 a halved segment stops shrinking one float apart, above 1e-12, so a
    # sign jump is halved until the 20000 samples are spent, which ends in a typed error
    jump = models.callable_model(lambda z: Matrix.scalar(1.0 if z.real < 1e6 + 0.3 else -1.0), 1,
                                 ess_floor=-math.inf)
    with pytest.raises(ArgumentPrincipleError, match="budget exhausted"):
        extensions.count_complex_eigenvalues(extensions.ExtensionSpec(jump, Matrix.scalar(0.0)),
                                             (1e6, 1e6 + 1.0, 0.5, 1.5))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the winding undercounts; it reports 3")
def test_count_complex_interval_all_five_eigenvalues():
    # k sin 2k = 0.5i cos 2k, z = k^2: 0.079+0.228i, 2.497+0.511i, 9.876+0.504i,
    # 22.209+0.502i and 39.480+0.501i lie in the rectangle
    spec = extensions.ExtensionSpec(_INTERVAL, Matrix.diag([0.5j, 0.0]))
    assert extensions.count_complex_eigenvalues(spec, (-5.0, 60.0, 0.01, 2.0)).count == 5


def test_negative_count_with_a_dirichlet_bound_state():
    # N_0(0) = 1 and M(0) = -1.103, so B = 0 adds none: one eigenvalue below 0
    deep = models.half_line(PotentialSpec.square_well(-5.0, 1.2))
    assert extensions.negative_count(extensions.extension(deep, 0.0)) == (1, 1)


def test_negative_count_dissipative_rejected():
    hl = models.half_line(Q0)
    with pytest.raises(ContractError):
        extensions.negative_count(extensions.extension(hl, 1j))


def test_krein_extension_nonnegative():
    hl = models.half_line(Q0)
    kr = extensions.krein_extension(hl)
    k_m, k_o = extensions.negative_count(kr)
    assert k_m == 0 and k_o == 0


def test_oracle_zero_cut_count_only_where_rounding_cannot_decide_it():
    # on b = 1e-8, 1/dx^2 is about 4e22, so the Sturm count at -ORACLE_ZERO_CUT
    # is rounding noise (it read 1; the lowest Neumann eigenvalue is exactly 0)
    cut = extensions.ORACLE_ZERO_CUT
    short = extensions.extension(models.finite_interval(Q0, 1e-8), Matrix.diag([0.0, 0.0]))
    (op,) = extensions._oracle_operators(short)
    assert 8.0 * sys.float_info.epsilon * op.norm >= cut / 2.0
    assert extensions.negative_count(short) == (0, None)
    # on b = 2 the bound is about 8.5e-9, and the count stands: one eigenvalue
    # below 0 for each negative Robin value
    for h, want in (((0.0, 0.0), 0), ((-1.0, 0.0), 1), ((-1.0, -2.0), 2)):
        spec = extensions.extension(models.finite_interval(Q0, 2.0), Matrix.diag(h))
        (op,) = extensions._oracle_operators(spec)
        assert 8.0 * sys.float_info.epsilon * op.norm < 1e-8
        assert extensions.negative_count(spec) == (want, want)


def test_rank_law_spectral_point_error():
    hl = models.half_line(Q0)
    s1 = extensions.extension(hl, -1.0)
    s2 = extensions.extension(hl, 1.0)
    with pytest.raises(SpectralPointError):
        # zeta = eigenvalue of B2 = 1: (B2 - zeta) singular
        extensions.resolvent_rank_law(s1, s2, 1j, 1.0)


def test_rank_law_with_a_dirichlet_h_family_member():
    # B = -h is y(0) = 0, whose oracle grid drops a node: the oracle rank is skipped
    hl = models.half_line(Q0, h=-2.0)
    rep = extensions.resolvent_rank_law(extensions.extension(hl, 2.0), extensions.extension(hl, 1.0),
                                        0.7 + 1.3j, 0.4 + 2.2j)
    assert rep.agree and rep.rank_difference == 1 and rep.rank_oracle is None


def test_rank_law_requires_shared_model():
    s1 = extensions.extension(models.half_line(Q0), -1.0)
    s2 = extensions.extension(models.sector(0.75), -1.0)
    with pytest.raises(ContractError):
        extensions.resolvent_rank_law(s1, s2, 1j, 2j)


def test_scan_sign_changes_quadratic_touch_missed():
    # documented limitation: even-order zeros without sign change are not
    # bracketed (unless a grid point lands on them exactly)
    roots = extensions.scan_sign_changes(lambda x: (x - 0.9876) ** 2, 0.0, 2.0, 64)
    assert roots == []
    roots = extensions.scan_sign_changes(lambda x: x - 0.9876, 0.0, 2.0, 64)
    assert len(roots) == 1 and abs(roots[0] - 0.9876) < 1e-9


def test_spectrum_report_oracle_delta_shape():
    hl = models.half_line(Q0)
    rep = extensions.point_spectrum_real(
        extensions.extension(hl, -2.0), (-6.0, -0.1), compare_oracle=True
    )
    assert rep.oracle_delta is not None and len(rep.oracle_delta) == len(rep.eigenvalues)


def test_oracle_delta_omitted_past_the_bisection_cap(monkeypatch):
    # Neumann on [0, 2]: eigenvalues (k pi / 2)^2 = 0, 2.47, 9.87, 22.21, ...
    spec = extensions.ExtensionSpec(models.finite_interval(Q0, 2.0), Matrix.diag([0.0, 0.0]))
    monkeypatch.setattr(oracle, "MAX_EIGENVALUES", 3)
    rep = extensions.point_spectrum_real(spec, (-1.0, 15.0), compare_oracle=True)
    assert len(rep.eigenvalues) == 3  # as many as the cap: every one is compared
    assert rep.oracle_delta is not None and max(rep.oracle_delta) < 1e-3
    rep = extensions.point_spectrum_real(spec, (-1.0, 30.0), compare_oracle=True)
    assert len(rep.eigenvalues) == 4 and rep.oracle_delta is None


def test_scan_count_jumps_splits_close_and_multiple_roots():
    # two jumps 0.01 apart inside one grid step of 0.03, and a double jump
    def count(x):
        return (x > 0.505) + (x > 0.515) + 2 * (x > 1.3)

    roots = extensions.scan_count_jumps(count, 0.0, 2.0, 64)
    assert [k for _x, k in roots] == [1, 1, 2]
    assert all(abs(x - r) < 1e-9 for (x, _k), r in zip(roots, (0.505, 0.515, 1.3)))


@pytest.mark.parametrize("steps", [1, 128])
@pytest.mark.parametrize("lo, hi", [(-1e6, -1e-12), (-4.0, -0.3)])
def test_scan_counts_at_the_window_ends(lo, hi, steps):
    # lo + (hi - lo) * steps / steps is 0.0 for the first window, the floor
    # that point_spectrum_real refuses as a window top
    counted = []

    def count(x):
        counted.append(x)
        return x > -1.0

    extensions.scan_count_jumps(count, lo, hi, steps)
    assert min(counted) == lo and max(counted) == hi
    assert len(counted) > steps


def _op_potential_eig(a, b):
    # a - sqrt(a) sqrt(a - 1 - x) = b
    return a - 1.0 - ((a - b) / math.sqrt(a)) ** 2


def test_point_spectrum_double_eigenvalue():
    # equal channels: det(M - B) touches zero without a sign change
    model = models.operator_potential_halfline([2.0, 2.0])
    rep = extensions.point_spectrum_real(
        extensions.extension(model, Matrix.diag([0.45, 0.45])), (-5.0, 0.9)
    )
    assert len(rep.eigenvalues) == 1
    x, mult = rep.eigenvalues[0]
    assert mult == 2 and abs(x - _op_potential_eig(2.0, 0.45)) < 1e-8


def test_negative_count_threshold_resonant_well():
    # the Dirichlet reference has an eigenvalue near -2.6e-4 whose decay
    # length (~62) exceeds the oracle box: a count of 0 would be silently wrong
    hl = models.half_line(PotentialSpec.square_well(-2.5, 1.0))
    assert extensions.negative_count(extensions.extension(hl, -0.8)) == (1, 1)


def test_negative_count_next_to_threshold_state():
    # M(0) = k tan k = 282.09, so B - M(0) = -5 has one negative eigenvalue; the
    # eigenvalue of A_B sits near -1.5e-8, above the oracle's cut, so only the
    # M-route sees it
    hl = models.half_line(PotentialSpec.square_well(-2.45, 1.0))
    k_m, _k_o = extensions.negative_count(extensions.extension(hl, 277.09))
    assert k_m == 1


@pytest.mark.parametrize("depth,width", [(-2.0, 1.0), (-1.0, 1.2)])
def test_negative_count_wells_without_dirichlet_states(depth, width):
    hl = models.half_line(PotentialSpec.square_well(depth, width))
    m0 = models.m_at_zero(hl).value.at(0, 0).real
    for b in (m0 - 1.0, m0 + 1.0):
        k_m, k_o = extensions.negative_count(extensions.extension(hl, b))
        assert k_m == k_o == (1 if b < m0 else 0)


def test_negative_count_expression_tail_above_zero():
    # M(0) = -0.2308: B = 0 gives no negative eigenvalue, B = -0.5 gives one
    hl = models.half_line(PotentialSpec.expression("0.5 - exp(-x)"))
    for b, count in ((0.0, 0), (-0.5, 1)):
        k_m, k_o = extensions.negative_count(extensions.extension(hl, b))
        assert k_m == k_o == count, b


def test_negative_count_refuses_an_undecided_sign(monkeypatch):
    # M(0) = J1(2)/J0(2) = 2.5759 here, so B - M(0) = -0.58 for B = 2: one
    # negative eigenvalue on both routes
    hl = models.half_line(PotentialSpec.expression("-exp(-x)"))
    assert extensions.negative_count(extensions.extension(hl, 2.0)) == (1, 1)
    # an M(0) of 2.27 +- 0.5 puts B - M(0) = -0.27 inside 3 est_error: its
    # sign, and with it the count, is not known
    uncertain = models.MZeroResult(Matrix.scalar(2.27), "threshold", 0.5)
    monkeypatch.setattr(extensions, "m_at_zero", lambda model: uncertain)
    with pytest.raises(AccuracyError):
        extensions.negative_count(extensions.extension(hl, 2.0))
    # B = M(0) (the Krein extension) is an exact zero, counted as no negative eigenvalue
    assert extensions.negative_count(extensions.krein_extension(hl))[0] == 0


@settings(max_examples=30, deadline=None)
@given(depth=st.floats(-3.0, 1.0), width=st.floats(0.3, 2.0), h=st.floats(-3.0, 3.0))
def test_negative_count_routes_agree(depth, width, h):
    # three routes to one integer: the inertia of B - M(0), the eigenvalues the
    # real scan finds below 0, and the oracle's Sturm count
    # the well kept off the thresholds where a Dirichlet state appears
    if depth < 0.0:
        assume(all(abs(math.sqrt(-depth) * width - (k + 0.5) * math.pi) >= 0.2 for k in range(3)))
    hl = models.half_line(PotentialSpec.square_well(depth, width))
    # m increases on (-inf, 0) with no pole there, so A_h has an eigenvalue in
    # (-0.02, 0) exactly when m(-0.02) < h < M(0): keep h clear of that band
    m0 = models.m_at_zero(hl).value.at(0, 0).real
    m_edge = models.evaluate(hl, -0.02)[0].real
    assume(not m_edge - 0.05 < h < m0 + 0.05)
    spec = extensions.extension(hl, h)
    k_m, k_o = extensions.negative_count(spec)
    # the form bound A_h >= min q - h^2 puts every eigenvalue above lo
    lo = min(depth, 0.0) - h * h - 1.0
    rep = extensions.point_spectrum_real(spec, (lo, -0.01))
    assert k_m == sum(mult for _x, mult in rep.eigenvalues) == k_o
