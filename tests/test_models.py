import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl import models, slsolve, verify
from weyl.errors import AccuracyError, DomainError, EvalError, RangeError, TransversalityError
from weyl.linalg import Matrix, herm_part, imag_part, inertia, lambda_min
from weyl.slsolve import PotentialSpec, halfline_m

Q0 = PotentialSpec.zero()


def test_sector_constant_value():
    # C_beta = exp(-i beta pi) 4^-beta Gamma(1-beta)/Gamma(1+beta) at beta=3/4
    c = models.sector_constant(0.75)
    assert abs(c - complex(-0.9862250397, -0.9862250397)) < 1e-9


def test_sector_evaluate_is_herglotz_signed_constant():
    # the Green-identity-consistent evaluation carries the opposite sign of
    # the bare constant: M(1) = -C_beta (boundary value from above the cut)
    sec = models.sector(0.75)
    v = sec.M(1.0 + 0j).at(0, 0)
    assert abs(v + models.sector_constant(0.75)) < 1e-12


def test_operator_potential_at_zero():
    op = models.operator_potential_halfline([2.0])
    v = models.evaluate(op, 0.0).at(0, 0)
    assert abs(v - math.sqrt(2) * (math.sqrt(2) - 1.0)) < 1e-14


# mpmath at 50 digits: sqrt(a) (sqrt(a) - sqrt(a - 1 - z)) at z = -0.5, 0 and 1 + 1j,
# which is also the strip's diagonal entry there (width pi: coth(w kappa) = 1 to
# double precision); the old closed form cancelled to 0j at a = 1e16
LARGE_A = {
    1e10: (0.250000000003125, 0.5000000000125, 1.0000000000375 + 0.50000000005000000001j),
    1e12: (0.25000000000003125, 0.500000000000125, 1.000000000000375 + 0.5000000000005j),
    1e16: (0.25000000000000000312, 0.5000000000000000125,
           1.0000000000000000375 + 0.50000000000000005j),
}


@pytest.mark.parametrize("a", sorted(LARGE_A))
def test_closed_forms_do_not_cancel_at_a_large_a(a):
    at_half, at_zero, at_complex = LARGE_A[a]
    op = models.operator_potential_halfline([a])
    st = models.strip([a])
    got = [
        (models.evaluate(op, -0.5).at(0, 0), at_half),
        (models.evaluate(op, 0.0).at(0, 0), at_zero),
        (models.m_at_zero(op).value.at(0, 0), at_zero),
        (models.evaluate(op, 1 + 1j).at(0, 0), at_complex),
        (models.evaluate(st, -0.5).at(0, 0), at_half),
        (models.m_at_zero(st).value.at(1, 1), at_zero),
        (models.evaluate(st, 1 + 1j).at(0, 0), at_complex),
    ]
    for v, want in got:
        assert abs(v - want) <= 1e-15 * abs(want), (v, want)


def test_corner_limit_minus_one():
    co = models.corner(0.75)
    vals = [models.evaluate(co, -(2.0**-k)).at(0, 0) for k in range(4, 14)]
    assert abs(vals[-1] + 1.0) < 1e-3
    r = models.m_at_zero(co)
    assert r.method == "closed_form" and r.value.at(0, 0) == -1.0 and r.est_error == 0.0


def test_corner_range_guard():
    with pytest.raises(RangeError):
        models.evaluate(models.corner(0.75), -2000.0)


@pytest.mark.parametrize("model", [models.corner(0.75), models.multi_corner([0.6, 0.85])])
@pytest.mark.parametrize("z", [1500 + 3j, 400 + 5j])
def test_corner_refuses_where_the_series_cancels(model, z):
    # near the positive axis the series terms reach about e^|s| while J stays O(1);
    # at 1500+3i the unguarded quotient was 143.56+7.71i against -78.89+25.47i
    with pytest.raises(AccuracyError):
        models.evaluate(model, z)


@pytest.mark.parametrize("z, expected, rtol", [
    # mpmath at 40 digits
    (100 + 10j, 6.510717408291045 + 59.099186267507235j, 1e-11),
    (150 + 1j, 92.3542942848276 + 4.615197915832667j, 1e-10),
    (-1500, -336.1703969507669, 1e-13),
])
def test_corner_answers_within_its_estimate(z, expected, rtol):
    v = models.evaluate(models.corner(0.75), z).at(0, 0)
    assert abs(v - expected) <= rtol * abs(expected)


@pytest.mark.parametrize("beta, z, expected", [
    # mpmath at 40 digits of -Gamma(1-b) J_{-b}(s) (s/2)^(2b) / (Gamma(1+b) J_b(s)), s = sqrt z
    (0.6, 3 + 4j, -0.094862911740670974 + 2.4383175008582162j),
    (0.6, -5 + 2j, -2.939615304133933 + 0.63267712341250719j),
    (0.6, -7 - 6j, -3.7288693103596809 - 1.6631282980459578j),
    (0.6, 2 - 9j, -1.801061581128849 - 3.6904559558511574j),
    (0.6, -12, -4.8083982150363583),
    (0.6, 11.5 + 1j, -14.024253936861161 + 18.808196693481808j),
    (0.6, -0.25 + 0.5j, -1.1215037749728164 + 0.22808806393244376j),
    (0.6, 0.5 - 12j, -2.6770893402078265 - 4.0145329954745859j),
    (0.75, 3 + 4j, 1.0473281246830024 + 4.1096672480992037j),
    (0.75, -5 + 2j, -4.7997518407969886 + 1.3377981945228063j),
    (0.75, -7 - 6j, -6.3596175499091727 - 3.7012426943256807j),
    (0.75, 2 - 9j, -1.4409141629010503 - 7.2633202076358499j),
    (0.75, -12, -9.0061379610459795),
    (0.75, 11.5 + 1j, 23.457129830138916 + 31.547842445962035j),
    (0.75, -0.25 + 0.5j, -1.2193518341233451 + 0.42128475426312885j),
    (0.75, 0.5 - 12j, -3.0980606489073848 - 8.4891373105202167j),
    (0.9, 3 + 4j, 5.5614574266064068 + 10.274485669786717j),
    (0.9, -5 + 2j, -12.266476668014372 + 4.2796048141497502j),
    (0.9, -7 - 6j, -16.851431649109281 - 12.435164337125512j),
    (0.9, 2 - 9j, 1.1465564271575486 - 20.993925383043526j),
    (0.9, -12, -26.606760743448404),
    (0.9, 11.5 + 1j, 44.317337529560932 + 14.436951240637664j),
    (0.9, -0.25 + 0.5j, -1.5979782756090941 + 1.1758549345311627j),
    (0.9, 0.5 - 12j, -3.0449683376698377 - 26.493213942319847j),
])
def test_corner_pinned_in_the_series_range(beta, z, expected):
    v = models.evaluate(models.corner(beta), z).at(0, 0)
    assert abs(v - expected) <= 1e-13 * abs(expected)


CLOSED_FORM = {
    "corner": models.corner(0.7),
    "multi_corner": models.multi_corner([0.6, 0.85]),
    "sector": models.sector(0.75),
    "strip": models.strip([2.0, 4.0], 3.0),
    "operator_potential_halfline": models.operator_potential_halfline([2.0, 5.0]),
}


@pytest.mark.parametrize("kind", sorted(CLOSED_FORM))
def test_closed_form_entries_are_complex(kind):
    model = CLOSED_FORM[kind]
    # a complex z, and a real z below the floor, as a float and as a complex
    points = [0.5 + 1j, -2.0 + 0.25j, model.ess_floor - 0.5, complex(model.ess_floor - 0.5)]
    if kind == "strip":
        # |w kappa| < 1e-5, kappa^2 = a - 1 - z: the series branch of _strip_pair
        points += [1.0 - 1e-12, 1.0 + 1e-12j]
    for z in points:
        m = models.evaluate(model, z)
        assert (m.rows, m.cols) == (model.n, model.n) and len(m.data) == model.n ** 2
        assert all(type(v) is complex for v in m.data), (kind, z)


# the exact repr of every entry: the corner series uses only + - * / (the
# guards do not touch the value), so these bits hold on any IEEE-754 platform
CORNER_REPRS = {
    0.5 + 1j: (["(-0.6805591894698123+0.7130583659043596j)"],
               ["(-0.7873411406203705+0.49285240715244244j)", "0j", "0j",
                "(-0.2609770053351107+1.5624910697554488j)"]),
    -2 + 0.25j: (["(-2.277920344318172+0.14918094962658204j)"],
                 ["(-1.8531661055125552+0.0973749787964764j)", "0j", "0j",
                  "(-3.9521929461623215+0.35640176559965686j)"]),
    -3.0: (["(-2.856560343529906+0j)"],
           ["(-2.2271105989850186+0j)", "0j", "0j", "(-5.3555756028966925+0j)"]),
    30 - 4j: (["(12.39966558860663-5.892904147463724j)"],
              ["(7.025307365839002-4.557479264282237j)", "0j", "0j",
               "(35.82584004968494-10.259227384750277j)"]),
}


@pytest.mark.parametrize("z", list(CORNER_REPRS))
def test_corner_entries_pinned_bit_for_bit(z):
    corner, multi = CORNER_REPRS[z]
    assert [repr(v) for v in models.evaluate(CLOSED_FORM["corner"], z).data] == corner
    assert [repr(v) for v in models.evaluate(CLOSED_FORM["multi_corner"], z).data] == multi


def test_evaluate_domain_guard():
    with pytest.raises(DomainError):
        models.evaluate(models.half_line(Q0), 1.0)
    with pytest.raises(DomainError):
        models.evaluate(models.sector(0.75), 2.0)
    # finite interval admits real z off the Dirichlet set
    m = models.evaluate(models.finite_interval(Q0, math.pi), 0.5)
    assert m.rows == 2


def test_m_at_zero_methods():
    assert models.m_at_zero(models.sector(0.6)).method == "closed_form"
    assert models.m_at_zero(models.operator_potential_halfline([2, 5])).method == "closed_form"
    assert models.m_at_zero(models.strip([2, 5])).method == "closed_form"
    assert models.m_at_zero(models.half_line(Q0)).method == "tail_matched"
    assert models.m_at_zero(models.half_line(PotentialSpec.expression("-exp(-x)"))).method == "threshold"
    # a truncation error that underflows to 0 is still a truncation
    assert models.m_at_zero(models.half_line(PotentialSpec.expression("1000 + exp(-x)"))).method == "truncated"
    assert models.m_at_zero(models.corner(0.8)).method == "closed_form"
    assert models.m_at_zero(models.finite_interval(Q0, 2.0)).method == "propagated"


def test_every_model_kind_has_its_own_m_at_zero():
    kinds = [cls for cls in models.WeylModel.__subclasses__() if cls is not models.CallableModel]
    assert len(kinds) == 7
    for cls in kinds:
        assert "m_at_zero" in vars(cls), cls.__name__
    with pytest.raises(NotImplementedError):
        models.m_at_zero(models.callable_model(lambda z: Matrix.scalar(z), 1))


@pytest.mark.parametrize("b", [1.3, 2.0])
def test_m_at_zero_interval_free(b):
    # q = 0 on [0, b]: u1 = 1, u2 = x at z = 0, so M(0) = [[-1, 1], [1, -1]] / b
    r = models.m_at_zero(models.finite_interval(Q0, b))
    want = Matrix.from_rows([[-1.0 / b, 1.0 / b], [1.0 / b, -1.0 / b]])
    assert (r.value - want).norm_max() < 1e-14
    assert r.est_error < 1e-10


def test_m_at_zero_interval_dirichlet_eigenvalue_is_transversality_error():
    # q = -1 on [0, pi]: sin x is a Dirichlet eigenfunction at 0
    q = PotentialSpec.table([0.0, math.pi], [-1.0, -1.0])
    with pytest.raises(TransversalityError):
        models.m_at_zero(models.finite_interval(q, math.pi))


def test_m_at_zero_halfline_zero():
    r = models.m_at_zero(models.half_line(Q0))
    assert abs(r.value.at(0, 0)) < 1e-12


def test_m_at_zero_well_tan_formula():
    d, w = 1.0, 1.2
    r = models.m_at_zero(models.half_line(PotentialSpec.square_well(-d, w)))
    ref = math.sqrt(d) * math.tan(math.sqrt(d) * w)
    assert abs(r.value.at(0, 0) - ref) < 1e-6


def test_m_at_zero_constant_nonzero_tail():
    # M at 0, not at the floor 0.5, where it is about 0
    r = models.m_at_zero(models.half_line(PotentialSpec.table([0.0, 1.0], [0.5, 0.5])))
    assert r.method == "tail_matched"
    assert abs(r.value.at(0, 0) + math.sqrt(0.5)) < 1e-12


@pytest.mark.parametrize("h", [None, 2.0])
def test_m_at_zero_expression_tail_above_zero(h):
    # 0 lies below the floor 0.5: M(0) is the truncated m at z = 0, not M(floor)
    q = PotentialSpec.expression("0.5 - exp(-x)")
    r = models.m_at_zero(models.half_line(q, h))
    assert r.method == "truncated"
    m = halfline_m(q, 0.0, rtol=1e-12)
    ref = (m if h is None else models.h_map(m, h)).real
    assert abs(r.value.at(0, 0) - ref) < 1e-10 and r.est_error < 1e-10
    assert abs(r.value.at(0, 0) - ref) <= r.est_error
    m_inf = -0.2308023113
    assert abs(halfline_m(q, 0.0).real - m_inf) < 1e-9
    r = models.m_at_zero(models.half_line(PotentialSpec.expression("0.5 + 0*x")))
    assert abs(r.value.at(0, 0) + math.sqrt(0.5)) < 1e-10


def test_m_at_zero_threshold_exp_well():
    # -exp(-x): the bounded solution at z = 0 is J0(2 exp(-x/2)), so M(0) = J1(2)/J0(2)
    r = models.m_at_zero(models.half_line(PotentialSpec.expression("-exp(-x)")))
    exact = 2.575920321368222
    assert r.method == "threshold"
    assert abs(r.value.at(0, 0) - exact) < 1e-12 * exact
    assert abs(r.value.at(0, 0) - exact) <= r.est_error


@pytest.mark.parametrize(
    "h, mapped, expected",
    [(0.3, 0.29900880459021795, 0.2990088045901919), (2.0, 14.590748723052867, 14.590748723053132)],
)
def test_m_at_zero_threshold_maps_h_once(h, mapped, expected):
    # a tail of exactly 0 takes the threshold route, which gives
    # M_inf(0) = sqrt(1.5) J1(c)/J0(c), c = 1.4 sqrt(1.5); the h family maps it once
    q = PotentialSpec.expression("-1.5*exp(-x/0.7)")
    base = models.m_at_zero(models.half_line(q))
    m = base.value.at(0, 0).real
    assert base.method == "threshold" and abs(m - 1.8191763343488256) < 1e-12
    r = models.m_at_zero(models.half_line(q, h))
    assert r.method == "threshold"
    assert abs(r.value.at(0, 0) - (1.0 - h * m) / (m - h)) < 1e-12
    assert abs(r.value.at(0, 0) - mapped) < 1e-12  # the route's own output, pinned
    # expected is the map of the exact M_inf(0); the map multiplies the error
    # of m by |1 - h^2| / (m - h)^2 (92 at h = 2), so this bound is relative
    assert abs(r.value.at(0, 0) - expected) < 1e-12 * abs(expected)
    assert abs(r.value.at(0, 0) - expected) <= r.est_error
    assert r.est_error == pytest.approx(base.est_error * abs(1.0 - h * h) / (m - h) ** 2, rel=1e-12)


@pytest.mark.parametrize("source", ["0.5 - exp(-x)", "-exp(-x)", None])
def test_m_at_zero_direct_zero_y0_is_transversality_error(monkeypatch, source):
    # y(0; 0) = 0 is one condition whether the tail is truncated, seeded at the threshold or matched
    q = PotentialSpec.table([0.0, 1.0], [0.5, 0.5]) if source is None else PotentialSpec.expression(source)
    monkeypatch.setattr(slsolve, "_endpoint", lambda *args: (0j, 1.0 + 0j, 0))
    with pytest.raises(TransversalityError, match="unbounded"):
        models.m_at_zero(models.half_line(q))


def test_m_at_zero_h_at_m_inf_is_transversality_error():
    # M_inf(0) = 0 for q = 0, so h = 0 is the pole of the family at 0
    with pytest.raises(TransversalityError, match="pole of the h-triplet family"):
        models.m_at_zero(models.half_line(Q0, 0.0))


def test_m_at_zero_expression_tail_too_small_to_truncate():
    # a floor of 1e-6 needs L far beyond the cap: an error, not M(floor)
    with pytest.raises(AccuracyError):
        models.m_at_zero(models.half_line(PotentialSpec.expression("1e-6 - exp(-x)")))


def test_m_at_zero_refuses_floor_below_zero():
    with pytest.raises(DomainError):
        models.m_at_zero(models.half_line(PotentialSpec.table([0.0, 1.0], [-0.5, -0.5])))


@pytest.mark.parametrize("depth", [2.45, 2.46])
def test_m_at_zero_next_to_threshold_state(depth):
    # next to a threshold state: M(0) = k tan k is large, and its error must stay small
    r = models.m_at_zero(models.half_line(PotentialSpec.square_well(-depth, 1.0)))
    k = math.sqrt(depth)
    ref = k * math.tan(k)
    assert abs(r.value.at(0, 0) - ref) < 1e-9 * ref
    assert r.est_error < 1e-5 * ref


def test_strip_reduces_to_operator_potential_for_large_width():
    a = [2.0, 5.0]
    st = models.strip(a, width=60.0)
    op = models.operator_potential_halfline(a)
    z = -0.5 + 0.0j
    ms = models.evaluate(st, z)
    mo = models.evaluate(op, z)
    for i in range(2):
        assert abs(ms.at(i, i) - mo.at(i, i)) < 1e-10


def test_multi_corner_structure():
    mc = models.multi_corner([0.6, 0.85])
    z = 0.5 + 0.8j
    m = models.evaluate(mc, z)
    assert m.at(0, 1) == 0 and m.at(1, 0) == 0
    assert m.at(0, 0) == models.evaluate(models.corner(0.6), z).at(0, 0)
    assert m.at(1, 1) == models.evaluate(models.corner(0.85), z).at(0, 0)
    r = models.m_at_zero(mc)
    assert r.method == "closed_form" and r.value == Matrix.diag([-1.0, -1.0])


def test_radial_equals_halfline():
    q = PotentialSpec.square_well(-1.0, 1.2)
    rad = models.radial_schrodinger(q)
    hl = models.half_line(q)
    for z in (1j, -0.5 + 0.7j, 2 + 3j):
        d = (models.evaluate(rad, z) - models.evaluate(hl, z)).norm_fro()
        assert d <= 1e-12


def test_half_line_with_finite_h_triplet():
    h = 3.0
    model = models.half_line(Q0, h)
    z = -1.0 + 1.5j
    mi = models.evaluate(models.half_line(Q0), z).at(0, 0)
    mh = models.evaluate(model, z).at(0, 0)
    assert abs(mh * (mi - h) - (1.0 - h * mi)) < 1e-10
    # |h| > 1 members stay Herglotz
    assert mh.imag > 0


def test_classify_stieltjes_halfline_and_interval():
    grid = [-4.0 + 0.2 * k for k in range(19)]
    rep = models.classify_stieltjes(models.half_line(Q0), grid)
    assert rep.verdict == "consistent with (S-hat)"
    grid = [-4.0 + 0.39 * k for k in range(10)]
    rep = models.classify_stieltjes(models.finite_interval(Q0, math.pi), grid)
    assert rep.verdict == "consistent with (S-hat)"


def test_classify_stieltjes_counterexample_detection():
    # an anti-monotone stub must be reported with the offending pair
    stub = models.callable_model(lambda z: Matrix.scalar(z * z), 1, ess_floor=0.0)
    rep = models.classify_stieltjes(stub, [-2.0, -1.5, -1.0, -0.5])
    assert rep.verdict == "counterexample found"
    assert rep.counterexample is not None


def test_classify_stieltjes_grid_validation():
    with pytest.raises(DomainError):
        models.classify_stieltjes(models.half_line(Q0), [-1.0, -2.0])


def test_nevanlinna_gram_hermitian():
    hl = models.operator_potential_halfline([2.0, 5.0])
    rng = random.Random(3)
    zs = [complex(rng.uniform(-2, 2), rng.uniform(0.5, 3)) for _ in range(4)]
    hs = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in zs]
    g = models.nevanlinna_gram(hl, zs, hs)
    assert (g - g.adjoint()).norm_fro() < 1e-10 * max(1.0, g.norm_fro())
    assert lambda_min(g) >= -1e-10 * max(1.0, g.norm_fro())


def test_model_constructor_validation():
    with pytest.raises(EvalError):
        models.sector(0.4)
    with pytest.raises(EvalError):
        models.operator_potential_halfline([0.5])
    with pytest.raises(EvalError):
        models.strip([2.0], width=0.0)


# Every numeric constructor field, each inside an otherwise valid model: a nan
# entry would make M nan, and a well or a table node at inf would answer as q = 0.
_NUMERIC_FIELDS = {
    "square_well.depth": (lambda v: PotentialSpec.square_well(v, 1.0), "depth"),
    "square_well.width": (lambda v: PotentialSpec.square_well(-1.0, v), "width"),
    "table.nodes": (lambda v: PotentialSpec.table([0.0, v], [0.0, 1.0]), "nodes[1]"),
    "table.values": (lambda v: PotentialSpec.table([0.0, 1.0], [v, 1.0]), "values[0]"),
    "finite_interval.b": (lambda v: models.finite_interval(Q0, v), "b"),
    "half_line.h": (lambda v: models.half_line(Q0, h=v), "h"),
    "operator_potential_halfline.a_diag": (lambda v: models.operator_potential_halfline([v, 2.0]),
                                           "a_diag[0]"),
    "strip.a_diag": (lambda v: models.strip([2.0, v]), "a_diag[1]"),
    "strip.width": (lambda v: models.strip([2.0], v), "width"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(_NUMERIC_FIELDS))
def test_non_finite_parameter_is_refused(name, value):
    build, field = _NUMERIC_FIELDS[name]
    with pytest.raises(EvalError) as exc:
        build(value)
    assert (exc.value.field, exc.value.reason) == (field, "must be finite")


_CATALOG = verify.catalog()
# a closed-form M is nan at each of these
_NON_FINITE_Z = [complex(math.nan, 1.0), complex(1.0, math.nan), complex(math.inf, 1.0),
                 complex(1.0, math.inf), complex(math.nan, 0.0), complex(-math.inf, 0.0),
                 complex(math.inf, 0.0), complex(1.0, -math.inf)]


@pytest.mark.parametrize("z", _NON_FINITE_Z, ids=str)
@pytest.mark.parametrize("kind", sorted(_CATALOG))
def test_non_finite_z_is_one_range_error(kind, z):
    with pytest.raises(RangeError) as exc:
        models.evaluate(_CATALOG[kind], z)
    assert str(exc.value) == f"z={z} is not finite"


def test_strip_herglotz_near_floor():
    st = models.strip([1.0, 2.0])  # floor at 0, kappa^2 branch exercised
    for z in (0.3j, -0.5 + 0.4j, 1 + 1j):
        m = models.evaluate(st, z)
        assert lambda_min(imag_part(m)) >= -1e-9 * m.norm_fro()
    r = models.m_at_zero(st)
    assert r.method == "closed_form"


_WELL = PotentialSpec.square_well(-2.5, 1.0)


@pytest.mark.parametrize("model, b, want", [
    (models.half_line(_WELL), Matrix.scalar(-0.8), [(40.0, 4000, -0.8, None, 4000)]),
    # b = -h: the member's A_b is y(0) = 0
    (models.half_line(_WELL, 1.5), Matrix.scalar(-1.5), [(40.0, 3999, None, None, 4000)]),
    (models.finite_interval(_WELL, 2.0), Matrix.diag([0.3, -0.7]), [(2.0, 2001, 0.3, -0.7, 2000)]),
    (models.operator_potential_halfline([2.0, 5.0]), Matrix.diag([0.0, 1.0]),
     [(30.0, 12500, -math.sqrt(2.0), None, 12500),
      (16.0, 6666, 1.0 / math.sqrt(5.0) - math.sqrt(5.0), None, 6666)]),
], ids=["half_line", "h_family_dirichlet", "finite_interval", "operator_potential"])
def test_oracle_recipe_of_each_kind(model, b, want):
    got = [(op.L, op.size, op.left, op.right, round(op.L / op.dx)) for op in model.oracle_operators(b)]
    assert got == want


_ENTRY = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
_REAL = st.floats(-1e6, 1e6)


@pytest.mark.ci_property
@settings(deadline=None)
@given(st.tuples(_ENTRY, _ENTRY, _ENTRY, _ENTRY, st.integers(0, 5)), _REAL, _ENTRY, _REAL)
def test_interval_count_is_the_matrix_congruence(basis, b00, b01, b11):
    # eigen_count's entrywise arithmetic against Y0* (Y1 - B Y0) built with
    # Matrix operations, for any (u1(b), u1'(b), u2(b), u2'(b), dirichlet_count)
    u1b, u1pb, u2b, u2pb, dirichlet_count = basis
    b = Matrix.from_rows([[b00, b01], [b01.conjugate(), b11]])
    y0 = Matrix.from_rows([[1.0, 0.0], [u1b, u2b]])
    y1 = Matrix.from_rows([[0.0, 1.0], [-u1pb, -u2pb]])
    want = dirichlet_count + inertia(herm_part(y0.adjoint() @ (y1 - b @ y0)))[2]
    with mock.patch.object(models, "fundamental_system", lambda q, b, x: basis):
        assert models.finite_interval(Q0, 1.0).eigen_count(b, 0.5) == want
