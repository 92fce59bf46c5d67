import re

import pytest

from weyl import verify
from weyl.errors import WeylError
from weyl.values import FrozenInstanceError


def test_suite_registry_size():
    # the CLI summary promises at least 12 suites
    assert len(verify.SUITES) >= 12
    assert set(name for _, name in verify.ACCEPTANCE_MAP) <= set(verify.SUITES)


def test_unknown_suite():
    with pytest.raises(WeylError):
        verify.run_suite("nope")


def test_suite_determinism():
    a = verify.run_suite("expression_parser", seed=3)
    b = verify.run_suite("expression_parser", seed=3)
    assert [x.label for x in a.assertions] == [x.label for x in b.assertions]
    assert [x.ok for x in a.assertions] == [x.ok for x in b.assertions]


def test_suite_result_json_shape():
    r = verify.run_suite("oracle_convergence", seed=1)
    j = r.to_json()
    assert j["suite"] == "oracle_convergence"
    assert isinstance(j["assertions"], list) and j["assertions"]
    assert all(set(a) == {"label", "ok", "detail"} for a in j["assertions"])


def test_nan_deviation_fails_its_bound(monkeypatch):
    # max(0.0, nan) is 0.0: a running maximum would pass a nan deviation
    monkeypatch.setattr(verify, "halfline_m", lambda *args, **kwargs: complex("nan"))
    assertions = [a for name in ("closed_form_halfline", "mh_relation")
                  for a in verify.run_suite(name).assertions]
    assert len(assertions) == 6
    assert all(a.ok is False and "nan" in a.detail for a in assertions)


def test_suite_result_is_frozen_and_hashable():
    r = verify.run_suite("expression_parser", seed=3)
    with pytest.raises(FrozenInstanceError):
        r.assertions = ()
    assert hash(r) == hash(verify.run_suite("expression_parser", seed=3))


def test_numeric_checks_print_their_number():
    details = {a.label: a.detail for name in ("resolvent_rank_law", "charfun_identities")
               for a in verify.run_suite(name, seed=7).assertions}
    for label in ("Krein resolvent formula vs oracle on a test vector",
                  "mismatched Cayley pair rejected (residual >> 1e-6)"):
        assert re.fullmatch(r"(relative )?residual \d\.\d{3}e[-+]\d\d", details[label]), details[label]


def test_no_assertion_has_an_empty_detail():
    # a failure shows its number, or why it failed
    empty = [(r.name, a.label) for r in verify.run_suites(list(verify.SUITES), seed=7)
             for a in r.assertions if not a.detail]
    assert empty == []
