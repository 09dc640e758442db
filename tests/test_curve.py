import json

import pytest

from partrans import load_config, point_class, validate_model
from partrans.errors import (
    ConfigError,
    DimensionMismatch,
    ModelError,
    UnknownAutomorphism,
    UnknownPoint,
)

from conftest import (
    build_model,
    model_cyclic3,
    model_elliptic2,
    model_involution,
    model_order4,
    model_worked6,
)


def doc(**over):
    base = {
        "genus": 1,
        "rank": 2,
        "degree": 0,
        "points": [
            {"name": "p", "jac": ["0", "0"]},
            {"name": "q", "jac": ["1/2", "0"]},
        ],
    }
    base.update(over)
    return json.dumps(base)


def test_load_happy_path():
    m = load_config(doc())
    assert m.genus == 1 and m.rank == 2 and m.degree_context == 0
    assert m.point_names == ("p", "q")
    assert m.identity_name == "id"
    c = point_class(m, "q")
    assert c.degree == 1
    assert str(c.jac.coords[0]) == "1/2"


def test_load_rejects_floats():
    with pytest.raises(ConfigError):
        load_config(doc(points=[{"name": "p", "jac": [0.5, 0]}]))


def test_load_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        load_config(json.dumps({"genus": 0, "rank": 2}))
    with pytest.raises(ConfigError):
        load_config(json.dumps({"genus": 1, "rank": 1}))
    with pytest.raises(DimensionMismatch):
        load_config(doc(points=[{"name": "p", "jac": ["0"]}]))
    with pytest.raises(ConfigError):
        load_config(doc(points=[{"name": "p", "jac": ["0", "0"]}, {"name": "p", "jac": ["0", "0"]}]))
    with pytest.raises(ConfigError):
        load_config(doc(points=[{"name": "not a name", "jac": ["0", "0"]}]))
    with pytest.raises(ConfigError):
        load_config("not json")
    with pytest.raises(ConfigError):
        load_config("[1, 2]")


def test_load_rejects_bad_automorphisms():
    idauto = {"name": "id", "perm": {}, "matrix": [[1, 0], [0, 1]], "translation": ["0", "0"]}
    with pytest.raises(ConfigError):
        load_config(doc(automorphisms=[idauto, {"name": "a", "perm": {"p": "p", "q": "p"}}]))
    with pytest.raises(ConfigError):
        load_config(doc(automorphisms=[idauto, {"name": "a", "matrix": [[2, 0], [0, 1]]}]))
    with pytest.raises(DimensionMismatch):
        load_config(doc(automorphisms=[idauto, {"name": "a", "matrix": [[1]]}]))
    with pytest.raises(ConfigError):
        load_config(doc(automorphisms=[idauto, {"name": "a", "perm": {"p": "zz"}}]))
    with pytest.raises(ConfigError):
        load_config(doc(endomorphisms="field"))


def test_implicit_identity_when_table_empty():
    m = load_config(doc(automorphisms=[]))
    assert [a.name for a in m.automorphisms] == ["id"]
    assert validate_model(m).ok


def test_unknown_lookups_raise():
    m = model_elliptic2()
    with pytest.raises(UnknownPoint):
        m.point("zz")
    with pytest.raises(UnknownAutomorphism):
        m.automorphism("zz")


def test_validate_accepts_fixture_models():
    for m in (
        model_elliptic2(),
        model_worked6(),
        model_involution(),
        model_cyclic3(),
        model_order4(),
    ):
        report = validate_model(m)
        assert report.ok, report.errors
    assert validate_model(model_worked6()).is_empty()


def test_validate_warns_small_genus():
    report = validate_model(model_elliptic2())
    assert any("genus 1" in w for w in report.warnings)


def test_validate_flags_unclosed_table():
    # iota without the identity present: table has no identity and iota*iota missing
    autos = [
        {
            "name": "iota",
            "perm": {"p": "q", "q": "p"},
            "matrix": [[-1, 0], [0, -1]],
            "translation": ["1/2", "0"],
        }
    ]
    m = load_config(doc(automorphisms=autos))
    report = validate_model(m)
    assert not report.ok
    assert any("no identity" in e for e in report.errors)
    assert any("not closed" in e for e in report.errors)


def test_missing_identity_raises_when_read():
    # loading succeeds; only reading the identity's name fails
    autos = [{"name": "iota", "perm": {"p": "q", "q": "p"}, "matrix": [[-1, 0], [0, -1]]}]
    m = load_config(doc(automorphisms=autos))
    with pytest.raises(ModelError, match="automorphism table has no identity entry"):
        m.identity_name


def test_validate_flags_pullback_mismatch():
    # iota's translation broken: classes no longer map to the permuted points
    autos = [
        {"name": "id", "perm": {}, "matrix": [[1, 0], [0, 1]], "translation": ["0", "0"]},
        {
            "name": "iota",
            "perm": {"p": "q", "q": "p"},
            "matrix": [[-1, 0], [0, -1]],
            "translation": ["0", "0"],
        },
    ]
    m = load_config(doc(automorphisms=autos))
    report = validate_model(m)
    assert any("pullback" in e for e in report.errors)


def test_compose_autos_cyclic_table():
    m = model_cyclic3()
    assert m.compose_autos("tau", "tau") == "tau2"
    assert m.compose_autos("tau", "tau2") == "id"
    assert m.compose_autos("id", "tau") == "tau"
    assert m.inverse_auto("tau") == "tau2"
    assert m.inverse_auto("id") == "id"


def test_compose_autos_matrix_table():
    m = model_order4()
    assert m.compose_autos("r1", "r1") == "r2"
    assert m.compose_autos("r1", "r3") == "id"
    assert m.compose_autos("r2", "r2") == "id"
    assert m.inverse_auto("r1") == "r3"


def test_no_points_model_loads():
    m = build_model(1, 3, [])
    assert m.point_names == ()
    assert validate_model(m).ok
