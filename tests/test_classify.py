"""Descriptors, curve comparison, the degree bridge and decompositions."""

import json
import random
import time
from fractions import Fraction

import pytest

from partrans import (
    ConfigError,
    CurveAutomorphism,
    CurveModel,
    Divisor,
    EnumerationCapExceeded,
    JacobianElement,
    LineBundleClass,
    MarkedPoint,
    ModelError,
    ModuliDescriptor,
    NotGeneric,
    ShapeMismatch,
    UnknownPoint,
    WeightSystem,
    act_degree,
    act_weights,
    bridge_transformation,
    curves_isomorphic,
    describe,
    identity_transform,
    make_basic,
    torelli_3birational,
    verify_decomposition,
    weight_system_for,
)
from partrans.cli import run_command
from partrans.intmat import det_int
from conftest import build_model, model_worked6, rand_generic_weights


def descriptor(model, degree=0, weights=None):
    if weights is None:
        weights = weight_system_for(
            model, {"p": ["0", "1/3"], "q": ["0", "1/5"]}
        )
    return ModuliDescriptor(model, model.rank, degree, weights)


# -- weight plumbing -----------------------------------------------------


def test_weight_system_for_parses_and_orders(elliptic2):
    w = weight_system_for(elliptic2, {"q": ["0", "1/5"], "p": [0, Fraction(1, 3)]})
    assert w.point_names == ("p", "q")
    assert w.vector("p") == (0, Fraction(1, 3))
    assert w.vector("q") == (0, Fraction(1, 5))


def test_weight_system_for_accepts_weight_system(elliptic2):
    w = weight_system_for(elliptic2, {"p": ["0", "1/3"], "q": ["0", "1/5"]})
    assert weight_system_for(elliptic2, w) == w


def test_weight_system_for_point_mismatch(elliptic2):
    with pytest.raises(UnknownPoint):
        weight_system_for(elliptic2, {"p": ["0", "1/3"]})
    with pytest.raises(UnknownPoint):
        weight_system_for(
            elliptic2, {"p": ["0", "1/3"], "q": ["0", "1/5"], "z": ["0", "1/7"]}
        )


def test_descriptor_validation(elliptic2):
    w = weight_system_for(elliptic2, {"p": ["0", "1/3"], "q": ["0", "1/5"]})
    d = ModuliDescriptor(elliptic2, 2, 0, w)
    assert d.rank == 2 and d.degree == 0
    with pytest.raises(ShapeMismatch):
        ModuliDescriptor(elliptic2, 1, 0, w)
    with pytest.raises(ShapeMismatch):
        ModuliDescriptor(elliptic2, 3, 0, w)  # vectors have length 2
    wall = weight_system_for(elliptic2, {"p": ["0", "1/2"], "q": ["0", "1/2"]})
    with pytest.raises(NotGeneric):
        ModuliDescriptor(elliptic2, 2, 0, wall)
    lonely = WeightSystem({"p": (0, Fraction(1, 3))}, 2)
    with pytest.raises(ShapeMismatch):
        ModuliDescriptor(elliptic2, 2, 0, lonely)


# -- curve comparison ----------------------------------------------------


def test_curves_isomorphic_self_by_search(elliptic2):
    res = curves_isomorphic(elliptic2, elliptic2)
    assert res["isomorphic"] is True
    assert res["witness_source"] == "search"
    assert res["witness"]["points"] == {"p": "p", "q": "q"}


def test_witness_refuses_unknown_keys(elliptic2):
    """A witness record refuses a misspelt key, which would otherwise read
    as the zero translation; its points map takes any point name."""
    witness = {"points": {"p": "p", "q": "q"}, "tranlsation": ["1/2", "0"]}
    with pytest.raises(ConfigError) as err:
        curves_isomorphic(elliptic2, elliptic2, witness, loc=("w.json",))
    assert str(err.value) == "w.json: unknown key 'tranlsation'"
    with pytest.raises(ModelError, match="point map"):
        curves_isomorphic(elliptic2, elliptic2, {"points": {"p": "p", "zz": "q"}})


def test_curves_isomorphic_genus_mismatch(elliptic2, worked6):
    res = curves_isomorphic(elliptic2, worked6)
    assert res["isomorphic"] is False
    assert res["genus_equal"] is False


def test_curves_isomorphic_relabeled(elliptic2):
    other = build_model(1, 2, [("u", ["1/2", "0"]), ("v", ["0", "0"])])
    res = curves_isomorphic(elliptic2, other)
    assert res["isomorphic"] is True
    assert res["witness"]["points"] == {"p": "v", "q": "u"}
    supplied = curves_isomorphic(
        elliptic2, other, witness={"points": {"p": "v", "q": "u"}}
    )
    assert supplied["witness_source"] == "supplied"


def test_curves_isomorphic_translation_witness(elliptic2):
    shifted = build_model(1, 2, [("p", ["1/2", "0"]), ("q", ["0", "0"])])
    wit = {
        "points": {"p": "p", "q": "q"},
        "matrix": [[1, 0], [0, 1]],
        "translation": ["1/2", "0"],
    }
    res = curves_isomorphic(elliptic2, shifted, witness=wit)
    assert res["isomorphic"] is True


def test_curves_isomorphic_bad_witness(elliptic2):
    other = build_model(1, 2, [("u", ["1/2", "0"]), ("v", ["0", "0"])])
    with pytest.raises(ModelError, match="class map sends"):
        curves_isomorphic(elliptic2, other, witness={"points": {"p": "u", "q": "v"}})
    with pytest.raises(ModelError, match="not a bijection"):
        curves_isomorphic(elliptic2, other, witness={"points": {"p": "u", "q": "u"}})
    # a class map that is not unimodular is refused with its determinant
    for matrix, det in (
        ([[2, 0], [0, 1]], 2),
        ([[1, 2], [2, 4]], 0),
        ([[0, 2], [0, 3]], 0),  # a zero first column
        ([[0, 1], [2, 0]], -2),  # a zero first pivot
    ):
        with pytest.raises(ModelError) as err:
            curves_isomorphic(
                elliptic2,
                other,
                witness={"points": {"p": "v", "q": "u"}, "matrix": matrix},
            )
        assert str(err.value) == (
            f"invalid isomorphism witness: class-map matrix determinant is {det}, not +-1"
        )


def test_dense_witness_matrix_is_refused_fast(tmp_path, capsys):
    """A dense 40x40 class map that is not unimodular is refused on its
    Bareiss determinant, before the Euclid inverse, which takes minutes
    to reach its rejecting pivot as its unreduced entries grow."""
    rng = random.Random(40)
    matrix = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)]
    message = (f"invalid isomorphism witness: class-map matrix determinant is "
               f"{det_int(matrix)}, not +-1")
    model = build_model(20, 2, [])
    start = time.perf_counter()
    with pytest.raises(ModelError) as err:
        curves_isomorphic(model, model, {"points": {}, "matrix": matrix})
    assert time.perf_counter() - start < 0.5
    assert str(err.value) == message
    docs = {"m": {"genus": 20, "rank": 2, "points": []},
            "d": {"rank": 2, "degree": 0, "weights": {}},
            "w": {"points": {}, "matrix": matrix}}
    paths = {}
    for key, doc in docs.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    rc = run_command(["torelli", "--model", str(paths["m"]), "--desc-a", str(paths["d"]),
                      "--desc-b", str(paths["d"]), "--witness", str(paths["w"])])
    assert time.perf_counter() - start < 0.5
    cap = capsys.readouterr()
    assert (rc, cap.out) == (2, "")
    assert message in cap.err
    assert "Traceback" not in cap.err


def test_search_skips_a_table_map_that_is_not_unimodular():
    """The loader refuses such a table matrix, but a model built in code
    can carry one: the search passes over it, as over any refused map."""
    zero, half = JacobianElement.zero(2), JacobianElement([Fraction(1, 2), 0])
    autos = [CurveAutomorphism("id", {}, [[1, 0], [0, 1]], zero),
             CurveAutomorphism("bad", {}, [[2, 0], [0, 1]], zero)]
    a, b = (CurveModel(1, 2, 0, [MarkedPoint("p", x), MarkedPoint("q", y)], autos)
            for x, y in ((zero, half), (half, zero)))
    res = curves_isomorphic(a, b)
    assert res["isomorphic"] is True
    assert res["witness"]["points"] == {"p": "q", "q": "p"}
    assert res["witness"]["matrix"] == [[1, 0], [0, 1]]


def test_curves_isomorphic_search_miss(elliptic2):
    other = build_model(1, 2, [("u", ["0", "0"]), ("v", ["1/3", "0"])])
    res = curves_isomorphic(elliptic2, other)
    assert res["isomorphic"] is False
    assert res["search_exhausted"] is True


def test_curves_isomorphic_cap(cyclic3):
    with pytest.raises(EnumerationCapExceeded):
        curves_isomorphic(cyclic3, cyclic3, cap=10)


def test_curves_isomorphic_table_size_guard(elliptic2, involution):
    # same marked points, but one model carries an extra automorphism
    with pytest.raises(ModelError, match="automorphism tables"):
        curves_isomorphic(involution, elliptic2, witness={"points": {"p": "p", "q": "q"}})


# -- the Torelli-style decision ------------------------------------------


def test_torelli_same_model(worked6):
    a = descriptor(worked6, degree=0)
    b = descriptor(worked6, degree=3)  # degree plays no role
    res = torelli_3birational(a, b)
    assert res["is_3birational"] is True
    assert res["warnings"] == []


def test_torelli_low_genus_warns(elliptic2):
    res = torelli_3birational(descriptor(elliptic2), descriptor(elliptic2))
    assert res["is_3birational"] is True
    assert len(res["warnings"]) == 2
    assert "genus 1" in res["warnings"][0]


def test_torelli_rank_mismatch(worked6):
    m = worked6
    w = weight_system_for(m, {"p": ["0", "1/3"], "q": ["0", "1/5"]})
    a = ModuliDescriptor(m, 2, 0, w)
    w3 = WeightSystem(
        {"p": (0, Fraction(1, 7), Fraction(2, 7)), "q": (0, Fraction(1, 11), Fraction(5, 11))},
        3,
    )
    b = ModuliDescriptor(m, 3, 0, w3)
    res = torelli_3birational(a, b)
    assert res["is_3birational"] is False
    assert res["rank_equal"] is False
    assert res["curves_isomorphic"] is True


def test_torelli_distinct_curves(worked6):
    other = build_model(6, 2, [("p", ["0"] * 12), ("q", ["1/3"] + ["0"] * 11)])
    a = descriptor(worked6)
    b = descriptor(other)
    res = torelli_3birational(a, b)
    assert res["is_3birational"] is False
    assert res["curves_isomorphic"] is False


# -- the degree bridge ---------------------------------------------------


def test_bridge_worked_examples(elliptic2):
    m = elliptic2
    t = bridge_transformation(m, 0, 1, "p")
    assert t.line.degree == 1 and t.hecke == Divisor({"p": 1})
    t = bridge_transformation(m, 3, -2, "p")
    assert t.line.degree == -2 and t.hecke == Divisor({"p": 1})
    t = bridge_transformation(m, -1, -1, "p")
    assert t.is_identity()


def test_bridge_exhaustive_small():
    for r in (2, 3):
        m = build_model(1, r, [("p", ["0", "0"])])
        for d in range(-8, 9):
            for d_prime in range(-8, 9):
                t = bridge_transformation(m, d, d_prime, "p")
                assert act_degree(t, d) == d_prime
                assert t.s == 1 and t.sigma == m.identity_name
                assert 0 <= t.hecke.get("p") <= r - 1


def test_bridge_unknown_point(elliptic2):
    with pytest.raises(UnknownPoint):
        bridge_transformation(elliptic2, 0, 1, "z")


# -- decomposition verification ------------------------------------------


def test_verify_decomposition_identity(worked6):
    src = descriptor(worked6)
    res = verify_decomposition(
        src, src, None, identity_transform(worked6), None, None, "isomorphism"
    )
    assert res["overall"] is True
    assert res["transform"] == "id"
    assert [c["name"] for c in res["checks"]] == [
        "reference_degree",
        "degree_transport",
        "structural_witness",
        "chamber_match",
    ]
    assert res["warnings"] == []


def test_verify_decomposition_bridge_transport(worked6):
    m = worked6
    src = descriptor(m, degree=0)
    t = bridge_transformation(m, 0, 1, "p")
    moved = act_weights(t, src.weights)
    tgt = ModuliDescriptor(m, 2, 1, moved)
    res = verify_decomposition(src, tgt, None, t, None, None, "isomorphism")
    assert res["overall"] is True


def test_verify_decomposition_degree_fail(worked6):
    src = descriptor(worked6, degree=0)
    tgt = descriptor(worked6, degree=1)
    res = verify_decomposition(
        src, tgt, None, identity_transform(worked6), None, None, "3birational"
    )
    assert res["overall"] is False
    by_name = {c["name"]: c["pass"] for c in res["checks"]}
    assert by_name["degree_transport"] is False
    assert by_name["structural_witness"] is True
    assert "chamber_match" not in by_name


def test_verify_decomposition_chamber_fail(worked6):
    m = worked6
    src = descriptor(m, degree=0)
    other = weight_system_for(m, {"p": ["0", "1/7"], "q": ["0", "6/11"]})
    tgt = ModuliDescriptor(m, 2, 0, other)
    res = verify_decomposition(
        src, tgt, None, identity_transform(m), None, None, "isomorphism"
    )
    assert res["overall"] is False
    by_name = {c["name"]: c["pass"] for c in res["checks"]}
    assert by_name["chamber_match"] is False


def test_verify_decomposition_rank2_dual_warns(worked6):
    m = worked6
    src = descriptor(m)
    dual = make_basic(
        m.identity_name, -1, LineBundleClass.trivial(12), Divisor(), m
    )
    tgt = ModuliDescriptor(m, 2, 0, act_weights(dual, src.weights))
    res = verify_decomposition(src, tgt, None, dual, None, None, "isomorphism")
    assert res["overall"] is True
    assert any("rank 2" in w for w in res["warnings"])


def test_verify_decomposition_relabeling_witness(elliptic2):
    src_model = elliptic2
    tgt_model = build_model(1, 2, [("u", ["1/2", "0"]), ("v", ["0", "0"])])
    src = ModuliDescriptor(
        src_model, 2, 0, weight_system_for(src_model, {"p": ["0", "1/3"], "q": ["0", "1/5"]})
    )
    tgt = ModuliDescriptor(
        tgt_model, 2, 0, weight_system_for(tgt_model, {"v": ["0", "1/3"], "u": ["0", "1/5"]})
    )
    wit = {"points": {"p": "v", "q": "u"}}
    res = verify_decomposition(
        src, tgt, wit, identity_transform(src_model), None, None, "isomorphism"
    )
    assert res["overall"] is True
    # without the witness the models are distinct and the check fails
    res = verify_decomposition(
        src, tgt, None, identity_transform(src_model), None, None, "isomorphism"
    )
    assert res["overall"] is False


def test_verify_decomposition_guards(worked6):
    src = descriptor(worked6)
    with pytest.raises(ShapeMismatch):
        verify_decomposition(
            src, src, None, identity_transform(worked6), None, None, "nonsense"
        )


def test_verify_decomposition_mismatched_reference(worked6):
    src = descriptor(worked6, degree=0)
    xi = LineBundleClass(2, JacobianElement.zero(12))
    res = verify_decomposition(
        src, src, None, identity_transform(worked6), None, xi, "3birational"
    )
    by_name = {c["name"]: c["pass"] for c in res["checks"]}
    assert by_name["reference_degree"] is False
    assert res["overall"] is False
