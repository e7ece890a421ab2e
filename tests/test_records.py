"""The result records: immutable named tuples with fixed fields and reports."""

import pickle

import pytest

from parkforest import (
    Forest,
    ForestStats,
    LabelMap,
    OrderedTree,
    ParkingStats,
    ParkOutcome,
    VerificationReport,
    all_forests,
    canonical_order,
    forest_stats,
    forest_to_parking,
    park,
    parking_stats,
    parking_to_forest,
)

FIELDS = {
    Forest: ("parent",),
    OrderedTree: ("root", "parent", "children"),
    VerificationReport: (
        "n", "forest_count", "parking_function_count", "roundtrip_failures",
        "stat_mismatches", "elapsed_millis", "seed",
    ),
    ParkOutcome: ("slots", "max_space"),
    ParkingStats: (
        "n", "slots", "jump_at", "jump_total", "lucky_cars", "lucky",
        "critical_cars", "critic", "jump_type",
    ),
    ForestStats: ("n", "inv_at", "inv_total", "leaders", "lead", "tree", "inv_type"),
    LabelMap: ("to_car", "to_vertex"),
}

GOLDEN = [
    (
        lambda: forest_stats(Forest((2, 0, 4, 2, 0))),
        "ForestStats(n=5, inv_at=(0, 1, 0, 1, 0), inv_total=2, leaders=(1, 3, 5),"
        " lead=3, tree=2, inv_type=(3, 2, 0, 0, 0, 0))",
        {
            "n": 5, "invAt": [0, 1, 0, 1, 0], "invTotal": 2, "leaders": [1, 3, 5],
            "lead": 3, "tree": 2, "tinv": [3, 2, 0, 0, 0, 0],
        },
    ),
    (
        lambda: forest_stats(Forest((0, 1, 1, 0))),
        "ForestStats(n=4, inv_at=(0, 0, 0, 0), inv_total=0, leaders=(1, 2, 3, 4),"
        " lead=4, tree=2, inv_type=(4, 0, 0, 0, 0))",
        {
            "n": 4, "invAt": [0, 0, 0, 0], "invTotal": 0, "leaders": [1, 2, 3, 4],
            "lead": 4, "tree": 2, "tinv": [4, 0, 0, 0, 0],
        },
    ),
    (
        lambda: parking_stats((4, 2, 2, 4, 1)),
        "ParkingStats(n=5, slots=(4, 2, 3, 5, 1), jump_at=(0, 0, 1, 1, 0),"
        " jump_total=2, lucky_cars=(1, 2, 5), lucky=3, critical_cars=(5, 4),"
        " critic=2, jump_type=(3, 2, 0, 0, 0, 0))",
        {
            "q": [4, 2, 3, 5, 1], "jumpAt": [0, 0, 1, 1, 0], "jumpTotal": 2,
            "lucky": 3, "luckyCars": [1, 2, 5], "critic": 2, "criticalCars": [5, 4],
            "tjump": [3, 2, 0, 0, 0, 0],
        },
    ),
    (
        lambda: parking_stats((3, 1, 1)),
        "ParkingStats(n=3, slots=(3, 1, 2), jump_at=(0, 0, 1), jump_total=1,"
        " lucky_cars=(1, 2), lucky=2, critical_cars=(3, 1), critic=2,"
        " jump_type=(2, 1, 0, 0))",
        {
            "q": [3, 1, 2], "jumpAt": [0, 0, 1], "jumpTotal": 1, "lucky": 2,
            "luckyCars": [1, 2], "critic": 2, "criticalCars": [3, 1],
            "tjump": [2, 1, 0, 0],
        },
    ),
    (
        lambda: forest_to_parking(Forest((2, 0, 4, 2, 0)))[1],
        "LabelMap(to_car=(0, 1, 4, 2, 3, 5), to_vertex=(0, 1, 3, 4, 2, 5))",
        {"vertexToCar": [1, 4, 2, 3, 5], "carToVertex": [1, 3, 4, 2, 5]},
    ),
    (
        lambda: parking_to_forest((2, 4, 2, 1, 3))[1],
        "LabelMap(to_car=(0, 1, 2, 5, 3, 4), to_vertex=(0, 1, 2, 4, 5, 3))",
        {"vertexToCar": [1, 2, 5, 3, 4], "carToVertex": [1, 2, 4, 5, 3]},
    ),
    (lambda: park((3, 3, 1)), "ParkOutcome(slots=(3, 4, 1), max_space=4)", None),
    (lambda: Forest((2, 0, 4, 2, 0)), "Forest(parent=(2, 0, 4, 2, 0))", None),
    (lambda: parking_to_forest((2, 4, 2, 1, 3))[0], "Forest(parent=(4, 3, 0, 3, 3))", None),
    (lambda: next(all_forests(3)), "Forest(parent=(0, 0, 0))", None),
    (
        lambda: canonical_order(Forest((2, 0, 4, 2, 0))),
        "OrderedTree(root=6, parent=(0, 2, 6, 4, 2, 6, 0),"
        " children=((), (), (4, 1), (), (3,), (), (5, 2)))",
        None,
    ),
    (
        lambda: VerificationReport(3, 16, 16, 0, 0, 7),
        "VerificationReport(n=3, forest_count=16, parking_function_count=16,"
        " roundtrip_failures=0, stat_mismatches=0, elapsed_millis=7, seed=None)",
        {
            "n": 3, "forestCount": 16, "parkingFunctionCount": 16,
            "roundtripFailures": 0, "statMismatches": 0, "elapsedMillis": 7,
        },
    ),
    (
        lambda: VerificationReport(4, 10, 10, 1, 2, 5, seed=9),
        "VerificationReport(n=4, forest_count=10, parking_function_count=10,"
        " roundtrip_failures=1, stat_mismatches=2, elapsed_millis=5, seed=9)",
        {
            "n": 4, "forestCount": 10, "parkingFunctionCount": 10,
            "roundtripFailures": 1, "statMismatches": 2, "elapsedMillis": 5, "seed": 9,
        },
    ),
]


@pytest.mark.parametrize("make, text, report", GOLDEN)
def test_records_keep_fields_repr_and_report(make, text, report):
    rec = make()
    assert type(rec)._fields == FIELDS[type(rec)]
    assert repr(rec) == text
    if report is not None:
        assert rec.as_report() == report
    # A named tuple unpacks in field order.
    assert tuple(rec) == tuple(getattr(rec, name) for name in rec._fields)


@pytest.mark.parametrize("make, text, report", GOLDEN)
def test_records_are_immutable_and_replaceable(make, text, report):
    rec = make()
    first = rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, first, None)
    with pytest.raises(AttributeError):
        rec.extra = 1
    changed = rec._replace(**{first: "x"})
    assert type(changed) is type(rec)
    assert getattr(changed, first) == "x" and getattr(rec, first) != "x"
    assert changed[1:] == rec[1:]



@pytest.mark.parametrize("make, text, report", GOLDEN)
def test_records_survive_pickling(make, text, report):
    rec = make()
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec) and back == rec and repr(back) == text


def test_record_properties():
    # A Forest is a 1-tuple: len counts its one field, n its vertices.
    for p in ((), (0,), (2, 0, 4, 2, 0)):
        f = Forest(p)
        assert f.n == len(p) and len(f) == 1
    assert VerificationReport(3, 16, 16, 0, 0, 7).ok
    assert not VerificationReport(3, 16, 16, 1, 0, 7).ok
    assert not VerificationReport(3, 16, 16, 0, 2, 7, seed=1).ok
