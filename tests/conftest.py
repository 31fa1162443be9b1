import pytest

from pathcrystal.lattice import make_shape

# the shape battery used by the randomized identity checks
SHAPES = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3)]

# decodable JSON that is not a point; each must fail validation, for every kind
MALFORMED_POINTS = [
    {"n": 2, "k": 1, "kind": "b", "entries": {"1": 0, "1,2": 5, "1,3": -5}},
    {"n": 2, "k": 1, "kind": "x", "entries": [1]},
    {"n": 2, "k": 1, "kind": "x", "entries": {"1,1": True, "1,2": "3/1"}},
    {"n": 2, "k": 1, "kind": "y", "entries": {"1,0": "1/3", "1,1": False}},
    {"n": 2, "k": 1, "kind": "trop", "entries": {"1,1": True, "1,2": 0}},
    {"n": 2, "k": 1, "kind": "b", "entries": {"1,1": True, "1,2": False, "1,3": -1}},
    {"n": 3, "k": True, "kind": "trop", "entries": {"1,1": 0, "1,2": 0, "1,3": 0}},
    {"n": 2, "k": 1, "kind": ["x"], "entries": {}},
    [2, 1, "x"],
]


@pytest.fixture(params=SHAPES, ids=lambda nk: "n%dk%d" % nk)
def shape(request):
    return make_shape(*request.param)
