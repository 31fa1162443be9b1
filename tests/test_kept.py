"""Data a point keeps for its operators (``lattice._table``).

Tropical points and arrays keep, per index, what their operators read
again: kept data must change no result, an image built unchecked must not
inherit them, and none may grow past the point's own size.
"""

import pytest

from pathcrystal import iso, suites, tropical
from pathcrystal.bkinf import (
    all_ctuples,
    bk_e,
    bk_e_closed,
    crystal_graph_dot,
    delta,
    eps_phi,
    kashiwara,
    sample_belement,
    weyl_s_tilde,
)
from pathcrystal.lattice import BElement, TropPoint, make_shape, sample_point
from pathcrystal.suites import run_suite
from pathcrystal.tropical import trop_dbar, trop_e, trop_eps, trop_wt

from conftest import SHAPES

DS = range(-3, 4)


def _calls(shape):
    """Every call the test repeats, each a function of a tropical point and an array."""
    calls = [lambda x, b, c=c: delta(b, c) for c in all_ctuples(shape)]
    for i in range(shape.n + 1):
        calls += [
            lambda x, b, i=i: trop_eps(x, i),
            lambda x, b, i=i: trop_wt(x, i),
            lambda x, b, i=i: eps_phi(b, i),
            lambda x, b, i=i: kashiwara(b, "e", i),
            lambda x, b, i=i: kashiwara(b, "f", i),
            lambda x, b, i=i: weyl_s_tilde(b, i),
        ]
        for d in DS:
            calls += [
                lambda x, b, i=i, d=d: trop_e(x, i, d),
                lambda x, b, i=i, d=d: bk_e_closed(b, i, d),
            ]
    return calls


def _items(value):
    """The integers (and Nones) a kept value holds; every container in it must be a tuple."""
    if isinstance(value, tuple):
        return sum(map(_items, value))
    assert value is None or type(value) is int, type(value)
    return 1


def _kept(point, module):
    """The values ``point`` keeps under ``module``'s keys."""
    return {key: v for key, v in point._tables.items() if type(key) is tuple and key[0] == module}


@pytest.mark.parametrize("nk", SHAPES + [(8, 4)], ids=lambda nk: "n%dk%d" % nk)
@pytest.mark.parametrize("seed", range(3))
def test_kept_data_give_the_results_of_a_fresh_copy(nk, seed):
    shape = make_shape(*nk)
    x = sample_point(shape, seed, 10, kind="trop")
    b = sample_belement(shape, seed, 10)
    calls = _calls(shape)
    for call in calls:
        call(x, b)
    # every index's data are kept now, as tuples and integers
    assert len(_kept(x, "tropical")) == 2 * shape.n + 2
    assert len(_kept(b, "bkinf")) == shape.n + 2
    for value in [*_kept(x, "tropical").values(), *_kept(b, "bkinf").values()]:
        _items(value)
    for call in calls:
        fresh_x, fresh_b = TropPoint(shape, x.entries), BElement(shape, b.entries)
        assert call(x, b) == call(fresh_x, fresh_b)


@pytest.mark.parametrize("nk", SHAPES + [(8, 4)], ids=lambda nk: "n%dk%d" % nk)
def test_a_derived_image_starts_with_empty_tables(nk):
    shape = make_shape(*nk)
    x = sample_point(shape, 1, 10, kind="trop")
    b = iso.omega(x)
    for call in _calls(shape):
        call(x, b)
    images = [iso.omega(x), iso.omega_inv(b)]
    for i in range(shape.n + 1):
        images += [trop_e(x, i, 2), kashiwara(b, "e", i), kashiwara(b, "f", i)]
        if i:
            images.append(bk_e_closed(b, i, 2))
    assert x._tables and b._tables
    assert all(image._tables == {} for image in images)
    assert TropPoint._derived(shape, dict(x.entries))._tables == {}


def test_trop_dbar_reads_no_kept_column():
    # the per-row definition sums the entries itself: a corrupted column
    # entry moves trop_e and leaves every trop_dbar as it was
    shape = make_shape(5, 3)
    x = sample_point(shape, 4, 9, kind="trop")
    i = 2
    a, b = shape.column(1, i)
    dbar = [trop_dbar(x, l, i) for l in range(a, b + 1)]
    clean = trop_e(x, i, 1)
    prefix, suffix = x._tables[("tropical", "maxima", i)]
    x._tables[("tropical", "maxima", i)] = (prefix, (suffix[0] + 5, *suffix[1:]))
    assert trop_e(x, i, 1) != clean
    assert [trop_dbar(x, l, i) for l in range(a, b + 1)] == dbar


def test_a_corrupted_column_fails_step_intertwine(monkeypatch):
    sample = suites.sample_point

    def corrupted(shape, seed, bound, kind):
        point = sample(shape, seed, bound, kind=kind)
        prefix, suffix = tropical._maxima(point, 1)
        point._tables[("tropical", "maxima", 1)] = (prefix, (suffix[0] + 5, *suffix[1:]))
        return point

    monkeypatch.setattr(suites, "sample_point", corrupted)
    checks = {c.name: c for c in run_suite("iso", make_shape(5, 3), 2, 1)}
    assert checks["step-intertwine"].fails > 0
    assert {w["i"] for w in checks["step-intertwine"].witnesses} == {1}
    assert checks["round-trip"].fails == checks["delta-path"].fails == 0


def test_an_array_keeps_nothing_larger_than_its_rows():
    # the tuple table has binomial(n-1, k-1) entries; no array may keep it
    shape = make_shape(8, 4)
    b = sample_belement(shape, 5, 10)
    kashiwara(b, "e", 0)
    kashiwara(b, "f", 0)
    bk_e(b, 0, 3)
    crystal_graph_dot(b, 1)
    kept = _kept(b, "bkinf")
    assert set(b._tables) == set(kept)
    assert _items(kept[("bkinf", "rows")]) == shape.k * (shape.n + 2)
    assert all(_items(value) <= shape.k * (shape.n + 2) for value in kept.values())
    assert len(all_ctuples(shape)) * (shape.k + 1) > shape.k * (shape.n + 2)
    # the closed 0-operator adds the DP's forward minima: one more row, its start state
    eps_phi(b, 0)
    bk_e_closed(b, 0, 3)
    assert _items(b._tables[("bkinf", "ahead")]) == (shape.k + 1) * (shape.n + 2)
    assert len(b._tables) == len(kept) + 1
