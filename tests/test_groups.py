import pytest
from hypothesis import given, strategies as st

from matchlab.groups import cyclic, integers, parse_group, subgroup_generated, units


@pytest.mark.parametrize(
    "n,x,y,expected",
    [
        (7, 4, 5, 2),
        (7, 0, 3, 3),
        (5, 4, 4, 3),
    ],
)
def test_cyclic_add(n, x, y, expected):
    assert cyclic(n).add(x, y) == expected


def test_integers_add():
    assert integers().add(4, 5) == 9


@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-100, max_value=100),
)
def test_cyclic_group_laws(n, x, y, z):
    g = cyclic(n)
    x, y, z = x % n, y % n, z % n
    assert g.is_canonical(x) and not g.is_canonical(x + n) and not g.is_canonical(x - n)
    assert g.add(x, y) == g.add(y, x)
    assert g.add(g.add(x, y), z) == g.add(x, g.add(y, z))
    assert g.add(x, 0) == x
    assert g.add(x, -x % n) == 0


@pytest.mark.parametrize(
    "n,a,expected",
    [
        (9, 3, (0, 3, 6)),
        (9, 0, (0,)),
        (7, 2, tuple(range(7))),
        (12, 8, (0, 4, 8)),
    ],
)
def test_subgroup_generated(n, a, expected):
    assert subgroup_generated(cyclic(n), a) == expected


def test_subgroup_closed_under_add():
    for n in range(1, 13):
        g = cyclic(n)
        for a in range(n):
            sub = set(subgroup_generated(g, a))
            assert 0 in sub
            for x in sub:
                for y in sub:
                    assert g.add(x, y) in sub


@pytest.mark.parametrize(
    "n,expected",
    [
        (7, (1, 2, 3, 4, 5, 6)),
        (9, (1, 2, 4, 5, 7, 8)),
        (1, ()),
        (12, (1, 5, 7, 11)),
    ],
)
def test_units(n, expected):
    assert units(cyclic(n)) == expected


def test_units_act_as_automorphisms():
    # u*(x+y) = u*x + u*y, exhaustively for small orders
    for n in range(1, 13):
        g = cyclic(n)
        for u in units(g):
            for x in range(n):
                for y in range(n):
                    assert u * g.add(x, y) % n == g.add(u * x % n, u * y % n)


def test_group_ctx_validation():
    with pytest.raises(ValueError):
        cyclic(0)
    with pytest.raises(ValueError):
        from matchlab.groups import GroupCtx

        GroupCtx(-1)


@pytest.mark.parametrize("text,group", [("Z", integers()), ("z", integers()), ("7", cyclic(7)),
                                        ("1", cyclic(1))])
def test_parse_group(text, group):
    assert parse_group(text) == group

