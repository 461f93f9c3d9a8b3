import pytest

from secnum.extnat import INF, ExtNat


def test_total_order():
    assert ExtNat(1) < ExtNat(2) < ExtNat(5) < INF
    assert not INF < INF
    assert INF <= INF
    assert ExtNat(3) == ExtNat(3)
    assert ExtNat(3) != INF
    values = [INF, ExtNat(4), ExtNat(1), ExtNat(2)]
    assert sorted(values) == [ExtNat(1), ExtNat(2), ExtNat(4), INF]


def test_multiplication_absorbs_infinite():
    assert ExtNat(2) * ExtNat(3) == ExtNat(6)
    assert INF * ExtNat(7) == INF
    assert ExtNat(7) * INF == INF
    assert INF * INF == INF


def test_finite_values_start_at_one():
    with pytest.raises(ValueError):
        ExtNat(0)
    with pytest.raises(ValueError):
        ExtNat(-2)
    with pytest.raises(TypeError):
        ExtNat(1.5)


def test_immutable_and_hashable():
    x = ExtNat(2)
    with pytest.raises(AttributeError):
        x.n = 3
    assert len({ExtNat(2), ExtNat(2), INF}) == 2


def test_json_round_trip():
    assert ExtNat.from_json(ExtNat(4).to_json()) == ExtNat(4)
    assert ExtNat.from_json(INF.to_json()) == INF
    assert INF.to_json() == "infinite"
    assert str(ExtNat(2)) == "2" and str(INF) == "infinite"
    # from_json checks what it reads as the constructor does
    for wrong in (2.7, True, "3"):
        with pytest.raises(TypeError):
            ExtNat.from_json(wrong)
