import numpy as np
import pytest

from csemb import (
    commute_time,
    constant,
    identity,
    indicator_above,
    odd_extension,
    parse_function,
    root_function,
    tabulated,
)


def test_indicator_eval():
    f = indicator_above(0.5)
    assert f(0.5) == 1.0 and f(0.6) == 1.0 and f(0.49) == 0.0
    assert np.array_equal(f(np.array([-1.0, 0.5, 1.0])), [0.0, 1.0, 1.0])


def test_commute_clip():
    f = commute_time(1e-3)
    assert f(1.0) == pytest.approx(1.0 / np.sqrt(1e-3))
    assert f(0.0) == pytest.approx(1.0)
    # clipped: constant past 1 - eta
    assert f(1.0 - 1e-3) == f(1.0)


def test_support():
    assert indicator_above(0.5).support() == (0.5, np.inf)
    assert indicator_above(-1.0).support() == (-1.0, np.inf)
    for f in (commute_time(), identity(), constant(2.5), tabulated([-1.0, 1.0], [0.0, 1.0])):
        assert f.support() == (-np.inf, np.inf)


def test_identity_and_constant():
    assert identity()(0.37) == 0.37
    assert constant(2.5)(-0.9) == 2.5


def test_tabulated_interpolates():
    f = tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    assert f(0.5) == pytest.approx(0.5)
    assert f(-0.25) == pytest.approx(0.75)


def test_validation():
    with pytest.raises(ValueError):
        indicator_above(1.5)
    with pytest.raises(ValueError):
        commute_time(0.0)
    with pytest.raises(ValueError):
        tabulated([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        tabulated([0.5, 2.0], [1.0, 2.0])


def test_odd_extension_indicator():
    f = odd_extension(indicator_above(0.98))
    assert f(0.99) == 1.0
    assert f(-0.99) == -1.0
    assert f(0.5) == 0.0 and f(-0.5) == 0.0


def test_odd_extension_identity_unchanged():
    f = odd_extension(identity())
    x = np.linspace(-1, 1, 41)
    assert np.allclose(f(x), x)


def test_odd_extension_constant_is_sign():
    f = odd_extension(constant(1.0))
    assert f(0.0) == 1.0  # the x >= 0 branch
    assert f(0.3) == 1.0 and f(-0.3) == -1.0


def test_odd_extension_is_odd():
    f = odd_extension(commute_time())
    x = np.linspace(0.01, 1.0, 50)
    assert np.allclose(f(-x), -np.asarray(f(x)))


def test_root_fixes_indicator():
    f = indicator_above(0.2)
    g = root_function(f, 3)
    x = np.linspace(-1, 1, 101)
    assert np.array_equal(g(x), f(x))


def test_root_constant():
    assert root_function(constant(4.0), 2)(0.1) == pytest.approx(2.0)


def test_root_of_callable_square():
    g = root_function(lambda x: np.asarray(x) ** 2, 2)
    x = np.linspace(-1, 1, 21)
    assert np.allclose(g(x), np.abs(x))


def test_even_root_of_negative_rejected():
    with pytest.raises(ValueError):
        root_function(identity(), 2)
    with pytest.raises(ValueError):
        root_function(lambda x: np.asarray(x), 2)


def test_odd_root_signed():
    g = root_function(identity(), 3)
    assert g(-0.008) == pytest.approx(-0.2)


def test_root_then_odd_extension_order():
    # root applies to the base; extension stays odd
    f = root_function(odd_extension(indicator_above(0.5)), 2)
    assert f(0.9) == 1.0 and f(-0.9) == -1.0


def test_breakpoints():
    assert indicator_above(0.3).breakpoints() == (0.3,)
    assert odd_extension(indicator_above(0.3)).breakpoints() == (-0.3, 0.0, 0.3)
    assert identity().breakpoints() == ()
    assert commute_time(1e-2).breakpoints() == (0.99,)


def test_parse_function():
    assert parse_function("indicator:0.98").threshold == 0.98
    assert parse_function("commute:1e-3").clip == 1e-3
    assert parse_function("identity").kind == "identity"
    assert parse_function("const:1.0").value == 1.0


def test_parse_function_table(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("-1.0,0.0\n0.0,1.0\n1.0,0.0\n")
    f = parse_function(f"table:{p}")
    assert f(0.5) == pytest.approx(0.5)


def test_parse_function_unknown_lists_kinds():
    with pytest.raises(ValueError, match="indicator"):
        parse_function("step:0.5")


def test_describe_round_trip():
    for text in ("indicator:0.98", "commute:0.001", "identity", "const:2"):
        f = parse_function(text)
        assert parse_function(f.describe().split("|")[0]).kind == f.kind
