import hashlib
import warnings

import numpy as np
import pytest

from csemb import (
    commute_time,
    constant,
    identity,
    indicator_above,
    legendre_coefficients,
    odd_extension,
    parse_function,
    root_function,
    tabulated,
)
from csemb.functions import describe


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
    assert root_function(indicator_above(0.5), 2).support() == (0.5, np.inf)
    assert odd_extension(indicator_above(0.5)).support() == (-np.inf, np.inf)
    assert root_function(odd_extension(indicator_above(0.5)), 2).support() == (-np.inf, np.inf)


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


@pytest.mark.parametrize("xs", [[-1.0, np.nan, 1.0], [np.nan, 0.5], [-0.5, np.nan]])
def test_tabulated_nan_breakpoint_refused(xs):
    with pytest.raises(ValueError, match="strictly increasing"):
        tabulated(xs, np.zeros(len(xs)))


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


def test_even_root_of_negative_is_signed():
    # sign(f) |f|^(1/b) for every b; b stages of it apply |f| when b is even
    x = np.array([-0.25, -0.0, 0.0, 0.04, 1.0])
    for f in (identity(), lambda x: np.asarray(x)):
        g = root_function(f, 2)(x)
        assert np.array_equal(g, [-0.5, -0.0, 0.0, 0.2, 1.0])
        assert np.array_equal(np.signbit(g), np.signbit(x))
    assert root_function(constant(-4.0), 2)(0.3) == -2.0


def test_odd_root_signed():
    g = root_function(identity(), 3)
    assert g(-0.008) == pytest.approx(-0.2)


def test_root_then_odd_extension_order():
    # the signed root of an odd function is odd
    f = root_function(odd_extension(indicator_above(0.5)), 2)
    assert f(0.9) == 1.0 and f(-0.9) == -1.0


def test_breakpoints():
    assert indicator_above(0.3).breakpoints() == (0.3,)
    assert odd_extension(indicator_above(0.3)).breakpoints() == (-0.3, 0.0, 0.3)
    assert identity().breakpoints() == ()
    assert commute_time(1e-2).breakpoints() == (0.99,)


def test_parse_function():
    indicator = parse_function("indicator:0.98")
    assert indicator.describe() == "indicator:0.98" and indicator.breakpoints() == (0.98,)
    commute = parse_function("commute:1e-3")
    assert commute.describe() == "commute:0.001" and commute.breakpoints() == (1.0 - 1e-3,)
    assert parse_function("identity").describe() == "identity"
    const = parse_function("const:1.0")
    assert const.describe() == "const:1" and const(0.0) == 1.0


def test_parse_function_table(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("-1.0,0.0\n0.0,1.0\n1.0,0.0\n")
    f = parse_function(f"table:{p}")
    assert f(0.5) == pytest.approx(0.5)


@pytest.mark.parametrize("text", ["0.5\n0.7\n", ""], ids=["one-column", "empty"])
def test_parse_function_table_needs_two_columns(tmp_path, text):
    p = tmp_path / "t.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match="bad function string .* two columns"), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's warning on an empty input is not shown
        parse_function(f"table:{p}")


def test_parse_function_unknown_lists_kinds():
    with pytest.raises(ValueError, match="indicator"):
        parse_function("step:0.5")


def test_describe_round_trip():
    for text in ("indicator:0.98", "commute:0.001", "identity", "const:2"):
        f = parse_function(text)
        assert parse_function(f.describe().split("|")[0]).describe() == f.describe()


def _bits(x: float) -> int:
    return int(np.array(x, dtype=np.float64).view(np.uint64))


def test_describe_parses_to_the_same_parameter():
    # the recorded text gives back the parameter's float, bit for bit, and
    # keeps the :g form wherever that is exact
    rng = np.random.default_rng(41)
    special = [0.0, -0.0, 1.0, -1.0, 1e-5, 0.1234567, -0.1234567, 3.14159265]
    cases = {
        "indicator": ([p for p in special if abs(p) <= 1] + rng.uniform(-1, 1, 50).tolist(),
                      lambda f: f.support()[0]),
        "commute": ([1e-5, 0.1234567, 0.5, 1e-3] + rng.uniform(0, 1, 50).tolist(),
                    lambda f: f.breakpoints()),
        "const": (special + (rng.standard_normal(50) * 10.0 ** rng.integers(-9, 9, 50)).tolist(),
                  lambda f: f(0.0)),
    }
    for kind, (params, read) in cases.items():
        for p in params:
            text = f"{kind}:{p!r}"
            f = parse_function(text)
            recorded = f.describe()
            assert _bits(float(recorded.partition(":")[2])) == _bits(p), (text, recorded)
            assert np.array_equal(read(parse_function(recorded)), read(f))
    assert parse_function("indicator:0.1234567").describe() == "indicator:0.1234567"
    assert parse_function("const:3.14159265").describe() == "const:3.14159265"
    for text in ("indicator:0.3", "indicator:1", "commute:0.001", "const:-2", "indicator:-0"):
        assert parse_function(text).describe() == text


def _cubic(x):
    return np.asarray(x) ** 3


def _protocol(tmp_path) -> dict:
    """describe, breakpoints and the sha256 of the values on a grid and of
    the order-60 coefficients, or the ValueError's text, for every base
    function and transform of it that the pipeline can build."""
    table = tmp_path / "t.csv"
    table.write_text("-1.0,-0.5\n-0.3,0.2\n0.4,1.0\n1.0,0.25\n")
    bases = [parse_function(text) for text in (
        "indicator:0.5", "indicator:-0.25", "commute:0.001", "identity", "const:2.5",
        f"table:{table}",
    )] + [_cubic]
    transforms = {
        "plain": lambda f: f,
        "odd": odd_extension,
        "root2": lambda f: root_function(f, 2),
        "root3": lambda f: root_function(f, 3),
        "root2-odd": lambda f: root_function(odd_extension(f), 2),
        "root3-odd": lambda f: root_function(odd_extension(f), 3),
    }
    grid = np.linspace(-1.0, 1.0, 4001)
    out = {}
    for base in bases:
        for name, transform in transforms.items():
            key = f"{describe(base)}/{name}"
            try:
                f = transform(base)
            except ValueError as exc:
                out[key] = str(exc)
                continue
            values = np.asarray(f(grid), dtype=np.float64)
            coeffs = legendre_coefficients(f, 60).coeffs
            out[key] = (
                describe(f),
                tuple(getattr(f, "breakpoints", tuple)()),
                hashlib.sha256(values.tobytes()).hexdigest(),
                hashlib.sha256(coeffs.tobytes()).hexdigest(),
            )
    return out


# The protocol of every base function and transform, bit for bit; see _protocol.
_PINNED = {
    "indicator:0.5/plain": (
        "indicator:0.5", (0.5,),
        "a1cb6d891f89ae8c494d64edb63ca03938a537a2056abd41c3e7468744374669",
        "b4ccf2744684f5a771014a8d1cd35c7ba45845ddd5e590aafa9b5f8449fce864",
    ),
    "indicator:0.5/odd": (
        "indicator:0.5|odd", (-0.5, 0.0, 0.5),
        "70b011fd788da888f94bb89774fcd94690bb9281b2a36e5998fd86585ce604b7",
        "0366fc8c7f3c5613ca3e00d78c87ad4de269f660cdfe00a13fc2a5fc5a2a97e8",
    ),
    "indicator:0.5/root2": (
        "indicator:0.5|root:2", (0.5,),
        "a1cb6d891f89ae8c494d64edb63ca03938a537a2056abd41c3e7468744374669",
        "b4ccf2744684f5a771014a8d1cd35c7ba45845ddd5e590aafa9b5f8449fce864",
    ),
    "indicator:0.5/root3": (
        "indicator:0.5|root:3", (0.5,),
        "a1cb6d891f89ae8c494d64edb63ca03938a537a2056abd41c3e7468744374669",
        "b4ccf2744684f5a771014a8d1cd35c7ba45845ddd5e590aafa9b5f8449fce864",
    ),
    "indicator:0.5/root2-odd": (
        "indicator:0.5|odd|root:2", (-0.5, 0.0, 0.5),
        "70b011fd788da888f94bb89774fcd94690bb9281b2a36e5998fd86585ce604b7",
        "0366fc8c7f3c5613ca3e00d78c87ad4de269f660cdfe00a13fc2a5fc5a2a97e8",
    ),
    "indicator:0.5/root3-odd": (
        "indicator:0.5|odd|root:3", (-0.5, 0.0, 0.5),
        "70b011fd788da888f94bb89774fcd94690bb9281b2a36e5998fd86585ce604b7",
        "0366fc8c7f3c5613ca3e00d78c87ad4de269f660cdfe00a13fc2a5fc5a2a97e8",
    ),
    "indicator:-0.25/plain": (
        "indicator:-0.25", (-0.25,),
        "f767a8104cb7f009832d4e287cc4ac14158209e2ddcf10bac591abbbe59237d6",
        "c87ea4cd161eef50f344961adead5bfe2609b69035090528c4fd2921876f3725",
    ),
    "indicator:-0.25/odd": (
        "indicator:-0.25|odd", (0.0,),
        "1c4a1c016b5f6547ec6abd84012e5b78e2a5ee7bd04fe6b216435c74d6d9b5e8",
        "b14b6cfba6702d6d9ef28d3e35ffdec0ee5f73180948ce503383984529f930f7",
    ),
    "indicator:-0.25/root2": (
        "indicator:-0.25|root:2", (-0.25,),
        "f767a8104cb7f009832d4e287cc4ac14158209e2ddcf10bac591abbbe59237d6",
        "c87ea4cd161eef50f344961adead5bfe2609b69035090528c4fd2921876f3725",
    ),
    "indicator:-0.25/root3": (
        "indicator:-0.25|root:3", (-0.25,),
        "f767a8104cb7f009832d4e287cc4ac14158209e2ddcf10bac591abbbe59237d6",
        "c87ea4cd161eef50f344961adead5bfe2609b69035090528c4fd2921876f3725",
    ),
    "indicator:-0.25/root2-odd": (
        "indicator:-0.25|odd|root:2", (0.0,),
        "1c4a1c016b5f6547ec6abd84012e5b78e2a5ee7bd04fe6b216435c74d6d9b5e8",
        "b14b6cfba6702d6d9ef28d3e35ffdec0ee5f73180948ce503383984529f930f7",
    ),
    "indicator:-0.25/root3-odd": (
        "indicator:-0.25|odd|root:3", (0.0,),
        "1c4a1c016b5f6547ec6abd84012e5b78e2a5ee7bd04fe6b216435c74d6d9b5e8",
        "b14b6cfba6702d6d9ef28d3e35ffdec0ee5f73180948ce503383984529f930f7",
    ),
    "commute:0.001/plain": (
        "commute:0.001", (0.999,),
        "e277a5a566876e6f93af24d911bc87b23d9de8dba9dc3890bab8da62c5d155a2",
        "df4b6823399d9f533040445bcddaf7ead929f4e03f7d37af7aa037682cf812e7",
    ),
    "commute:0.001/odd": (
        "commute:0.001|odd", (-0.999, 0.0, 0.999),
        "f0203d8337558f5ce6ec87e9b83f477aa29edecd29542544a08ebb013c2f1ad1",
        "77e4fde03b50f5b5a2c761100992b7a12372cdb76ee37858ba5cc9b971938ecb",
    ),
    "commute:0.001/root2": (
        "commute:0.001|root:2", (0.999,),
        "613a9724b587093dde0b5b68f015c6efac6a0cf54429691499d83c9993d8e6be",
        "799a9be3cdfc611e5d1bdc2c931232fc6d77374f21b1043e4a0c69f6ebfd8034",
    ),
    "commute:0.001/root3": (
        "commute:0.001|root:3", (0.999,),
        "c9ee92ffc5937f35e8a45f4ec6f510b1584e24194d5d69e1f7f3dfd9f49a05f4",
        "513896ada75995ce3c79ffab9a81b80bdb7f0064134b7f0b82a2f3d873678dae",
    ),
    "commute:0.001/root2-odd": (
        "commute:0.001|odd|root:2", (-0.999, 0.0, 0.999),
        "7944de158e8655b4830b7cd29576caca99fc5dd434d569aea5167f0512a29eb6",
        "2359649e5ce3d1dd5e24685eef33021cb379440b73a900079708808fc896829b",
    ),
    "commute:0.001/root3-odd": (
        "commute:0.001|odd|root:3", (-0.999, 0.0, 0.999),
        "7d0421f1b9fe33f7dc7f4fa8cacb995f5ede9172d319915161fcc567f3bf94e2",
        "8c7764453b85981384be00696c336323dc78afe1924738812e345d2949bb5004",
    ),
    "identity/plain": (
        "identity", (),
        "c5eea70abaf0d63d900777a848be84468323bdaa435ccba7b32995402d1265a6",
        "82ccaaf34b376f9b0f1ac11a0731ce15cde55d73681b39a025fdfcc00ad33d3a",
    ),
    "identity/odd": (
        "identity|odd", (0.0,),
        "c5eea70abaf0d63d900777a848be84468323bdaa435ccba7b32995402d1265a6",
        "3addcd45cd4503892f86ecf0efae47535413cea6ac933b54a38b8fdd6c53dd48",
    ),
    "identity/root2": (
        "identity|root:2", (),
        "39d238722f853bb3408182c605bf817de5d5ad92794a49c7435e9bdf9e6f8b8b",
        "a3953a38dd18b6be873e024068b88b257a60354447bfbb94ebee6d9667290683",
    ),
    "identity/root3": (
        "identity|root:3", (),
        "8271af64cd0409bcef353316e973f897f39f1d559a78dd81c889250d5e5a140b",
        "1f7b951b9df3c89cac4dd37c603342b542085f8ed0592d84444c0e12a4d08200",
    ),
    "identity/root2-odd": (
        "identity|odd|root:2", (0.0,),
        "39d238722f853bb3408182c605bf817de5d5ad92794a49c7435e9bdf9e6f8b8b",
        "0247309b1b1e3890a0ea3f6e3d2478b802b24839fa4b05fd57aec1b11752151c",
    ),
    "identity/root3-odd": (
        "identity|odd|root:3", (0.0,),
        "8271af64cd0409bcef353316e973f897f39f1d559a78dd81c889250d5e5a140b",
        "9c4573c5869ae3074cb9ee2d6d3801607e956c43ea97337bf5f6540120f70ea1",
    ),
    "const:2.5/plain": (
        "const:2.5", (),
        "4ad4a2290db0825b687bfde70720449af9d20695d30367ad655e686ea71caadb",
        "5cf3e9192007ffaf6afad95a9ed521b9774437cb4615426e08d99ab3bc943a69",
    ),
    "const:2.5/odd": (
        "const:2.5|odd", (0.0,),
        "974102899996b52660601906f0186ca4e10460b874c2f510833272a17fb33ca9",
        "a6e695954d1286d4484c4fac90bd07e1ed9ff146c00e54c4fedb3254befe1b83",
    ),
    "const:2.5/root2": (
        "const:2.5|root:2", (),
        "9cb94f1f4aeb07c455eacb5b85ed2559a012ac597db8f3fa1dbccfd9f7b0299d",
        "359d7c938460f056fc7c68eb710c6479c6cec00f6ec3a7bad3514dc6acb466e0",
    ),
    "const:2.5/root3": (
        "const:2.5|root:3", (),
        "6afd3005b99e834b80c7d633a6a1ac5bd66aa62dce079566bbb915e26a3ee6ee",
        "e85976dc299b88b9f96f9fd30a51c71c3b353daa2f5e90fd953d12b63b0afc78",
    ),
    "const:2.5/root2-odd": (
        "const:2.5|odd|root:2", (0.0,),
        "41d231607ac66b90952d3835b6e20a491e950414d312d2058084422dd1be35e4",
        "295de1aa37bfb40c7c3026ccb58488783ca9313113113d318eb4776388faf6ea",
    ),
    "const:2.5/root3-odd": (
        "const:2.5|odd|root:3", (0.0,),
        "50e3d9ea726de352ecf96e130f1b61e71754384a6ad14f0ffaa21debfa3351bd",
        "8c3b9bd58876eb599fc9a2caaf1ecef1fac155ca17f6d34f85fa78827dbffbec",
    ),
    "table:4pts/plain": (
        "table:4pts", (-0.3, 0.4),
        "eb645ed1bc3b72304c5a479288eb6582b344b1a80babcacf94feaf217d2481d0",
        "1b4d4ef1d9f68679325a0f0d50d1744f30826aaa51b032918fae1aeeba825f1c",
    ),
    "table:4pts/odd": (
        "table:4pts|odd", (-0.4, 0.0, 0.4),
        "ef8a67111b69ea90c066a5114a5566de4b13975178c84c31cd4733b2d987bb33",
        "4ef93643a4d60d1314580bec5b2ae10d2f7da6139f71439bb05c2f0ff05224d8",
    ),
    "table:4pts/root2": (
        "table:4pts|root:2", (-0.3, 0.4),
        "28b28c371bd0d1c673c8411aacb35a58bd2fc6fc28bfe98f1a4ad0b65d3eb781",
        "b3e221cc5ced9e145d79bddd54ccabb5a7aa1c787fef43ce8087a389929554d9",
    ),
    "table:4pts/root3": (
        "table:4pts|root:3", (-0.3, 0.4),
        "9989e61d065ba7d24dec41de6d86178f594678700c887253501f0861de7ce94f",
        "517931df9e6be2a84b10bf331ae8091e544c56cf5712420fff116bdeedcc088e",
    ),
    "table:4pts/root2-odd": (
        "table:4pts|odd|root:2", (-0.4, 0.0, 0.4),
        "c8b045fd16f60962d8d2ce7b76bcc953284a3b61ffe283b0a50d360b92d10cda",
        "cc2b87fe91fe3e19f8eb829040d71605c0bcdfce3bc79350679564df8a05248f",
    ),
    "table:4pts/root3-odd": (
        "table:4pts|odd|root:3", (-0.4, 0.0, 0.4),
        "c1e6c02df9340510034638a361ef7df122876e88dd2e605bcdb3014d4ba28278",
        "ccd9801c74c56376ae4cc9d60328cec5ff4c3f02ebb0e71c3d17f93be542be3d",
    ),
    "_cubic/plain": (
        "_cubic", (),
        "6ea45614c118e09a8856f96dc22f14a8ce3d199efe01fd28e2f2a2b8c068fe2d",
        "c8221ea79348aac8bffb19d28c11ef407fc4c2a1b17e1e3095deff9aaf7de00c",
    ),
    "_cubic/odd": (
        "_cubic|odd", (0.0,),
        "38f2fbcc3944b9934ccd441410500b3eb68f754a91e225969b30e9f7a410f565",
        "ff3f2d9365ad4924eed3c0a726afd804a809855d4d1209cda83ab0003cdde35b",
    ),
    "_cubic/root2": (
        "_cubic|root:2", (),
        "9320d23aae73c92d3b9b3b9314b12a878dd74d283efcca402c369312c0c61829",
        "3dd1fe781e5b28e4da295346146ede71953d67bab5f72a30f0952a37adcdb72d",
    ),
    "_cubic/root3": (
        "_cubic|root:3", (),
        "e646f176bb1b6accf655d030dd7c4aec78f3e3b354b18e96c5fda79f9f4028e7",
        "33bf0e114560d1170e4b32c73a527937495c74aa8179a9836f5a7560b8aad59e",
    ),
    "_cubic/root2-odd": (
        "_cubic|odd|root:2", (0.0,),
        "44ce4249dcd60b629d49ff36f2ab37503179ac806625793431fde49da5a27f1f",
        "27c7ccc2a0027859cd8e52bd3da66c34d7f2b8db13ca9741a8e238f1ae9d5167",
    ),
    "_cubic/root3-odd": (
        "_cubic|odd|root:3", (0.0,),
        "6b7c0a1affd8a09f152d7e137d0668883390aa2c9e9e63d7ef0366154f79638f",
        "d6f65a38afea4df5d8316ec4465a8c37b35258506797eb96a8a1bb2f5cc72b34",
    ),
}


def test_protocol_pinned(tmp_path):
    assert _protocol(tmp_path) == _PINNED
