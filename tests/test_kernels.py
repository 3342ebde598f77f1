"""Kernel values, metadata and the compact text descriptions."""

import dataclasses
import math

import numpy as np
import pytest

import polyharm
from oracles import copying_kernel_value, rp_scalar, tps_scalar
from polyharm import (Ball, Box, RadialPower, ThinPlateSpline, UnisolvenceReport, domains,
                      interpolation, kernel_spec, kernels, parse_kernel)


def test_tps_matches_scalar_oracle():
    rng = np.random.default_rng(101)
    for k in (1, 2, 3):
        kernel = ThinPlateSpline(k)
        for r in rng.uniform(1e-6, 5.0, size=50):
            expected = tps_scalar(k, float(r))
            got = kernel.value(float(r))
            assert got == pytest.approx(expected, rel=1e-14)


def test_tps_exact_zeros():
    kernel = ThinPlateSpline(2)
    # r = 0 is the analytic limit, r = 1 follows from log(1.0) == 0.0
    assert kernel.value(0.0) == 0.0
    assert kernel.value(1.0) == 0.0
    arr = kernel.value(np.array([0.0, 1.0, 0.5]))
    assert arr[0] == 0.0 and arr[1] == 0.0 and arr[2] < 0.0


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_tps_single_zero_radius_at_the_tail_of_a_block(zero):
    # the r = 0 mask runs whenever the smallest radius is zero, wherever that radius lies
    kernel = ThinPlateSpline(1)
    r = np.random.default_rng(3).uniform(0.5, 2.0, (256, 200))
    r[-1, -1] = zero
    with np.errstate(all="raise"):
        v = kernel.value(r)
    assert v[-1, -1] == 0.0 and not np.signbit(v[-1, -1])
    assert np.array_equal(v[:-1], kernel.value(r[:-1]))
    assert np.array_equal(v[-1, :-1], kernel.value(r[-1, :-1]))


def test_tps_sign_pattern():
    kernel = ThinPlateSpline(1)
    r = np.array([0.25, 0.999, 1.001, 3.0])
    v = kernel.value(r)
    assert (v[:2] < 0.0).all() and (v[2:] > 0.0).all()


def test_tps_order_validation():
    for bad in (0, -1, 1.5, "2", True):
        with pytest.raises(ValueError):
            ThinPlateSpline(bad)
    assert ThinPlateSpline(np.int64(2)).k == 2


def test_rp_matches_scalar_oracle():
    rng = np.random.default_rng(202)
    for nu in (0.5, 1.0, 1.5, 3.0, 4.5):
        kernel = RadialPower(nu)
        for r in rng.uniform(0.0, 5.0, size=50):
            assert kernel.value(float(r)) == pytest.approx(rp_scalar(nu, float(r)), rel=1e-14)
    assert RadialPower(0.5).value(0.0) == 0.0


def test_rp_exponent_validation():
    for bad in (0.0, -1.0, 2, 2.0, 4, 6.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            RadialPower(bad)
    # odd integers and non-integers are fine
    RadialPower(1)
    RadialPower(3.0)
    RadialPower(2.5)


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        ThinPlateSpline(1).value(-0.1)
    with pytest.raises(ValueError):
        RadialPower(1.5).value(np.array([0.5, -0.5]))
    for kernel in (ThinPlateSpline(1), RadialPower(1.5)):
        with pytest.raises(ValueError):
            kernel.value(np.array(-0.1))  # 0-d
        with pytest.raises(ValueError):
            kernel.value(np.array([0.5, 0.2, -1e-300, 0.1, 2.0, 0.0]))
        with pytest.raises(ValueError):
            kernel.value_scaled(2.0, np.array(-0.1))
        # -0.0 is not below zero
        assert kernel.value(-0.0) == 0.0
        expected = [0.0, 0.0, kernel.value(1.0)]
        assert np.array_equal(kernel.value(np.array([-0.0, 0.0, 1.0])), expected)


def test_nan_radius_rejected():
    # a NaN radius must not read as the value 0 at r = 0
    for kernel in (ThinPlateSpline(1), RadialPower(1.5)):
        with pytest.raises(ValueError, match="NaN"):
            kernel.value(math.nan)
        with pytest.raises(ValueError, match="NaN"):
            kernel.value(np.array([0.5, math.nan, 2.0]))
        with pytest.raises(ValueError, match="NaN"):
            kernel.value_scaled(2.0, np.array([[0.5], [math.nan]]))
        # the vectorized reduction's tail, at the size of one evaluate block
        block = np.full((256, 200), 0.5)
        block[-1, -1] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            kernel.value(block)
        with pytest.raises(ValueError, match="nonnegative"):
            kernel.value(np.array([0.5, -math.inf]))


def test_empty_radii_give_empty_values():
    for kernel in (ThinPlateSpline(1), RadialPower(1.5)):
        for shape in ((0,), (0, 5)):
            got = kernel.value(np.empty(shape))
            assert isinstance(got, np.ndarray) and got.shape == shape


def test_value_scaled_is_value_of_scaled_radius():
    r = np.linspace(0.0, 3.0, 17)
    for kernel in (ThinPlateSpline(1), ThinPlateSpline(2), RadialPower(1.5)):
        assert np.array_equal(kernel.value_scaled(0.7, r), kernel.value(r * 0.7))
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ThinPlateSpline(1).value_scaled(bad, r)


IN_PLACE_KERNELS = [ThinPlateSpline(1), ThinPlateSpline(2), ThinPlateSpline(3), RadialPower(0.5),
                    RadialPower(1.0), RadialPower(1.5), RadialPower(3.0)]


def _radii():
    rng = np.random.default_rng(303)
    spread = rng.random(200) * 10.0 ** rng.integers(-8, 9, 200)
    return np.concatenate([[0.0, -0.0, 5e-324, 1.0, 1e150], spread])


@pytest.mark.parametrize("eps", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("kernel", IN_PLACE_KERNELS, ids=kernel_spec)
def test_in_place_values_have_the_copying_bits(kernel, eps):
    # the square (x * x) and the power 0.5 (sqrt) take NumPy's fast paths, the rest pow
    radii = _radii()
    with np.errstate(over="ignore"):
        want = copying_kernel_value(kernel, eps, radii).tobytes()
        r = radii.copy()
        assert kernel.value_scaled(eps, r).tobytes() == want
        assert kernel.value(eps * r).tobytes() == want
        assert r.tobytes() == radii.tobytes()
        buffer = np.empty_like(r)
        assert kernel.value_scaled(eps, r, out=buffer) is buffer
        assert buffer.tobytes() == want and r.tobytes() == radii.tobytes()
        assert kernel.value_scaled(eps, r, out=r) is r
        assert r.tobytes() == want


@pytest.mark.parametrize("kernel", IN_PLACE_KERNELS, ids=kernel_spec)
def test_value_leaves_its_input_alone_and_unwraps_0d(kernel):
    r = np.array([[0.0, 0.5], [1.0, 2.5]])
    kept = r.copy()
    kernel.value(r)
    assert np.array_equal(r, kept)
    for radius in (0.0, 2.5, np.float64(2.5), np.array(2.5)):
        assert type(kernel.value(radius)) is float
        assert type(kernel.value_scaled(0.5, radius)) is float
    assert kernel.value(np.array(2.5)) == kernel.value(np.array([2.5]))[0]


def test_rp_homogeneity():
    # value(eps * r) == eps**nu * value(r) up to rounding
    kernel = RadialPower(1.5)
    r = np.linspace(0.1, 4.0, 23)
    np.testing.assert_allclose(
        kernel.value_scaled(2.0, r), 2.0**1.5 * kernel.value(r), rtol=1e-14
    )


def test_kernel_cpd_order():
    table = [(ThinPlateSpline(1), 2), (ThinPlateSpline(3), 4), (RadialPower(0.5), 1),
             (RadialPower(1.0), 1), (RadialPower(1.5), 1), (RadialPower(2.5), 2),
             (RadialPower(3.0), 2), (RadialPower(5.0), 3)]
    assert [kernel.cpd_order for kernel, _ in table] == [order for _, order in table]


def test_cpd_order_is_a_read_only_property_and_the_removed_names_are_gone():
    for cls in (ThinPlateSpline, RadialPower):
        assert isinstance(cls.cpd_order, property)
        assert "cpd_order" not in {f.name for f in dataclasses.fields(cls)}
        assert not hasattr(cls, "info")
    with pytest.raises(AttributeError):
        ThinPlateSpline(1).cpd_order = 3
    with pytest.raises(TypeError):
        RadialPower(1.5, cpd_order=1)
    for cls in (Box, Ball):
        assert not hasattr(cls, "contains")
    assert not hasattr(UnisolvenceReport, "to_json")
    assert not hasattr(UnisolvenceReport, "records_csv")
    for module, name in ((kernels, "KernelInfo"), (domains, "duplicate_pair"),
                         (interpolation, "monomial_exponents")):
        assert not hasattr(module, name) and not hasattr(polyharm, name)


def test_parse_kernel_round_trip():
    for text, expected in (
        ("tps:k=1", ThinPlateSpline(1)),
        ("TPS:K=2", ThinPlateSpline(2)),
        (" rp:nu=1.5 ", RadialPower(1.5)),
        ("rp:nu=3", RadialPower(3.0)),
        ("RP:NU=0.5", RadialPower(0.5)),
    ):
        assert parse_kernel(text) == expected
    for kernel in (ThinPlateSpline(1), ThinPlateSpline(2), RadialPower(0.5), RadialPower(3.0)):
        assert parse_kernel(kernel_spec(kernel)) == kernel


def test_kernel_spec_text():
    assert kernel_spec(ThinPlateSpline(2)) == "tps:k=2"
    assert kernel_spec(RadialPower(3.0)) == "rp:nu=3"
    assert kernel_spec(RadialPower(1.5)) == "rp:nu=1.5"
    with pytest.raises(TypeError):
        kernel_spec("tps:k=1")


def test_parse_kernel_rejects_malformed():
    for bad in (
        "tps", "tps:", "tps:k=", "tps:j=2", "tps:k=half", "tps:k=1.5",
        "rp", "rp:nu=", "rp:mu=1", "rp:nu=abc", "rp:nu=2", "rp:nu=-1",
        "gauss:k=1", "", 7,
    ):
        with pytest.raises(ValueError):
            parse_kernel(bad)
