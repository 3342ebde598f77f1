"""Domains, densities, seeded sampling and point-set bookkeeping."""

import inspect
import math

import numpy as np
import pytest

from oracles import brute_distance, loop_cross_distance
from polyharm import (
    Ball,
    Box,
    ConstructionError,
    CustomDensity,
    PointSet,
    RadialPower,
    SamplingError,
    TruncatedGaussian,
    Uniform,
    assemble,
    cross_distance_matrix,
    domains,
    make_rng,
    mix_seed,
    pairwise_distance_matrix,
    read_points_csv,
    sample,
    sphere_counterexample,
    unit_box,
    write_points_csv,
)

# frozen from seed 42; guards the whole seeding pipeline against drift
GOLDEN_SAMPLE_42 = np.array([
    (0.7739560485559633, 0.4388784397520523),
    (0.8585979199113825, 0.6973680290593639),
    (0.09417734788764953, 0.9756223516367559),
    (0.761139701990353, 0.7860643052769538),
])
GOLDEN_MIN_DIST_42 = 0.13177683277120406


def test_mix_seed_is_deterministic_and_path_sensitive():
    assert mix_seed(42, 5, 0) == 83509503666147837
    assert mix_seed(42, 5, 1) == 14743095879896833507
    assert mix_seed(0) == 15793235383387715774
    assert mix_seed(7, 1, 2) != mix_seed(7, 2, 1)
    assert mix_seed(7, 1) != mix_seed(8, 1)


def test_make_rng_reproduces():
    a = make_rng(9).random(5)
    b = make_rng(9).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(10).random(5))


def _min_dist(ps):
    return assemble(ps, RadialPower(1)).min_dist


def test_golden_uniform_sample():
    ps = sample(unit_box(2), Uniform(), 4, 42)
    assert np.array_equal(ps.points, GOLDEN_SAMPLE_42)
    assert _min_dist(ps) == GOLDEN_MIN_DIST_42


def test_sample_serializes_no_domain_or_density(monkeypatch):
    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.to_dict called")

    for cls in (Box, Ball, Uniform, TruncatedGaussian, CustomDensity):
        monkeypatch.setattr(cls, "to_dict", refuse)
    gauss = TruncatedGaussian(mean=(0.3, 0.7), sd=(0.2, 0.2))
    for domain in (unit_box(2), Ball(center=(0.0, 0.0), radius=1.0)):
        for density in (Uniform(), gauss):
            ps = sample(domain, density, 16, 3)
            assert ps.points.shape == (16, 2)
            if isinstance(domain, Box):
                assert (ps.points >= 0.0).all() and (ps.points <= 1.0).all()
            else:
                assert (cross_distance_matrix(ps.points, [[0.0, 0.0]]) <= 1.0).all()


def test_sample_determinism_and_seed_sensitivity():
    a = sample(unit_box(3), Uniform(), 20, 5)
    b = sample(unit_box(3), Uniform(), 20, 5)
    c = sample(unit_box(3), Uniform(), 20, 6)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_box_validation_and_sampling():
    box = Box(lower=(-1.0, 0.0), upper=(1.0, 2.0))
    assert box.dimension == 2
    pts = box.sample_uniform(make_rng(3), 200)
    assert pts.shape == (200, 2)
    assert pts[:, 0].min() >= -1.0 and pts[:, 0].max() <= 1.0
    assert pts[:, 1].min() >= 0.0 and pts[:, 1].max() <= 2.0
    with pytest.raises(ValueError):
        Box(lower=(0.0, 0.0), upper=(1.0,))
    with pytest.raises(ValueError):
        Box(lower=(0.0, 1.0), upper=(1.0, 1.0))
    with pytest.raises(ValueError):
        Box(lower=(0.0,), upper=(math.inf,))


def test_distances_reject_mismatched_dimensions():
    # a one-coordinate side used to broadcast against d coordinates
    for a, b in (([[3.0]], [[0.0, 0.0]]), ([[0.0, 0.0]], [[3.0]]), ([3.0, 0.0], [[0.0, 0.0]]),
                 (np.zeros((2, 3)), np.zeros((4, 2)))):
        with pytest.raises(ValueError, match="one dimension d"):
            cross_distance_matrix(a, b)
    with pytest.raises(ValueError):
        pairwise_distance_matrix(np.zeros(3))
    with pytest.raises(ValueError, match=r"^distance buffer of shape \(2, 2\) does not hold "
                                         r"\(3, 4\)$"):
        cross_distance_matrix(np.zeros((3, 2)), np.zeros((4, 2)), out=np.empty((2, 2)))


def test_unit_box():
    box = unit_box(4)
    assert box.lower == (0.0,) * 4 and box.upper == (1.0,) * 4
    with pytest.raises(ValueError):
        unit_box(0)


def test_ball_validation_and_sampling():
    ball = Ball(center=(1.0, -2.0, 0.5), radius=1.5)
    assert ball.dimension == 3
    pts = ball.sample_uniform(make_rng(4), 500)
    radii = np.linalg.norm(pts - np.array(ball.center), axis=1)
    assert radii.max() <= 1.5 * (1.0 + 1e-12)
    # radial CDF r**d concentrates mass near the boundary
    assert np.median(radii) > 1.5 * 0.5
    with pytest.raises(ValueError):
        Ball(center=(0.0,), radius=0.0)
    with pytest.raises(ValueError):
        Ball(center=(0.0, math.nan), radius=1.0)


def test_truncated_gaussian_density():
    dens = TruncatedGaussian(mean=(0.5, 0.5), sd=(0.2, 0.3))
    assert dens.bound == 1.0
    assert dens.value(np.array([[0.5, 0.5]]))[0] == 1.0
    vals = dens.value(make_rng(1).random((100, 2)))
    assert (vals > 0.0).all() and (vals <= 1.0).all()
    with pytest.raises(ValueError):
        TruncatedGaussian(mean=(0.0,), sd=(0.0,))
    with pytest.raises(ValueError):
        TruncatedGaussian(mean=(0.0, 0.0), sd=(1.0,))


def test_rejection_sampling_concentrates_near_mode():
    dens = TruncatedGaussian(mean=(0.3, 0.7), sd=(0.1, 0.1))
    ps = sample(unit_box(2), dens, 3000, 11)
    assert ps.n == 3000
    assert (ps.points >= 0.0).all() and (ps.points <= 1.0).all()
    center = ps.points.mean(axis=0)
    assert abs(center[0] - 0.3) < 0.02 and abs(center[1] - 0.7) < 0.02


def test_custom_density_moment():
    # density 2 * x1 on the unit square has mean x1 = integral of 2x**2 = 2/3
    dens = CustomDensity(fn=lambda pts: 2.0 * pts[:, 0], bound=2.0)
    ps = sample(unit_box(2), dens, 4000, 13)
    assert abs(ps.points[:, 0].mean() - 2.0 / 3.0) < 0.03


def test_custom_density_bound_violation_detected():
    dens = CustomDensity(fn=lambda pts: 2.0 * pts[:, 0], bound=1.0)
    with pytest.raises(ValueError):
        sample(unit_box(2), dens, 50, 1)


def test_custom_density_negative_values_detected():
    dens = CustomDensity(fn=lambda pts: pts[:, 0] - 0.5, bound=1.0)
    with pytest.raises(ValueError):
        sample(unit_box(2), dens, 50, 1)


def test_sampling_error_when_cap_exhausted():
    # the cap is 10**6 proposals per point: n = 1 rejects a million of them
    dens = CustomDensity(fn=lambda pts: np.zeros(pts.shape[0]), bound=1.0)
    with pytest.raises(SamplingError, match="^rejection sampling used 1000000 proposals "):
        sample(unit_box(2), dens, 1, 1)


def test_sample_takes_no_proposal_cap():
    assert list(inspect.signature(sample).parameters) == ["domain", "density", "n", "seed"]


def test_sample_validation():
    with pytest.raises(ValueError):
        sample(unit_box(2), Uniform(), 0, 1)
    with pytest.raises(ValueError):
        sample(unit_box(2), TruncatedGaussian(mean=(0.5,), sd=(0.1,)), 5, 1)
    with pytest.raises(ValueError, match="^density bound must be a positive finite real$"):
        CustomDensity(fn=lambda pts: np.ones(pts.shape[0]), bound=0.0)
    short = CustomDensity(fn=lambda pts: np.ones(pts.shape[0] - 1), bound=1.0)
    with pytest.raises(ValueError, match="^density must return one value per proposal$"):
        sample(unit_box(2), short, 5, 1)


def test_point_set_min_distance():
    ps = PointSet([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
    assert _min_dist(ps) == 1.0
    assert ps.n == 3 and ps.dimension == 2
    assert _min_dist(PointSet([[2.0, 5.0]])) == math.inf
    assert _min_dist(PointSet([[1.0, 1.0], [1.0, 1.0]])) == 0.0


def test_point_set_validation():
    with pytest.raises(ValueError):
        PointSet([1.0, 2.0])
    with pytest.raises(ValueError):
        PointSet(np.empty((0, 2)))
    with pytest.raises(ValueError):
        PointSet([[math.nan, 0.0]])


def test_distance_matrices_match_brute_force():
    rng = make_rng(21)
    pts = rng.random((7, 3))
    other = rng.random((4, 3))
    pair = pairwise_distance_matrix(pts)
    cross = cross_distance_matrix(other, pts)
    for i in range(7):
        assert pair[i, i] == 0.0
        for j in range(7):
            assert pair[i, j] == pytest.approx(brute_distance(pts[i], pts[j]), abs=1e-14)
            assert pair[i, j] == pair[j, i]
    for i in range(4):
        for j in range(7):
            assert cross[i, j] == pytest.approx(brute_distance(other[i], pts[j]), abs=1e-14)


def test_cross_and_pairwise_agree_bitwise():
    # border vectors must reproduce matrix rows exactly, so the two distance
    # helpers have to agree to the last bit on shared inputs
    pts = make_rng(22).random((9, 2))
    assert np.array_equal(cross_distance_matrix(pts, pts), pairwise_distance_matrix(pts))


def test_chunked_distances_match_the_row_loop_bitwise():
    rng = make_rng(23)
    for d in range(1, 6):
        for m, n in ((1, 1), (500, 300), (37, 3000)):
            a, b = rng.random((m, d)), rng.random((n, d))
            assert np.array_equal(cross_distance_matrix(a, b), loop_cross_distance(a, b))
        # the 500-row case spans several chunks of rows of a
        assert 500 > 2 * (domains._CHUNK_ENTRIES // (300 * d))


def test_pairwise_distances_exactly_symmetric_across_chunks():
    pts = make_rng(24).random((400, 3))
    assert pts.shape[0] > 2 * (domains._CHUNK_ENTRIES // pts.size)
    dist = pairwise_distance_matrix(pts)
    assert np.array_equal(dist, dist.T)
    assert (np.diag(dist) == 0.0).all()
    assert np.array_equal(dist, loop_cross_distance(pts, pts))


def test_sphere_counterexample_exact_unit_distances():
    for dim, n in ((2, 3), (2, 5), (2, 9), (3, 7), (3, 12)):
        ps = sphere_counterexample(dim, n)
        assert ps.n == n and ps.dimension == dim
        dist = cross_distance_matrix(ps.points[1:], ps.points[:1])[:, 0]
        assert (dist == 1.0).all()
        assert _min_dist(ps) > 0.0


def test_sphere_counterexample_offcenter():
    center = (0.3, -0.7)
    ps = sphere_counterexample(2, 6, center)
    dist = cross_distance_matrix(ps.points[1:], ps.points[:1])[:, 0]
    assert (dist == 1.0).all()
    assert np.array_equal(ps.points[0], np.array(center))


@pytest.mark.parametrize("center", [(0.1, 0.7), (2.0, 3.0), (0.5, 0.5),
                                    (0.1, 0.7, 0.3), (2.0, 3.0, 1.0), (0.5, 0.5, 0.5)])
def test_sphere_counterexample_off_origin_up_to_40_points(center):
    # renormalization alone misses some satellites here; the exact search places them
    dim = len(center)
    ps = sphere_counterexample(dim, 40, center)
    dist = cross_distance_matrix(ps.points[1:], ps.points[:1])[:, 0]
    assert (dist == 1.0).all() and _min_dist(ps) > 0.0
    # each satellite sits within a few hundred ulps of its direction from the origin
    directions = sphere_counterexample(dim, 40).points
    assert np.abs(ps.points - np.array(center) - directions).max() < 1e-12
    for n in range(2, 40):
        assert np.array_equal(sphere_counterexample(dim, n, center).points, ps.points[:n])


@pytest.mark.parametrize("center", [
    (-0.09105638295397789, 3.543161285788292),
    (5.154576906165829, -0.051546090247621024),
    (-7.747726689188856, -1.8610439872138773, -9.993986197861542),
    (9.479688097047102, 0.0735395840115789, 5.0689307716781045),
])
def test_sphere_counterexample_where_single_ulp_steps_miss(center):
    # no ulp step of the free coordinate places some satellite here; the search's wide round
    # does, with the free offset at most 2 * sqrt(ulp) off, 8.4e-8 for coordinates below 16
    dim = len(center)
    ps = sphere_counterexample(dim, 40, center)
    dist = cross_distance_matrix(ps.points[1:], ps.points[:1])[:, 0]
    assert (dist == 1.0).all() and _min_dist(ps) > 0.0
    off = np.abs(ps.points - np.array(center) - sphere_counterexample(dim, 40).points).max()
    assert 1e-12 < off <= 8.4e-8


@pytest.mark.parametrize("center", [
    (273.9233746429086, -460.4265724722594),
    (273.9233746429086, -460.4265724722594, -918.0529521276106),
])
def test_sphere_counterexample_far_from_the_origin(center):
    # neither ulp steps nor the wide round place one satellite here (the 7th in 2-d, the 9th
    # in 3-d); the window-sized third round does, at most 7.7e-6 off for coordinates above 16
    dim = len(center)
    ps = sphere_counterexample(dim, 40, center)
    dist = cross_distance_matrix(ps.points[1:], ps.points[:1])[:, 0]
    assert (dist == 1.0).all() and _min_dist(ps) > 0.0
    off = np.abs(ps.points - np.array(center) - sphere_counterexample(dim, 40).points).max()
    assert 1e-12 < off <= 7.7e-6


def test_sphere_counterexample_validation():
    with pytest.raises(ValueError):
        sphere_counterexample(1, 3)
    with pytest.raises(ValueError):
        sphere_counterexample(2, 1)
    with pytest.raises(ValueError):
        sphere_counterexample(2, 3, center=(0.0,))


def test_points_csv_round_trip(tmp_path):
    pts = make_rng(31).random((6, 2)) * 10.0 - 5.0
    vals = make_rng(32).standard_normal(6)
    path = tmp_path / "pts.csv"
    write_points_csv(path, pts, vals)
    loaded, loaded_vals = read_points_csv(path)
    assert np.array_equal(loaded.points, pts)
    assert np.array_equal(loaded_vals, vals)

    bare = tmp_path / "bare.csv"
    write_points_csv(bare, pts)
    loaded, loaded_vals = read_points_csv(bare)
    assert np.array_equal(loaded.points, pts)
    assert loaded_vals is None


def test_points_csv_writer_rejects_malformed_tables(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="^points must form a 2-d array$"):
        write_points_csv(path, np.zeros(3))
    with pytest.raises(ValueError, match="^values must supply one number per point$"):
        write_points_csv(path, np.zeros((3, 2)), np.zeros(2))
    assert not path.exists()


def test_points_csv_rejects_malformed(tmp_path):
    cases = {
        "empty.csv": "",
        "header.csv": "a,b\n0,0\n",
        "order.csv": "x2,x1\n0,0\n",
        "ragged.csv": "x1,x2\n0.0,1.0\n2.0\n",
        "text.csv": "x1,x2\n0.0,foo\n",
        "nan.csv": "x1,x2\n0.0,nan\n",
        "norows.csv": "x1,x2\n",
    }
    for name, body in cases.items():
        path = tmp_path / name
        path.write_text(body)
        with pytest.raises(ValueError):
            read_points_csv(path)
    ragged = tmp_path / "ragged.csv"
    with pytest.raises(ValueError, match="row 3"):
        read_points_csv(ragged)
    text = tmp_path / "text3.csv"
    text.write_text("x1,x2\n0.0,1.0\n2.0,bar\n3.0,4.0\n")
    with pytest.raises(ValueError, match="row 3 contains a non-numeric field"):
        read_points_csv(text)


def test_unit_distance_construction_failure():
    # unit offsets are absorbed at this magnitude, so no satellite can land
    # at floating-point distance exactly 1 from the center
    with pytest.raises(ConstructionError):
        sphere_counterexample(2, 3, center=(1e300, 0.0))


def test_coinciding_satellites_are_refused(monkeypatch, run_cli):
    # -e_1 is placed as +e_1, so the third satellite of a planar set coincides with the first
    original = domains._unit_distance_point
    monkeypatch.setattr(domains, "_unit_distance_point",
                        lambda center, direction: original(center, np.abs(direction)))
    message = "could not place the requested number of distinct points"
    assert len(sphere_counterexample(2, 3).points) == 3
    with pytest.raises(ConstructionError, match=f"^{message}$"):
        sphere_counterexample(2, 4)
    code, out, err = run_cli(["counterexample", "--dim", "2", "--n", "4"])
    assert (code, out, err) == (1, "", f"error: {message}\n")
