import json

import numpy as np
import pytest

from nsslice.cli import EXIT_OK, main
from nsslice.fieldio import Field, TimeSeriesField, write_field
from nsslice.stratify import (
    INTERVAL_TOL_SLABS,
    IndicatorGrid,
    StratifyInconsistencyError,
    _longest_run,
    mask_from_field,
    slice_measures,
    stratification_verdict,
)


def one_frame(fld):
    return TimeSeriesField(times=np.array([0.0]), frames=(fld,))


def grid_from_mask(mask, extents=(1.0, 1.0, 1.0)):
    return IndicatorGrid(dims=mask.shape, extents=extents, mask=mask)


def ball_mask(n=32, radius=0.3, center=(0.5, 0.5, 0.5)):
    x = (np.arange(n) + 0.5) / n
    xx, yy, zz = np.meshgrid(x, x, x, indexing="ij")
    return (
        (xx - center[0]) ** 2 + (yy - center[1]) ** 2 + (zz - center[2]) ** 2
        < radius**2
    )


def test_mask_from_zero_field_empty():
    fld = Field(dims=(4, 4, 4), extents=(1.0, 1.0, 1.0), ncomp=3,
                data=np.zeros((3, 4, 4, 4)))
    mask = mask_from_field(one_frame(fld), 0.0)
    assert not mask.mask.any()
    assert mask.total_volume == 0.0


def test_mask_from_constant_field_full():
    fld = Field(dims=(4, 4, 4), extents=(1.0, 1.0, 1.0), ncomp=1,
                data=np.ones((1, 4, 4, 4)))
    mask = mask_from_field(one_frame(fld), 0.5)
    assert mask.mask.all()
    assert mask.total_volume == pytest.approx(1.0)


def test_mask_bump_volume_within_voxel_shell():
    # |w| > 0.5 for the bump max(0, 1 - r^2/R^2) is the ball r < R/sqrt(2)
    n = 48
    R = 0.4

    def bump(x, y, z):
        r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2 + (z - 0.5) ** 2
        return np.stack([np.maximum(0.0, 1.0 - r2 / R**2)])

    fld = Field.from_function((n, n, n), (1.0, 1.0, 1.0), 1, bump)
    mask = mask_from_field(one_frame(fld), 0.5)
    r_eff = R / np.sqrt(2.0)
    exact = 4.0 / 3.0 * np.pi * r_eff**3
    shell = 4.0 * np.pi * r_eff**2 * (np.sqrt(3.0) / n)  # one voxel-diagonal shell
    assert abs(mask.total_volume - exact) <= shell


def test_mask_from_time_series_is_union():
    # the series mask is the union of the frame masks: a voxel is in it when
    # |w| > eps at some frame, whichever frame that is
    rng = np.random.default_rng(11)
    data = rng.standard_normal((3, 3, 5, 6, 7))
    frames = tuple(
        Field(dims=(5, 6, 7), extents=(1.0, 2.0, 0.5), ncomp=3, data=d) for d in data
    )
    ts = TimeSeriesField(times=np.array([0.0, 0.5, 1.0]), frames=frames)
    mask = mask_from_field(ts, 1.5)
    per_frame = [mask_from_field(one_frame(f), 1.5).mask for f in frames]
    assert mask.dims == (5, 6, 7) and mask.extents == (1.0, 2.0, 0.5)
    assert np.array_equal(mask.mask, per_frame[0] | per_frame[1] | per_frame[2])
    # each frame contributes voxels the others lack
    for k in range(3):
        others = per_frame[(k + 1) % 3] | per_frame[(k + 2) % 3]
        assert (per_frame[k] & ~others).any()
    assert not mask.mask.all()


def test_one_frame_series_is_its_frame(tmp_path):
    rng = np.random.default_rng(5)
    fld = Field(dims=(8, 8, 8), extents=(1.0, 1.0, 1.0), ncomp=3,
                data=rng.standard_normal((3, 8, 8, 8)))
    write_field(fld, tmp_path / "w.nsf1")
    (tmp_path / "w.json").write_text(json.dumps({"times": [0.0], "frames": ["w.nsf1"]}))
    reports = []
    for name in ("w.nsf1", "w.json"):
        out = tmp_path / name.replace(".", "_")
        rc = main(["stratify", "--out", str(out),
                   "--set", f"io.w={tmp_path / name}", "--set", "stratify.eps=1.5"])
        assert rc == EXIT_OK
        payload = json.loads((out / "stratify_report.json").read_text())
        payload.pop("timestamp_utc")
        reports.append(payload)
    assert reports[0] == reports[1]


def test_slice_measures_full_cube_any_nslices():
    full = grid_from_mask(np.ones((16, 16, 16), bool))
    for nslices in (5, 7, 10, 16, 23):
        _, meas = slice_measures(full, (0.0, 0.0, 1.0), nslices)
        assert np.allclose(meas, 1.0, atol=1e-12)


def test_slice_measures_empty():
    empty = grid_from_mask(np.zeros((8, 8, 8), bool))
    _, meas = slice_measures(empty, (0.0, 0.0, 1.0), 8)
    assert np.all(meas == 0.0)


def test_slice_measures_half_cube_step():
    m = np.zeros((16, 16, 16), bool)
    m[:, :, :8] = True
    half = grid_from_mask(m)
    offsets, meas = slice_measures(half, (0.0, 0.0, 1.0), 16)
    assert np.allclose(meas[offsets < 0.5 - 1e-12], 1.0, atol=1e-12)
    assert np.allclose(meas[offsets > 0.5 + 1e-12], 0.0, atol=1e-12)


def test_grid_voxel_centers_follow_a_private_mask():
    # the grid copies its mask read-only, so the cached centres cannot go stale
    m = ball_mask(12, 0.3)
    grid = grid_from_mask(m, extents=(1.0, 2.0, 0.5))
    m[:] = False
    assert grid.mask.any() and not grid.mask.flags.writeable
    want = (np.argwhere(grid.mask) + 0.5) * np.array([1.0 / 12, 2.0 / 12, 0.5 / 12])
    assert np.array_equal(grid.voxel_centers, want)
    assert grid.voxel_centers is grid.voxel_centers
    with pytest.raises(ValueError):
        grid.mask[0, 0, 0] = True


def test_slice_measures_validation():
    full = grid_from_mask(np.ones((4, 4, 4), bool))
    with pytest.raises(ValueError):
        slice_measures(full, (1.0, 1.0, 0.0), 4)  # not unit
    with pytest.raises(ValueError):
        slice_measures(full, (0.0, 0.0, 1.0), 1)


def test_fubini_consistency_random_directions():
    rng = np.random.default_rng(3)
    mask = grid_from_mask(ball_mask(24, 0.35), extents=(1.0, 1.3, 0.8))
    for _ in range(5):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        offsets, meas = slice_measures(mask, tuple(d), 37)
        dbeta = offsets[1] - offsets[0]
        assert np.sum(meas) * dbeta == pytest.approx(mask.total_volume, rel=1e-12)


def test_ball_verdict_positive_interval_length():
    mask = grid_from_mask(ball_mask(32, 0.3))
    verdict = stratification_verdict(mask)
    assert verdict.positive and verdict.oracle_positive
    for profile in verdict.profiles[:3]:
        assert profile.positive
        assert profile.interval_length == pytest.approx(0.6, abs=0.08)


def test_interval_tol_is_two_slabs_on_an_oblique_direction():
    verdict = stratification_verdict(grid_from_mask(ball_mask(12, 0.3)), [(1.0, 2.0, 2.0)])
    profile = verdict.profiles[3]
    dbeta = profile.offsets[1] - profile.offsets[0]
    assert dbeta != pytest.approx(1.0 / 12)
    assert profile.interval_tol == INTERVAL_TOL_SLABS * dbeta


def test_single_layer_negative_perpendicular():
    m = np.zeros((16, 16, 16), bool)
    m[:, :, 7] = True
    verdict = stratification_verdict(grid_from_mask(m))
    # one slab of support: shorter than the two-slab interval threshold
    assert not verdict.profiles[2].positive
    assert verdict.profiles[0].positive and verdict.profiles[1].positive
    assert verdict.positive


def scattered_voxels():
    # 8 voxels, the volume threshold exactly, no two sharing a slab on any axis
    m = np.zeros((16, 16, 16), bool)
    i = np.arange(8)
    m[2 * i, (5 * i) % 16, (3 * i + 1) % 16] = True
    return m


def voxel_line():
    m = np.zeros((16, 16, 16), bool)
    m[7, 7, 6:9] = True
    return m


@pytest.mark.parametrize("mask", [scattered_voxels(), voxel_line()],
                         ids=["8-scattered-voxels", "1x1x3-line"])
def test_sparse_masks_negative_on_both_proxies(mask):
    # no axis slab holds more than 3 voxel faces and the volume is at most the
    # 8-voxel threshold, which a positive set must exceed: the oracle and the
    # axis families both read NEGATIVE, so nothing raises
    verdict = stratification_verdict(grid_from_mask(mask))
    assert not verdict.positive and not verdict.oracle_positive
    assert all(np.max(p.measures) < p.area_tol for p in verdict.profiles[:3])


def test_axis_thresholds_hold_exactly_at_the_boundary():
    # a 2x2x2 block and one far voxel: on every axis exactly two slabs carry
    # area_tol (4 voxel faces, 1/64, exact in binary), a run of exactly
    # INTERVAL_TOL_SLABS, and the 9 voxels exceed the 8-voxel oracle, so
    # both axis thresholds must count equality as reaching them
    m = np.zeros((16, 16, 16), bool)
    m[4:6, 4:6, 4:6] = True
    m[12, 12, 12] = True
    verdict = stratification_verdict(grid_from_mask(m))
    assert verdict.positive and verdict.oracle_positive
    for profile in verdict.profiles:
        assert profile.area_tol == 0.015625
        assert np.count_nonzero(profile.measures == profile.area_tol) == 2
        assert profile.best_run_slabs == INTERVAL_TOL_SLABS
        assert profile.positive


@pytest.mark.parametrize("extent", [1.0, 1e-12])
def test_verdict_independent_of_box_units(extent):
    # 5 voxels on the plane i + j + k = 3, all in one slab of the (1, 1, 1)
    # family: one slab is below the two-slab interval threshold in any units
    m = np.zeros((16, 16, 16), bool)
    for voxel in ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 1, 0)):
        m[voxel] = True
    verdict = stratification_verdict(grid_from_mask(m, (extent,) * 3), [(1.0, 1.0, 1.0)])
    assert not verdict.positive and not verdict.oracle_positive
    assert verdict.profiles[3].best_run_slabs == 1 and not verdict.profiles[3].positive


def test_directions_normalized_then_deduplicated():
    mask = grid_from_mask(ball_mask(12, 0.3))
    verdict = stratification_verdict(mask, [(2.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                                            (3.0, 3.0, 3.0), (0.0, -1.0, 1.0)])
    dirs = np.array([p.direction for p in verdict.profiles])
    want = [*np.eye(3), np.full(3, 3.0 ** -0.5), [0.0, -0.5 ** 0.5, 0.5 ** 0.5]]
    assert dirs.shape == (5, 3)
    assert np.allclose(dirs, want, rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError, match="not a nonzero finite vector"):
        stratification_verdict(mask, [(1.0, 1.0, 1.0), (0.0, 0.0, 0.0)])


def test_opposite_directions_are_one_family():
    # a direction and its opposite slice by the same planes, offsets reversed:
    # only the first one met is tested, the x axis before (-1, 0, 0)
    cube = np.zeros((12, 12, 12), bool)
    cube[3:9, 3:9, 3:9] = True
    verdict = stratification_verdict(grid_from_mask(cube), [(-1.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                                                            (-1.0, -1.0, -1.0)])
    dirs = np.array([p.direction for p in verdict.profiles])
    assert dirs.shape == (4, 3)
    assert np.allclose(dirs, [*np.eye(3), np.full(3, 3.0 ** -0.5)], rtol=0.0, atol=1e-15)
    assert verdict.positive


def test_empty_mask_negative_everywhere():
    verdict = stratification_verdict(grid_from_mask(np.zeros((8, 8, 8), bool)))
    assert not verdict.positive
    assert not verdict.oracle_positive
    assert all(not p.positive for p in verdict.profiles)


def test_verdict_monotone_in_eps():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((1, 16, 16, 16))
    fld = Field(dims=(16, 16, 16), extents=(1.0, 1.0, 1.0), ncomp=1, data=data)
    flips = 0
    prev_positive = None
    for eps in (0.0, 0.5, 1.0, 2.0, 5.0):
        mask = mask_from_field(one_frame(fld), eps)
        try:
            verdict = stratification_verdict(mask)
            positive = verdict.positive
        except StratifyInconsistencyError:
            pytest.fail("oracle disagreement on a nested mask family")
        if prev_positive is not None and positive and not prev_positive:
            flips += 1
        prev_positive = positive
    assert flips == 0  # raising eps never turns NEGATIVE into POSITIVE


def test_axis_permutation_invariance():
    rng = np.random.default_rng(11)
    m = rng.random((8, 10, 12)) < 0.4
    mask = grid_from_mask(m, extents=(1.0, 1.0, 1.0))
    base_offsets, base_meas = slice_measures(mask, (1.0, 0.0, 0.0), 9)
    perm = (2, 0, 1)  # x->z, y->x, z->y
    permuted = grid_from_mask(np.transpose(m, perm), extents=(1.0, 1.0, 1.0))
    direction = np.zeros(3)
    direction[perm.index(0)] = 1.0
    off2, meas2 = slice_measures(permuted, tuple(direction), 9)
    assert np.array_equal(base_offsets, off2)
    assert np.array_equal(base_meas, meas2)


def test_verdict_oracle_agreement_50_random_masks():
    rng = np.random.default_rng(2718)
    for trial in range(50):
        kind = trial % 3
        if kind == 0:
            p = rng.uniform(0.15, 0.9)
            m = rng.random((12, 12, 12)) < p
        elif kind == 1:
            m = np.zeros((12, 12, 12), bool)  # empty
        else:
            m = ball_mask(16, rng.uniform(0.2, 0.45))
        verdict = stratification_verdict(grid_from_mask(m))  # raises on mismatch
        assert verdict.oracle_positive == any(p_.positive for p_ in verdict.profiles[:3])


def test_indicator_grid_validation():
    with pytest.raises(ValueError):
        IndicatorGrid(dims=(1, 4, 4), extents=(1.0, 1.0, 1.0),
                      mask=np.zeros((1, 4, 4), bool))
    with pytest.raises(ValueError):
        IndicatorGrid(dims=(4, 4), extents=(1.0, 1.0),
                      mask=np.zeros((4, 4), bool))
    with pytest.raises(ValueError):
        IndicatorGrid(dims=(4, 4, 4, 2), extents=(1.0, 1.0, 1.0, 1.0),
                      mask=np.zeros((4, 4, 4, 2), bool))
    with pytest.raises(ValueError):
        mask_from_field(
            one_frame(Field(dims=(4, 4, 4), extents=(1.0, 1.0, 1.0), ncomp=1,
                            data=np.zeros((1, 4, 4, 4)))),
            -1.0,
        )


@pytest.mark.parametrize(
    "flags, run",
    [([True, False, False], 1), ([False, True], 1), ([True, True, False, True], 2), ([], 0)],
    ids=["first", "last", "longest-of-two", "empty"],
)
def test_longest_run_counts_consecutive_flags(flags, run):
    assert _longest_run(np.array(flags, dtype=bool)) == run
