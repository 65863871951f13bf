import numpy as np
import pytest

from nsslice.fieldio import (
    Field,
    FieldFormatError,
    NonFiniteSampleError,
    SliceOutsideDomainError,
    TimeSeriesField,
    read_field,
    restrict_to_slice,
    trilinear_sample,
    write_field,
)
from nsslice.geometry import Hyperplane, make_chart


def random_field(rng, dims=(8, 8, 8), ncomp=3):
    data = rng.standard_normal((ncomp,) + dims)
    return Field(dims=dims, extents=tuple(1.0 for _ in dims), ncomp=ncomp, data=data)


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    fld = random_field(rng)
    path = tmp_path / "f.nsf1"
    write_field(fld, path)
    back = read_field(path)
    assert back.dims == fld.dims
    assert back.extents == fld.extents
    assert back.ncomp == fld.ncomp
    assert np.array_equal(back.data, fld.data)  # bitwise


def test_text_payload_refused(tmp_path):
    # binary is the one payload mode: a text payload is refused
    path = tmp_path / "text.nsf1"
    values = " ".join(str(float(i)) for i in range(16))
    path.write_bytes(f"NSF1 2 4 4 1 1.0 1.0\ntext\n{values}\n".encode())
    with pytest.raises(FieldFormatError, match="unknown payload mode 'text'"):
        read_field(path)


def test_truncated_payload(tmp_path):
    # a written field that lost its last value
    path = tmp_path / "trunc.nsf1"
    write_field(random_field(np.random.default_rng(2), dims=(4, 5, 3)), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FieldFormatError, match="truncated payload: 1432 bytes, expected 1440"):
        read_field(path)


# a 4 x 4 one-component field holds 16 doubles: 128 payload bytes
HEADER_4X4 = b"NSF1 2 4 4 1 1.0 1.0\nbinary\n"
DOUBLES = np.arange(32, dtype="<f8").tobytes()


def test_truncated_binary_payload(tmp_path):
    # 119 to 127 bytes: whole values missing and a partial trailing value
    path = tmp_path / "trunc.bin.nsf1"
    for nbytes in range(128 - 9, 128):
        path.write_bytes(HEADER_4X4 + DOUBLES[:nbytes])
        with pytest.raises(FieldFormatError, match=f"truncated payload: {nbytes} bytes"):
            read_field(path)


def test_oversized_payload(tmp_path):
    # 129 to 137 bytes: a partial trailing value and whole extra values
    path = tmp_path / "over.nsf1"
    for nbytes in range(128 + 1, 128 + 10):
        path.write_bytes(HEADER_4X4 + DOUBLES[:nbytes])
        with pytest.raises(FieldFormatError, match=f"oversized payload: {nbytes} bytes"):
            read_field(path)
    # two written fields concatenated into one file
    write_field(random_field(np.random.default_rng(3), dims=(4, 4), ncomp=1), path)
    path.write_bytes(path.read_bytes() * 2)
    with pytest.raises(FieldFormatError, match="oversized"):
        read_field(path)


def test_nan_sample_rejected(tmp_path):
    path = tmp_path / "nan.nsf1"
    values = np.ones(16, dtype="<f8")
    values[5] = np.nan
    path.write_bytes(HEADER_4X4 + values.tobytes())
    with pytest.raises(NonFiniteSampleError):
        read_field(path)


def test_malformed_header(tmp_path):
    path = tmp_path / "bad.nsf1"
    path.write_bytes(b"NSF9 2 4 4 1 1.0 1.0\nbinary\n" + DOUBLES[:128])
    with pytest.raises(FieldFormatError):
        read_field(path)
    path.write_bytes(b"NSF1 2 4\nbinary\n")
    with pytest.raises(FieldFormatError):
        read_field(path)
    # impossible headers are malformed, whatever payload follows
    impossible = [
        b"NSF1 2 -4 -4 3 1 1\nbinary\n" + DOUBLES + DOUBLES[:128],    # negative dims
        b"NSF1 2 4 4 0 1.0 1.0\nbinary\n",                           # no component
        b"NSF1 3 4294967296 4294967296 2 1 1.0 1.0 1.0\nbinary\n",   # 2^65 values
        b"NSF1 3 -8 8 8 3 1.0 1.0 1.0\nbinary\n" + DOUBLES[:16],     # negative size
        b"NSF1 1 16 1 1.0\nbinary\n" + DOUBLES[:128],                # a 1D grid
    ]
    for content in impossible:
        path.write_bytes(content)
        with pytest.raises(FieldFormatError, match="malformed header"):
            read_field(path)
    # so is a box that is not finite; 1e400 parses as inf
    for extent in (b"nan", b"inf", b"1e400"):
        path.write_bytes(b"NSF1 2 4 4 1 1.0 " + extent + b"\nbinary\n" + DOUBLES[:128])
        with pytest.raises(FieldFormatError, match="extents must be positive and finite"):
            read_field(path)


def test_field_invariants():
    with pytest.raises(FieldFormatError):
        Field(dims=(1, 4), extents=(1.0, 1.0), ncomp=1, data=np.zeros((1, 1, 4)))
    with pytest.raises(FieldFormatError):
        Field(dims=(4, 4), extents=(1.0, -1.0), ncomp=1, data=np.zeros((1, 4, 4)))
    with pytest.raises(FieldFormatError):
        Field(dims=(4, 4), extents=(1.0, 1.0), ncomp=2, data=np.zeros((2, 4, 4)))
    with pytest.raises(FieldFormatError):
        Field(dims=(4, 4), extents=(1.0, 1.0), ncomp=1, data=np.zeros((1, 4, 3)))
    with pytest.raises(NonFiniteSampleError):
        Field(dims=(4, 4), extents=(1.0, 1.0), ncomp=1, data=np.full((1, 4, 4), np.inf))


@pytest.mark.parametrize("dims", [(4, 5), (4, 5, 3)])
def test_field_takes_only_component_first_data(dims):
    # component-last or flat samples of the right size are rejected, not
    # reshaped (a reshape would transpose the grid); from_flat is the one
    # route from payload order and round-trips bit for bit
    fld = random_field(np.random.default_rng(len(dims)), dims=dims)
    for data in (np.moveaxis(fld.data, 0, -1), fld.flat_samples(), fld.data.ravel()):
        with pytest.raises(FieldFormatError, match="data shape"):
            Field(dims=fld.dims, extents=fld.extents, ncomp=3, data=data)
    back = Field.from_flat(fld.dims, fld.extents, fld.ncomp, fld.flat_samples())
    assert np.array_equal(back.data, fld.data)


def test_timeseries_invariants():
    rng = np.random.default_rng(0)
    f1 = random_field(rng)
    f2 = random_field(rng)
    with pytest.raises(FieldFormatError):
        TimeSeriesField(times=np.array([0.0, 0.0]), frames=(f1, f2))
    # NaN compares False in the increasing check, so finiteness is its own check
    for bad in ([0.0, np.nan], [np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(FieldFormatError, match="times must be finite"):
            TimeSeriesField(times=np.array(bad), frames=(f1, f2))
    with pytest.raises(FieldFormatError):
        TimeSeriesField(times=np.array([0.0]), frames=(f1, f2))
    small = random_field(rng, dims=(4, 4, 4))
    with pytest.raises(FieldFormatError):
        TimeSeriesField(times=np.array([0.0, 1.0]), frames=(f1, small))
    ok = TimeSeriesField(times=np.array([0.0, 1.0]), frames=(f1, f2))
    assert len(ok) == 2


def test_flat_sample_order_x_fastest():
    # payload must advance the first grid axis fastest within each component
    data = np.arange(2 * 3 * 2, dtype=float).reshape(1, 2, 3, 2)
    fld = Field(dims=(2, 3, 2), extents=(1.0, 1.0, 1.0), ncomp=1, data=data)
    flat = fld.flat_samples()
    expect = [data[0, i, j, k] for k in range(2) for j in range(3) for i in range(2)]
    assert np.array_equal(flat, np.array(expect))


@pytest.mark.parametrize("dims", [(5, 4), (5, 4, 3)])
@pytest.mark.parametrize("ncomp", [1, 3])
def test_payload_order_matches_per_component_layout(dims, ncomp):
    # reference: each component raveled first-axis-fastest, components in turn
    data = np.random.default_rng(7).standard_normal((ncomp,) + dims)
    fld = Field(dims=dims, extents=(1.0,) * len(dims), ncomp=ncomp, data=data)
    expect = np.concatenate([data[c].ravel(order="F") for c in range(ncomp)])
    flat = fld.flat_samples()
    assert flat.flags.c_contiguous and np.array_equal(flat, expect)
    back = Field.from_flat(dims, fld.extents, ncomp, expect)
    assert np.array_equal(back.data, data) and np.shares_memory(back.data, expect)


def test_restrict_constant_field():
    fld = Field(dims=(9, 9, 9), extents=(1.0, 1.0, 1.0), ncomp=3,
                data=np.full((3, 9, 9, 9), 2.5))
    chart = make_chart(Hyperplane.from_vector((1.0, 0.0, 1.0), 0.6))
    out = restrict_to_slice(fld, chart, (11, 7))
    assert out.dims == (11, 7)
    assert np.allclose(out.data, 2.5, atol=1e-14)


def test_restrict_linear_exactness():
    def f(x, y, z):
        return np.stack([z, x + 2 * y - z, 0 * x + 1.0])

    fld = Field.from_function((9, 9, 9), (1.0, 1.0, 1.0), 3, f)
    chart = make_chart(Hyperplane((0.0, 0.0, 1.0), 0.5))
    out = restrict_to_slice(fld, chart, (13, 13))
    assert np.allclose(out.data[0], 0.5, atol=1e-13)
    xs = out.axis_coords(0)
    ys = out.axis_coords(1)
    expect = xs[:, None] + 2 * ys[None, :] - 0.5
    assert np.allclose(out.data[1], expect, atol=1e-13)


def test_restrict_trig_convergence_rate():
    def f(x, y, z):
        return np.stack([np.sin(1.3 * x + 0.4) * np.cos(0.9 * y) * np.sin(1.1 * z + 0.15)])

    chart = make_chart(Hyperplane.from_vector((1.0, 0.0, 1.0), 0.75))
    errs = []
    for n in (17, 33, 65):
        fld = Field.from_function((n, n, n), (1.0, 1.0, 1.0), 1, f)
        out = restrict_to_slice(fld, chart, (21, 21))
        s = out.axis_coords(0)
        t = out.axis_coords(1)
        ss, tt = np.meshgrid(s, t, indexing="ij")
        pts3 = chart.lift(np.column_stack([ss.ravel(), tt.ravel()]))
        exact = f(pts3[:, 0], pts3[:, 1], pts3[:, 2])[0].reshape(21, 21)
        errs.append(np.max(np.abs(out.data[0] - exact)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 1.9)


def test_restrict_outside_domain_errors():
    fld = Field(dims=(9, 9, 9), extents=(1.0, 1.0, 1.0), ncomp=1,
                data=np.zeros((1, 9, 9, 9)))
    # hexagonal section: the square's corners lift outside the cube
    chart = make_chart(Hyperplane.from_vector((1.0, 1.0, 1.0), 1.5))
    with pytest.raises(SliceOutsideDomainError, match="is not a rectangle"):
        restrict_to_slice(fld, chart, (9, 9))
    # plane missing the cube entirely
    miss = make_chart(Hyperplane((0.0, 0.0, 1.0), 3.0))
    with pytest.raises(SliceOutsideDomainError, match="is empty or degenerate"):
        restrict_to_slice(fld, miss, (9, 9))


def test_trilinear_outside_point_reported_as_plain_floats():
    fld = Field(dims=(4, 4, 4), extents=(1.0, 1.0, 1.0), ncomp=1, data=np.zeros((1, 4, 4, 4)))
    with pytest.raises(SliceOutsideDomainError, match=r"point \(0\.0, 0\.0, 1\.5\)") as excinfo:
        trilinear_sample(fld, np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 1.5]]))
    assert "np.float64" not in str(excinfo.value)
    assert "box [0, (1.0, 1.0, 1.0)]" in str(excinfo.value)


def test_trilinear_affine_exactness():
    rng = np.random.default_rng(5)
    coef = rng.standard_normal(4)

    def f(x, y, z):
        return np.stack([coef[0] + coef[1] * x + coef[2] * y + coef[3] * z])

    fld = Field.from_function((6, 7, 8), (1.0, 2.0, 0.5), 1, f)
    pts = rng.random((40, 3)) * np.array([1.0, 2.0, 0.5])
    vals = trilinear_sample(fld, pts)
    exact = coef[0] + pts @ coef[1:]
    assert np.allclose(vals[0], exact, atol=1e-13)


def _read_bytes(content):
    def read(tmp_path):
        path = tmp_path / "f.nsf1"
        path.write_bytes(content)
        return read_field(path)
    return read


def _field_2d():
    return Field(dims=(4, 4), extents=(1.0, 1.0), ncomp=1, data=np.zeros((1, 4, 4)))


@pytest.mark.parametrize("call, exc, fragment", [
    pytest.param(lambda tmp_path: Field(dims=(4, 4), extents=(1.0,), ncomp=1,
                                        data=np.zeros((1, 4, 4))),
                 FieldFormatError, "dims/extents must both be length 2 or 3", id="extents-length"),
    pytest.param(lambda tmp_path: Field.from_flat((4, 4), (1.0, 1.0), 1, np.zeros(15)),
                 FieldFormatError, "payload has 15 samples, expected 16", id="from-flat-size"),
    pytest.param(lambda tmp_path: TimeSeriesField(times=np.array([]), frames=()),
                 FieldFormatError, "time series must be nonempty", id="empty-series"),
    pytest.param(_read_bytes(b"NSF1 2 4 4 1 1.0 1.0"), FieldFormatError, "missing header line",
                 id="no-header-line"),
    pytest.param(_read_bytes(b"NSF1 2 4 4 1 1.0 1.0\nbinary"), FieldFormatError,
                 "missing payload-mode line", id="no-mode-line"),
    pytest.param(_read_bytes(b"NSF1 2 4 4 1 1.0 1.0\xb5\nbinary\n" + DOUBLES[:128]),
                 FieldFormatError, "header is not ASCII", id="non-ascii-header"),
    pytest.param(lambda tmp_path: trilinear_sample(_field_2d(), np.zeros((1, 3))),
                 ValueError, "trilinear_sample needs a 3D field", id="trilinear-2d"),
    pytest.param(lambda tmp_path: restrict_to_slice(
                     _field_2d(), make_chart(Hyperplane((0.0, 0.0, 1.0), 0.5)), (4, 4)),
                 ValueError, "restrict_to_slice needs a 3D field", id="restrict-2d"),
])
def test_fieldio_refusals(tmp_path, call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call(tmp_path)
