"""Property tests of the binary NSF1 reader: the round trip and the header-extent and
payload-size refusals.

The examples are derandomized and bounded, so a rerun draws the same fields and
the module stays short.  Without hypothesis, which comes with the test extra,
the module skips.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from nsslice.fieldio import Field, FieldFormatError, read_field, write_field  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def fields(draw):
    """2D and 3D grids of 2 to 6 samples per axis, 1 or 3 components, positive
    extents and finite float64 samples."""
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=2, max_size=3)))
    ncomp = draw(st.sampled_from((1, 3)))
    extent = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    extents = tuple(draw(extent) for _ in dims)
    data = draw(hnp.arrays(np.float64, (ncomp,) + dims,
                           elements=st.floats(allow_nan=False, allow_infinity=False)))
    return Field(dims=dims, extents=extents, ncomp=ncomp, data=data)


@PROPERTY
@given(fld=fields())
def test_write_then_read_is_bitwise(tmp_path_factory, fld):
    path = tmp_path_factory.mktemp("nsf1") / "f.nsf1"
    write_field(fld, path)
    back = read_field(path)
    assert (back.dims, back.extents, back.ncomp) == (fld.dims, fld.extents, fld.ncomp)
    # bytes, not values: -0.0 and 0.0 compare equal
    assert back.data.tobytes() == fld.data.tobytes()


@PROPERTY
@given(fld=fields(), cut=st.integers(1, 8), extra=st.binary(min_size=1, max_size=8))
def test_payload_off_by_1_to_8_bytes_is_refused(tmp_path_factory, fld, cut, extra):
    path = tmp_path_factory.mktemp("nsf1") / "f.nsf1"
    write_field(fld, path)
    whole = path.read_bytes()
    path.write_bytes(whole[:-cut])
    with pytest.raises(FieldFormatError, match="truncated payload"):
        read_field(path)
    path.write_bytes(whole + extra)
    with pytest.raises(FieldFormatError, match="oversized payload"):
        read_field(path)


@PROPERTY
@given(fld=fields(), data=st.data(),
       bad=st.floats(max_value=0.0) | st.sampled_from((np.nan, np.inf)))
def test_non_positive_or_non_finite_header_extent_is_refused(tmp_path_factory, fld, data, bad):
    path = tmp_path_factory.mktemp("nsf1") / "f.nsf1"
    write_field(fld, path)
    header, rest = path.read_bytes().split(b"\n", 1)
    words = header.split()
    axis = data.draw(st.integers(0, fld.ndim_grid - 1))
    words[3 + fld.ndim_grid + axis] = repr(bad).encode()
    path.write_bytes(b" ".join(words) + b"\n" + rest)
    with pytest.raises(FieldFormatError, match="extents must be positive and finite"):
        read_field(path)
