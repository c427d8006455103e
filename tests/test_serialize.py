import dataclasses
import datetime
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimoves.fixtures import grid_torus_complex
from trimoves.pachner import PachnerMove, sequence_from_moves
from trimoves.serialize import (
    FormatError,
    complex_from_dict,
    complex_to_dict,
    dumps,
    geom_complex_from_dict,
    geom_complex_to_dict,
    loads,
    move_from_dict,
    sequence_from_dict,
    sequence_to_dict,
    subdivided_from_dict,
    subdivided_to_dict,
)
from trimoves.subdivision import barycentric
from .test_complexes import boundary_delta3


class TestComplexFormat:
    def test_round_trip(self):
        k = boundary_delta3()
        assert complex_from_dict(complex_to_dict(k)) == k

    def test_loader_closes_under_faces(self):
        k = complex_from_dict({"maximal_simplexes": [[1, 2, 3]]})
        assert len(k) == 7

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(FormatError):
            complex_from_dict({"dimension": 3, "maximal_simplexes": [[1, 2]]})

    def test_vertex_list_checked(self):
        with pytest.raises(FormatError):
            complex_from_dict({"vertices": [1, 9], "maximal_simplexes": [[1, 2]]})

    def test_malformed_json(self):
        with pytest.raises(FormatError):
            loads("{oops")
        with pytest.raises(FormatError):
            loads("[1, 2]")


class TestSubdividedFormat:
    def test_round_trip_with_carriers(self):
        sub = barycentric(boundary_delta3())
        data = subdivided_to_dict(sub)
        back = subdivided_from_dict(data)
        assert back.complex == sub.complex
        assert back.vertex_carrier == sub.vertex_carrier
        assert all(back.carrier(s) == sub.carrier(s) for s in sub.complex.simplexes)
        assert back.apex_of == sub.apex_of

    def test_broken_carrier_rejected(self):
        sub = barycentric(boundary_delta3())
        data = subdivided_to_dict(sub)
        last = tuple(data["carrier"].pop()[0])
        with pytest.raises(FormatError, match=f"^no carrier entry for {re.escape(str(last))}$"):
            subdivided_from_dict(data)


class TestSequenceFormat:
    def test_round_trip(self):
        k = boundary_delta3()
        seq = sequence_from_moves(k, [PachnerMove((1, 2, 3), (5,))])
        data = sequence_to_dict(seq)
        assert data["moves"][0]["fresh"] == [5]
        assert sequence_from_dict(data) == seq

    def test_move_simplexes_canonicalised(self):
        move = move_from_dict({"A": [3, 2, 1], "B": [5]})
        assert move == PachnerMove((1, 2, 3), (5,))

    @pytest.mark.parametrize(
        "a, b",
        [([1, 1, 2], [5]), ([], [1, 2, 3, 4]), ([1, 2, 3], [-5]), ([1, 2], [2, 4])],
        ids=["duplicate", "empty", "negative", "overlap"],
    )
    def test_bad_move_simplex_rejected(self, a, b):
        with pytest.raises(FormatError, match="bad move data"):
            move_from_dict({"A": a, "B": b})
        k = boundary_delta3()
        data = sequence_to_dict(sequence_from_moves(k, [PachnerMove((1, 2, 3), (5,))]))
        data["moves"][0].update(A=a, B=b)
        with pytest.raises(FormatError, match="bad move data"):
            sequence_from_dict(data)


class TestGeomFormat:
    def test_torus_round_trip(self):
        gk = grid_torus_complex(3)
        back = geom_complex_from_dict(geom_complex_to_dict(gk))
        assert back.complex == gk.complex
        assert back.period == gk.period
        for v in gk.complex.vertices():
            assert np.allclose(back.coords[v], gk.coords[v])

    def test_missing_coordinates_rejected(self):
        gk = grid_torus_complex(3)
        data = geom_complex_to_dict(gk)
        del data["coordinates"]["0"]
        with pytest.raises(FormatError):
            geom_complex_from_dict(data)

    @pytest.mark.parametrize(
        "x", [10**400, -(10**400), float("inf"), float("nan")],
        ids=["huge-int", "negative-huge-int", "infinity", "nan"],
    )
    def test_non_finite_coordinate_rejected(self, x):
        # float() of the int overflowed out of the loader as OverflowError
        data = geom_complex_to_dict(grid_torus_complex(3))
        data["coordinates"]["0"] = [x, 0.0]
        with pytest.raises(FormatError, match="coordinate .* is not a finite number"):
            geom_complex_from_dict(loads(json.dumps(data)))

    def test_dumps_sorted_and_stable(self):
        gk = grid_torus_complex(3)
        assert dumps(geom_complex_to_dict(gk)) == dumps(geom_complex_to_dict(gk))
        assert dumps(geom_complex_to_dict(gk)) == json_dumps(geom_complex_to_dict(gk))


@dataclasses.dataclass
class Point:
    x: int
    y: int


def json_dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(),
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=30,
)


class TestDumps:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_equals_json_dumps(self, data):
        assert dumps(data) == json_dumps(data)

    @pytest.mark.parametrize(
        "data",
        [
            {},
            [],
            {"a": [], "b": {}, "c": [[]], "d": [{}]},
            {"ints": [1, -2, 3], "mixed": [1, True, None, 1.5, "x"]},
            {"é\n\"": "\u2603\t", "": [float("nan"), float("inf"), -0.0, 1e300]},
            {"bools": [True, False], "nested": {"x": [[1, 2], [3]]}},
            (1, (2, 3), [4]),
            {"big": 2**64 + 1, "neg": -(2**63)},
            # json sorts and converts keys that are not strs itself
            {2: [1], 1: "a"},
            {"a": {None: 1}, "b": {True: 2, 0: 3}},
            {"a": {1.5: 2}},
            # DEL and control characters, which orjson writes unescaped or
            # differently, in keys and values
            {"\x7f": "\x1f", "\x1f": ["\x7f", "a\x7fb"]},
            # floats orjson writes in other forms (0.00001, 1e16)
            {"f": [1e-05, 1e16, 9.999e15, 5e-324, -1e-05, 1e-7, 123456789012345680.0]},
            # ints orjson rejects, inside a list
            {"ints": [1, 2**64, -(2**64) - 1, 2**64 - 1]},
        ],
    )
    def test_equals_json_dumps_on_edge_values(self, data):
        assert dumps(data) == json_dumps(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"when": datetime.datetime(2020, 1, 2, 3, 4, 5)},
            {"point": [Point(1, 2)]},
            {"v": {1, 2}},
            {"a": [1, b"bytes"]},
        ],
        ids=["datetime", "dataclass", "set", "bytes"],
    )
    def test_raises_what_json_raises(self, data):
        # orjson writes datetimes and dataclasses; json rejects them, and so
        # must dumps
        with pytest.raises(TypeError) as expected:
            json_dumps(data)
        with pytest.raises(TypeError) as got:
            dumps(data)
        assert str(got.value) == str(expected.value)
