"""JSON formats for complexes, subdivisions, moves, and geometric data.

Loaders close under faces and validate; writers emit sorted, canonical
structures so identical inputs produce byte-identical files.
"""
from __future__ import annotations

import json
import math
import sys

import numpy as np
import orjson

from .complexes import Complex, close_under_faces, simplex
from .geometry import GeomComplex, Geometry
from .intersect import CommonSubdivision, PolytopalComplex
from .pachner import MoveSequence, PachnerMove
from .subdivision import SubdividedComplex


class FormatError(Exception):
    pass


def json_int(value, what: str = "vertex label") -> int:
    """``value`` if it is a JSON integer.  A float, bool or string is a
    TypeError, where ``int()`` would truncate or coerce it."""
    if type(value) is not int:
        raise TypeError(f"{what} {value!r} is not an integer")
    return value


def json_number(value, what: str):
    """``value`` if it is a JSON int or float that converts to a finite
    float.  A bool or string is a TypeError; an infinity, a NaN or an int
    too large for a float is a ValueError."""
    if type(value) not in (int, float):
        raise TypeError(f"{what} {value!r} is not a number")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{what} {value!r} is not a finite number")
    return value


def complex_to_dict(k: Complex) -> dict:
    return {
        "dimension": k.dimension,
        "vertices": k.vertices(),
        "maximal_simplexes": [list(s) for s in k.maximal_simplexes()],
    }


def complex_from_dict(data: dict) -> Complex:
    try:
        maxes = data["maximal_simplexes"]
    except (KeyError, TypeError) as e:
        raise FormatError("missing maximal_simplexes") from e
    try:
        k = close_under_faces([tuple(json_int(v) for v in s) for s in maxes])
    except (ValueError, TypeError) as e:
        raise FormatError(f"bad simplex data: {e}") from e
    if "dimension" in data and data["dimension"] != k.dimension:
        raise FormatError(
            f"declared dimension {data['dimension']} != actual {k.dimension}"
        )
    try:
        declared = sorted(json_int(v) for v in data.get("vertices", k.vertices()))
    except TypeError as e:
        raise FormatError(f"bad vertex list: {e}") from e
    if declared != k.vertices():
        raise FormatError("declared vertex set differs from the simplexes")
    return k


def _carrier_rows(sub: SubdividedComplex) -> list:
    """[simplex, carrier] for every simplex of ``sub``, sorted."""
    return [[list(s), list(sub.carrier(s))] for s in sorted(sub.complex.simplexes)]


def subdivided_to_dict(sub: SubdividedComplex) -> dict:
    out = complex_to_dict(sub.complex)
    out["parent"] = complex_to_dict(sub.parent)
    out["carrier"] = _carrier_rows(sub)
    if sub.apex_of:
        out["barycenters"] = [[list(s), v] for s, v in sorted(sub.apex_of.items())]
    return out


def subdivided_from_dict(data: dict) -> SubdividedComplex:
    """A validated subdivision.  The file needs exactly one carrier entry per
    simplex of the child, each the union of its vertices' entries; any
    other entry is a FormatError naming it."""
    parent = complex_from_dict(data["parent"])
    child = complex_from_dict(data)
    try:
        entries = [
            (tuple(json_int(v) for v in c), tuple(json_int(v) for v in p))
            for c, p in data["carrier"]
        ]
        apex_of = {
            tuple(json_int(v) for v in s): json_int(b)
            for s, b in data.get("barycenters", [])
        }
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad carrier or barycenter data: {e}") from e
    carrier: dict = {}
    for c, p in entries:
        if c not in child:
            raise FormatError(f"carrier entry for {c}, which is not a simplex of the subdivision")
        if c in carrier:
            raise FormatError(f"repeated carrier entry for {c}")
        carrier[c] = p
    if len(carrier) < len(child):
        raise FormatError(f"no carrier entry for {min(child.simplexes - carrier.keys())}")
    vertex_carrier = {c[0]: p for c, p in carrier.items() if len(c) == 1}
    sub = SubdividedComplex(child, parent, vertex_carrier, apex_of)
    for c, p in carrier.items():
        if sub.carrier(c) != p:
            raise FormatError(
                f"carrier entry {c} -> {p} is not the union of its vertices' "
                f"carriers, {sub.carrier(c)}"
            )
    sub.validate()
    return sub


def move_to_dict(m: PachnerMove) -> dict:
    return {"A": list(m.a), "B": list(m.b), "fresh": sorted(m.added_vertices)}


def move_from_dict(data: dict) -> PachnerMove:
    """A move whose A and B are canonicalised like a complex's simplexes: an
    empty, duplicated or negative vertex list, or a label that is not an
    integer, is a FormatError."""
    try:
        return PachnerMove(
            simplex(json_int(v) for v in data["A"]), simplex(json_int(v) for v in data["B"])
        )
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad move data: {e}") from e


def sequence_to_dict(seq: MoveSequence) -> dict:
    return {
        "start_digest": seq.start_digest,
        "end_digest": seq.end_digest,
        "moves": [move_to_dict(m) for m in seq.moves],
    }


def sequence_from_dict(data: dict) -> MoveSequence:
    try:
        return MoveSequence(
            tuple(move_from_dict(m) for m in data["moves"]),
            str(data["start_digest"]),
            str(data["end_digest"]),
        )
    except (KeyError, TypeError) as e:
        raise FormatError(f"bad sequence data: {e}") from e


def geom_complex_to_dict(gk: GeomComplex) -> dict:
    out = complex_to_dict(gk.complex)
    out["geometry"] = gk.tag.value
    out["coordinates"] = {
        str(v): [float(x) for x in gk.coords[v]] for v in gk.complex.vertices()
    }
    if gk.period is not None:
        out["torus_period"] = gk.period
    return out


def geom_complex_from_dict(data: dict) -> GeomComplex:
    k = complex_from_dict(data)
    try:
        tag = Geometry(data["geometry"])
        coords = {}
        for v, xs in data["coordinates"].items():
            if str(int(v)) != v:
                raise ValueError(f"coordinate key {v!r} is not a vertex label")
            coords[int(v)] = np.asarray([float(json_number(x, "coordinate")) for x in xs])
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        raise FormatError(f"bad geometric data: {e}") from e
    period = data.get("torus_period")
    if period is not None and (
        isinstance(period, bool)
        or not isinstance(period, (int, float))
        or not 0 < period <= sys.float_info.max  # false for NaN too
    ):
        raise FormatError(f"torus_period must be a positive finite number, got {period!r}")
    gk = GeomComplex(k, tag, coords, period)
    missing = set(k.vertices()) - set(coords)
    if missing:
        raise FormatError(f"coordinates missing for vertices {sorted(missing)}")
    return gk


def polytopal_to_dict(poly: PolytopalComplex) -> dict:
    return {
        "dimension": poly.dim,
        "torus_period": poly.period,
        "vertices": {
            str(v): [float(x) for x in c] for v, c in sorted(poly.vertices.items())
        },
        "cells": [
            {
                "vertex_ids": list(c.vertex_ids),
                "vertex_coordinates": [[float(x) for x in row] for row in c.lift],
                "provenance": [list(c.provenance[0]), list(c.provenance[1])],
                "measure": c.measure,
            }
            for c in poly.cells
        ],
        "discarded": [
            {"provenance": [list(p[0]), list(p[1])], "measure": m}
            for (p, m) in poly.discarded
        ],
    }


def common_subdivision_to_dict(common: CommonSubdivision) -> dict:
    out = complex_to_dict(common.complex)
    out["torus_period"] = common.period
    out["coordinates"] = {
        str(v): [float(x) for x in common.coords[v]] for v in common.complex.vertices()
    }
    out["carrier1"] = _carrier_rows(common.side1)
    out["carrier2"] = _carrier_rows(common.side2)
    return out


def dumps(data: dict) -> str:
    """``json.dumps(data, indent=2, sort_keys=True)``, byte for byte.

    orjson writes the indented text when its compact sorted output equals
    ``json``'s (``separators=(",", ":")``, which runs on ``json``'s C
    encoder).  Equal compact outputs are equal token streams, and both
    writers indent a token stream the same way: two spaces per level, ","
    and a newline between items, ": " after a key, and "[]" and "{}" for
    empty containers.  The guard is needed: orjson writes some floats
    differently (1e-05 as 0.00001, 1e+16 as 1e16), writes non-ASCII text
    and DEL unescaped and NaN as null, and rejects ints of 64 bits or more
    and keys that are not strs.  On any difference, or any TypeError
    (orjson's JSONEncodeError is one), ``json.dumps`` itself writes the
    value, and raises what ``json`` raises for values it rejects.  ``json``
    writes its compact text first: it holds one str per token until it
    joins them, the peak memory of the call, and orjson's buffer is not
    alive then."""
    try:
        compact = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
        same = compact == orjson.dumps(data, option=orjson.OPT_SORT_KEYS)
    except TypeError:
        same = False
    if same:
        return orjson.dumps(data, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS).decode()
    return json.dumps(data, indent=2, sort_keys=True)


def loads(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"malformed JSON: {e}") from e
    if not isinstance(data, dict):
        raise FormatError("expected a JSON object at the top level")
    return data
