"""JSON file formats for integer sets and quotient specifications.

Malformed data raises ``InputError``; well-formed data with values the
constructors reject raises their own ``GbbError`` subclasses."""

from __future__ import annotations

import json

from .errors import InputError
from .groups import AbelianGroup
from .intsets import GodelSet, PeriodicSet

# what indexing, iterating or int() raise on data of the wrong shape
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def set_from_json(data):
    try:
        if data.get("kind") == "godel":
            positions = frozenset(int(x) for x in data["S"])
            bound = int(data.get("position_bound", max(positions, default=0) + 1))
            return GodelSet(positions, bound)
        modulus = int(data["modulus"])
        residues = frozenset(int(r) for r in data["residues"])
    except _MALFORMED as err:
        raise InputError(f"malformed set JSON: {err!r}") from None
    return PeriodicSet(modulus, residues)


def set_to_json(s):
    if isinstance(s, GodelSet):
        return {
            "kind": "godel",
            "S": sorted(s.digit_positions),
            "position_bound": s.position_bound,
        }
    return {"modulus": s.modulus, "residues": sorted(s.residues)}


def quotient_spec_from_json(data):
    """Parse {"target": {...}, "theta": {...}} into (target, theta); theta
    keys are "u,v" strings, values are coordinate lists for abelian
    targets.  Other fields are ignored."""
    try:
        target_data = data["target"]
        kind = target_data["kind"]
        factors = tuple(int(f) for f in target_data["factors"])
        coords = {tuple(key.split(",")): [int(c) for c in value]
                  for key, value in data["theta"].items()}
    except _MALFORMED as err:
        raise InputError(f"malformed quotient JSON: {err!r}") from None
    if kind != "abelian":
        raise InputError("only abelian quotient specs are file-loadable")
    if any(f < 1 for f in factors):
        raise InputError(f"abelian factors must be >= 1, got {factors}")
    if any(len(key) != 2 for key in coords):
        raise InputError("theta keys must be \"u,v\" vertex pairs")
    target = AbelianGroup(factors)
    theta = {key: target.element(c) for key, c in coords.items()}
    return target, theta


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as err:  # not UTF-8 or not JSON
        raise InputError(f"{path} is not a JSON file: {err}") from None
