"""Workload definitions and the golden reference shared by the benchmark files.

A workload is a list of shapes and the code path each shape goes through:

* ``springer`` — ``springer_compute`` plus the CLI envelope round trip
  (``report_to_json`` then ``report_from_json``); graded character, Poincaré
  polynomial and multiplicities are compared with the golden entry.
* ``oracle`` — ``gp_graded_character`` plus ``equivariance_check``; the
  Poincaré polynomial and graded character are compared with the golden entry.

The seed only permutes the order of the shapes.  Importing this module does
not import ``springerloc``; the functions that need it take the objects.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"

# name -> (path, shapes as comma strings)
WORKLOADS: dict[str, tuple[str, tuple[str, ...]]] = {
    "echelon": ("springer", ("2,2,1", "3,2,1")),
    "regular": ("springer", ("1,1,1", "1,1,1,1")),
    "oracle": ("oracle", ("2,1,1,1", "2,2,1", "3,1,1", "3,2", "1,1,1,1",
                          "3,3")),
    # Not in BENCHMARK.json: n <= 3 shapes covering all three code paths in
    # seconds, for the benchmark's own tests.
    "smoke": ("springer", ("2,1", "1,1,1")),
    "smoke-oracle": ("oracle", ("3", "2,1")),
}


def shape_order(workload: str, seed: int) -> list[str]:
    """The workload's shapes in the order fixed by ``seed``."""
    shapes = list(WORKLOADS[workload][1])
    random.Random(seed).shuffle(shapes)
    return shapes


def load_golden() -> dict[str, dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["shapes"]


def encode_character(char) -> dict:
    """Poincaré polynomial and graded character as exact JSON values."""
    return {
        "poincare": list(char.q_dims),
        "classes": [ct.to_string() for ct in char.cycle_types],
        "character": [[str(v) for v in row] for row in char.values],
    }


def encode_report(rep) -> dict:
    """A ``SpringerReport`` as the golden entry format."""
    out = encode_character(rep.character)
    out["poincare"] = list(rep.poincare)
    out["multiplicities"] = [[[mu.to_string(), m] for mu, m in row]
                             for row in rep.multiplicities]
    return out


def oracle_view(entry: dict) -> dict:
    """The part of a golden entry the oracle path reproduces."""
    return {key: entry[key] for key in ("poincare", "classes", "character")}
