"""Write ``golden.json``: the reference results of every workload shape.

Each entry is confirmed once, here, by two independent computations that must
agree exactly: ``springer_compute`` (localization) and ``gp_graded_character``
(Tanisaki oracle, decomposed into multiplicities).  It must also satisfy:

* every certificate and convention of the report holds;
* the graded dimensions sum to n!/prod(lambda_i!);
* the identity-class trace equals the graded dimension in every degree;
* every multiplicity is a non-negative integer.

Usage, from the repository root::

    python3 perfbench/make_golden.py

It covers every shape of every workload, and prints per-shape timings to
stderr.  It takes about half a minute; the benchmark itself only reads the
file.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

from workloads import GOLDEN, SRC, WORKLOADS, encode_character, encode_report

sys.path.insert(0, str(SRC))

from springerloc import (Partition, decompose_class_function,  # noqa: E402
                         gp_graded_character, springer_compute)


def oracle_multiplicities(char, n: int) -> list:
    rows = []
    for d in char.degrees:
        decomp = decompose_class_function(char.degree_row(d), n)
        rows.append([[mu.to_string(), int(c)] for mu, c in
                     sorted(decomp.items(), key=lambda kv: kv[0].parts,
                            reverse=True) if c])
        for mu, c in decomp.items():
            if c < 0 or c != int(c):
                raise SystemExit(f"oracle multiplicity of {mu!r} in degree "
                                 f"{d} is {c}")
    return rows


def confirm(text: str) -> dict:
    shape = Partition.from_string(text)
    t = time.perf_counter()
    rep = springer_compute(shape)
    t_engine = time.perf_counter() - t
    t = time.perf_counter()
    gp = gp_graded_character(shape)
    t_oracle = time.perf_counter() - t
    print(f"{text}: springer_compute {t_engine:.2f} s, "
          f"gp_graded_character {t_oracle:.2f} s", file=sys.stderr, flush=True)

    entry = encode_report(rep)
    from_oracle = encode_character(gp)
    from_oracle["multiplicities"] = oracle_multiplicities(gp, shape.n)
    if from_oracle != entry:
        raise SystemExit(f"{text}: engine and oracle disagree")
    if not all(ok for _, ok in rep.certificates + rep.conventions):
        raise SystemExit(f"{text}: a certificate or convention failed")
    if sum(rep.poincare) != shape.multinomial():
        raise SystemExit(f"{text}: dimensions do not sum to the multinomial")
    identity = Partition([1] * shape.n)
    for d, dim in enumerate(rep.poincare):
        if rep.character.value(d, identity) != Fraction(dim):
            raise SystemExit(f"{text}: identity trace != dimension in "
                             f"degree {d}")
    if any(m < 0 for row in rep.multiplicities for _, m in row):
        raise SystemExit(f"{text}: negative multiplicity")
    return entry


def main() -> None:
    shapes = sorted({s for _, group in WORKLOADS.values() for s in group},
                    key=lambda s: (sum(map(int, s.split(","))), s))
    golden = {s: confirm(s) for s in shapes}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"shapes": golden}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
