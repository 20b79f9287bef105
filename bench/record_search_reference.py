"""Record the reference counts that the `search` workload's oracle compares against.

For every coordinate set the workload can draw (0 plus 3 or 4 of the ten
nonzero values in SEARCH_VALUES) and every size in SEARCH_SIZES, run the
library's exhaustive enumeration and store the number of balanced hits and
of uniform hits. The file maps "m:coords" to [count, uniform count]. It was
recorded from the commit that introduced the benchmark; re-record only when
a change to the enumeration is meant to change its counts.

Usage, from the root of a checkout (a few minutes):
    python3 bench/record_search_reference.py
"""

from __future__ import annotations

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import SEARCH_SIZES, SEARCH_VALUES, reference_key  # noqa: E402

from balcfg.balance import is_uniform  # noqa: E402
from balcfg.search import SearchSpec, enumerate_balanced  # noqa: E402


def main() -> int:
    nonzero = [v for v in SEARCH_VALUES if v != 0]
    reference = {}
    for m in SEARCH_SIZES:
        for extra in (3, 4):
            for chosen in itertools.combinations(nonzero, extra):
                coords = (0,) + chosen
                hits = enumerate_balanced(SearchSpec(m=m, coordinate_set=coords))
                uniform = sum(1 for cfg in hits if is_uniform(cfg)[0])
                reference[reference_key(m, coords)] = [len(hits), uniform]
    entries = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(reference.items()))
    with open(os.path.join(HERE, "search_reference.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(entries) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
