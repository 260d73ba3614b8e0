"""Count the regions of arrangements with polycrep's public library API.

Usage: python3 bench/libop.py METHOD < spec.json

spec.json is {"dim": d, "arrangements": [[normal, ...], ...]}.  Prints one
JSON line per arrangement, {"index": i, "regions": r}, or {"index": i,
"error": "..."} when the library rejects it, as the CLI would.
"""

import json
import sys

from polycrep import arrangements


def main() -> int:
    method = sys.argv[1]
    spec = json.load(sys.stdin)
    for i, normals in enumerate(spec["arrangements"]):
        a = arrangements.Arrangement(spec["dim"],
                                     tuple(tuple(v) for v in normals))
        try:
            out = {"index": i,
                   "regions": arrangements.count_regions(a, method)}
        except (ValueError, OverflowError) as exc:
            out = {"index": i, "error": str(exc)}
        print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
