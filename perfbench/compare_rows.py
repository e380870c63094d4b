"""Compare the per-scenario rows of two corpus_auto runs.

    python3 perfbench/compare_rows.py base.out new.out

Each file is the standard output of one `run.sh --workload corpus_auto
--trace 0` run. Prints new/base median op time per scenario, and for each
tag (escalating, flat) the geometric mean of those ratios.
"""

import math
import sys


def rows(path):
    out = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 5 and parts[0] == "row":
                fields = dict(p.split("=", 1) for p in parts[4:])
                out[parts[2]] = (parts[3], float(fields["median_ms"]))
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = rows(sys.argv[1]), rows(sys.argv[2])
    by_tag = {}
    for name in sorted(base):
        if name not in new:
            print(f"{name}: missing from {sys.argv[2]}")
            continue
        tag, b = base[name]
        r = new[name][1] / b
        by_tag.setdefault(tag, []).append(r)
        print(f"{name:24} {tag:10} base {b:9.3f} ms  new {new[name][1]:9.3f} ms  ratio {r:.3f}")
    for tag, rs in sorted(by_tag.items()):
        g = math.exp(sum(math.log(r) for r in rs) / len(rs))
        print(f"geomean ratio {tag}: {g:.3f} over {len(rs)} scenarios")


if __name__ == "__main__":
    main()
