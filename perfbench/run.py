"""Command line of the benchmark.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Measures the library in ``src/`` next to this directory.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("stream", "montecarlo", "compile")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "regwin" / "__init__.py").is_file():
        print(f"error: the library's sources are missing ({src / 'regwin'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(src)]
    import regwin  # noqa: E402  (needs the path above)

    if Path(regwin.__file__).resolve().parent != (src / "regwin").resolve():
        print(f"error: imported regwin from {regwin.__file__}, not from {src}", file=sys.stderr)
        return 2
    from perfbench import harness

    return harness.main(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
