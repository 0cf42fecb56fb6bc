"""Meteorograph end-to-end benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload storm --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from meteobench.runner import run

    return run(sys.argv[1:] if argv is None else argv, ROOT)


if __name__ == "__main__":
    sys.exit(main())
