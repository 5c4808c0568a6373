"""Set-up time in a fresh interpreter: ``import simplexcover`` plus ``build_cover(d, n)``.

    PYTHONPATH=src python3 benchmarks/setup_probe.py D N

Prints the time taken in reference seconds (see refspeed.py); interpreter
start-up is not included.
"""

import sys

from refspeed import RefClock


def set_up(d: int, n: int) -> None:
    import simplexcover

    simplexcover.build_cover(d, n)


def main() -> int:
    _, seconds = RefClock().call(set_up, int(sys.argv[1]), int(sys.argv[2]))
    print(seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
