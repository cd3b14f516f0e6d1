"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is the import of ``repro`` (through the workload module), the
``Cluster`` construction and the first trial spec or schedule probe.
Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.
"""

import pathlib
import sys
import time


def main() -> None:
    here = pathlib.Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    started = time.perf_counter()
    import harness

    harness.WORKLOADS[sys.argv[1]](int(sys.argv[2])).first_spec()
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
