"""Child process of the set-up measurement for the in-process workloads.

``python3 perfbench/setup_probe.py WORKLOAD SEED`` does what a fresh
process must do before it can serve the workload's first request: import
the package, generate the first request's inputs and warm the lazy caches
with a tiny request. It prints ``ready`` when done; the parent times the
whole thing from process start.
"""

import sys


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    import repro  # noqa: F401  (the import is part of what is timed)
    from workloads import make_request, warm_up

    make_request(workload, seed, 0)
    warm_up(workload)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
