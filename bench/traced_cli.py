"""The planarsp CLI with the counting wrappers installed.

    python bench/traced_cli.py classify --gamma 1 --a 1 --p 3 --c 1

Used by the traced cold_cli run to measure the wrappers' overhead on a
cold process.
"""

import runpy
import sys

from hooks import Counters


def main():
    Counters().install()
    sys.argv = ["planarsp", *sys.argv[1:]]
    runpy.run_module("planarsp.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
