"""One set-up of the benchmark.

Run as a child process, it imports ``repro`` with the layers the
workloads use, builds the first network and runs one warm-up point;
``run.py`` times the whole child, interpreter start included.  ``run.py``
also calls :func:`setup` in-process, untimed, before measuring.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import simulate_alltoall  # noqa: E402
from repro.experiments import registry  # noqa: E402,F401
from repro.model.torus import TorusShape  # noqa: E402
from repro.net.faultsim import build_network  # noqa: E402
from repro.runner import run_points  # noqa: E402,F401
from repro.strategies import ARDirect  # noqa: E402


def setup() -> None:
    """Build the first network and run the warm-up point."""
    shape = TorusShape.parse("4x4x2")
    build_network(shape)
    simulate_alltoall(ARDirect(), shape, 64, seed=0)


if __name__ == "__main__":
    setup()
