"""Lookups and writers the tests share; the library itself never needs them."""

import json
from pathlib import Path

import numpy as np

from lyapcert import cli, net


def row_of(grid, lattice_point):
    """Grid row of an integer lattice point, or None when the point is not a node."""
    rows = np.nonzero(np.all(grid.lattice == np.asarray(lattice_point), axis=1))[0]
    return int(rows[0]) if rows.size else None


def save_checkpoint(path, theta, arch, extra=None) -> None:
    """Write a checkpoint file as the `train-meta` and `adapt` commands do."""
    cli.atomic_write_text(Path(path), json.dumps(net.checkpoint_payload(theta, arch, extra)))
