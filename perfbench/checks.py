"""Output checks for the benchmark workloads.

Each check raises CheckFailure with a message when the program's output is
wrong. The checks that need a value computed apart from the program use the
tanh-MLP forward pass below, run on the checkpoint JSON; they share no code
with `lyapcert`.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

TEST_TIME_SAMPLES = 50
TEST_TIME_STEPS = 10
AREA_RTOL = 0.03
AREA_SAMPLES = 200_000
CONTAINMENT_SAMPLES = 300_000
SAMPLE_SEED = 20231215


class CheckFailure(Exception):
    """A program output disagrees with the independent computation or a method property."""


# --- independent forward pass ---------------------------------------------------------

def load_mlp(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Layers (W, b) of a checkpoint: W row-major, then b, layer by layer."""
    payload = json.loads(Path(path).read_text())
    dims = [payload["arch"]["input_dim"], *payload["arch"]["hidden"], 1]
    theta = np.asarray(payload["theta"], dtype=float)
    layers, offset = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = theta[offset:offset + fan_in * fan_out].reshape(fan_out, fan_in)
        offset += fan_in * fan_out
        layers.append((W, theta[offset:offset + fan_out]))
        offset += fan_out
    if offset != theta.size:
        raise CheckFailure(f"{path}: {theta.size} parameters, architecture needs {offset}")
    return layers


def mlp_value(layers, X: np.ndarray) -> np.ndarray:
    A = np.atleast_2d(X)
    for W, b in layers[:-1]:
        A = np.tanh(A @ W.T + b)
    W, b = layers[-1]
    return (A @ W.T + b)[:, 0]


def vbar(layers, X: np.ndarray) -> np.ndarray:
    return mlp_value(layers, X) - mlp_value(layers, np.zeros((1, layers[0][0].shape[1])))[0]


# --- validity map and certified set ---------------------------------------------------

class NodeMap:
    """The grid nodes of validity_map.csv with lattice indices and face neighbours."""

    def __init__(self, csv_path, radius: float, nodes_per_axis: int):
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], np.asarray(rows[1:], dtype=float)
        self.dim = sum(h.startswith("x") for h in header)
        self.coords = body[:, :self.dim]
        self.vbar = body[:, header.index("vbar")]
        pos = body[:, header.index("positivity_ok")] == 1
        dec = body[:, header.index("decrease_ok")] == 1
        exempt = body[:, header.index("exempt")] == 1
        self.green = (pos & dec) | exempt
        half = (nodes_per_axis - 1) // 2
        self.half = half
        self.spacing = radius / half
        self.lattice = np.rint(self.coords / self.spacing).astype(np.int64)
        n_axis = 2 * half + 1
        self.strides = n_axis ** np.arange(self.dim - 1, -1, -1)
        self.box = np.full(n_axis ** self.dim, -1, dtype=np.int64)
        self.box[(self.lattice + half) @ self.strides] = np.arange(len(self.vbar))
        neighbours = []
        for axis in range(self.dim):
            for step in (-1, 1):
                shifted = self.lattice.copy()
                shifted[:, axis] += step
                neighbours.append(self.row_of(shifted))
        self.neighbours = np.stack(neighbours, axis=1)   # -1: no node there
        collar = np.linalg.norm(self.coords, axis=1) > radius + 1e-12
        self.boundary = collar | np.any(self.neighbours < 0, axis=1)

    def row_of(self, lattice: np.ndarray) -> np.ndarray:
        inside = np.all(np.abs(lattice) <= self.half, axis=1)
        rows = np.full(lattice.shape[0], -1, dtype=np.int64)
        rows[inside] = self.box[(lattice[inside] + self.half) @ self.strides]
        return rows

    def origin_component(self, member: np.ndarray) -> np.ndarray:
        origin = int(self.row_of(np.zeros((1, self.dim), dtype=np.int64))[0])
        member = member.copy()
        member[origin] = True
        reached = np.zeros_like(member)
        reached[origin] = True
        padded = np.append(reached, False)
        while True:
            grown = member & np.any(padded[self.neighbours], axis=1)
            grown |= reached
            if np.array_equal(grown, reached):
                return reached
            reached = grown
            padded = np.append(reached, False)


def check_validity_map(layers, nodes: NodeMap, atol: float = 1e-9) -> None:
    """Vbar in every row of validity_map.csv matches the independent forward pass."""
    expected = vbar(layers, nodes.coords)
    err = np.abs(expected - nodes.vbar)
    worst = int(np.argmax(err))
    if err[worst] > atol * max(1.0, abs(expected[worst])):
        raise CheckFailure(f"validity map Vbar {nodes.vbar[worst]!r} at {nodes.coords[worst]} "
                           f"differs from the forward pass {expected[worst]!r}")


def _ball_samples(rng, n: int, dim: int, radius: float) -> np.ndarray:
    direction = rng.normal(size=(n, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * (radius * rng.random(n) ** (1.0 / dim))[:, None]


def check_roa_area(layers, roa: dict) -> None:
    """The reported area agrees with a Monte-Carlo area of {Vbar <= c} in the region."""
    radius, dim = roa["grid"]["radius"], roa["grid"]["dim"]
    if roa["empty"]:
        if roa["area"] != 0.0 or roa["c"] != 0.0:
            raise CheckFailure(f"empty certificate reports c={roa['c']} area={roa['area']}")
        return
    if dim != 2:
        raise CheckFailure("the area check covers 2-d regions only")
    rng = np.random.default_rng(SAMPLE_SEED)
    X = _ball_samples(rng, AREA_SAMPLES, dim, radius)
    estimate = float(np.mean(vbar(layers, X) <= roa["c"])) * np.pi * radius**2
    if abs(roa["area"] - estimate) > AREA_RTOL * estimate:
        raise CheckFailure(f"reported area {roa['area']:.4f} vs Monte-Carlo area "
                           f"{estimate:.4f} of {{Vbar <= c}}")


def check_mc_gate(roa: dict, mc: dict) -> None:
    """Every nonempty certificate passed all of its rollouts."""
    if not roa["empty"] and mc["fraction"] != 1.0:
        raise CheckFailure(f"nonempty certificate with mc fraction {mc['fraction']}")


def check_adapt_budget(ledger: dict) -> None:
    if ledger["samples_used"] > TEST_TIME_SAMPLES or ledger["steps_used"] > TEST_TIME_STEPS:
        raise CheckFailure(f"adaptation used {ledger['samples_used']} samples / "
                           f"{ledger['steps_used']} steps")


def containment_violations(layers, nodes: NodeMap, roa: dict) -> int:
    """Sampled points of {Vbar <= c} that lie in a blocked cell bordering the certified set.

    A blocked cell is the cell of a red or boundary-layer node. The certified
    set is the origin component of the nodes with Vbar <= c. A sound level cap
    leaves no such point.
    """
    if roa["empty"]:
        return 0
    c = roa["c"]
    member = nodes.origin_component(nodes.vbar <= c)
    padded = np.append(member, False)
    bordering = (~nodes.green | nodes.boundary) & np.any(padded[nodes.neighbours], axis=1)
    rng = np.random.default_rng(SAMPLE_SEED)
    radius = roa["grid"]["radius"]
    X = _ball_samples(rng, CONTAINMENT_SAMPLES, nodes.dim, radius + nodes.spacing)
    rows = nodes.row_of(np.rint(X / nodes.spacing).astype(np.int64))
    hit = rows >= 0
    hit[hit] = bordering[rows[hit]]
    return int(np.count_nonzero(vbar(layers, X[hit]) <= c))


# --- meta training ----------------------------------------------------------------------

def check_loss_curve(report: dict) -> None:
    curve = np.asarray(report["loss_curve"], dtype=float)
    tenth = max(1, curve.size // 10)
    if not curve.size or not np.all(np.isfinite(curve)):
        raise CheckFailure("loss curve is empty or not finite")
    if not np.mean(curve[-tenth:]) < np.mean(curve[:tenth]):
        raise CheckFailure(f"loss did not fall: first tenth {np.mean(curve[:tenth]):.4g}, "
                           f"last tenth {np.mean(curve[-tenth:]):.4g}")


# --- method comparison ------------------------------------------------------------------

COMPARED = ("META_NLF", "NLF_TS", "T_NLF", "QLF_TS")


def check_comparison(table: dict) -> None:
    rows = {row["method"]: row for row in table["rows"]}
    for method in COMPARED:
        row = rows.get(method)
        if row is None or row["status"] != "ok":
            raise CheckFailure(f"{method}: status {row and row['status']!r}")
        if method in ("META_NLF", "T_NLF") and (row["test_samples"] > TEST_TIME_SAMPLES
                                                or row["test_steps"] > TEST_TIME_STEPS):
            raise CheckFailure(f"{method} exceeded the test-time budget")
        if row["area"] > 0.0 and row["mc_fraction"] != 1.0:
            raise CheckFailure(f"{method}: nonempty certificate with mc fraction "
                               f"{row['mc_fraction']}")


# --- command line ---------------------------------------------------------------------

def check_outputs(workload: str, art: Path, counted: str | None = None) -> dict:
    """All checks of one operation's artifacts; returns the facts the run counts.

    `counted` names the known fault that this task counts as a failed
    operation instead of rejecting the run: "containment" measures the
    unsound level cap, "gate" reports an MC gate rejection of a nonempty
    certificate (which otherwise fails the check).
    """
    def read(name):
        return json.loads((art / name).read_text())

    if workload == "meta_fit":
        check_loss_curve(read("train_report.json"))
        load_mlp(art / "meta_checkpoint.json")
        return {}
    if workload == "compare_mg3":
        check_comparison(read("comparison.json"))
        return {}
    check_adapt_budget(read("adapt_ledger.json"))
    layers = load_mlp(art / "adapted_checkpoint.json")
    roa = read("roa.json")
    nodes = NodeMap(art / "validity_map.csv", roa["grid"]["radius"], roa["grid"]["nodes_per_axis"])
    check_validity_map(layers, nodes)
    check_roa_area(layers, roa)
    mc = read("roa_mc.json")
    if counted != "gate":
        check_mc_gate(roa, mc)
    return {"nonempty": not roa["empty"],
            "gate_rejected": counted == "gate" and not roa["empty"] and mc["fraction"] != 1.0,
            "containment_violations": containment_violations(layers, nodes, roa)
            if counted == "containment" else 0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="check one operation's artifacts")
    parser.add_argument("workload")
    parser.add_argument("artifacts", type=Path)
    parser.add_argument("--count", choices=("containment", "gate"),
                        help="the known fault this task counts as a failed operation")
    args = parser.parse_args(argv)
    try:
        facts = check_outputs(args.workload, args.artifacts, args.count)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(facts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
