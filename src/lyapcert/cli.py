"""Command-line orchestration: deterministic end-to-end experiment runs.

Subcommands:

    train-meta   region-selection loop (meta-train, certify each task, shrink),
                 writes the region report, meta checkpoint + training report
    adapt        k-step test-time adaptation of a checkpoint under the
                 50-sample / 10-step budget, with a budget ledger
    verify       tightened-condition map of a checkpoint (CSV + SVG)
    roa          certified sublevel set + Monte-Carlo validation (JSON/CSV/SVG)
    simulate     RK4 rollout from a given initial state (CSV, SVG for 2-d)
    compare      all methods on one preset, one table (CSV + JSON)

Each setting has one source. The config (exactly one of `--config` and
`--preset`, resolved once by `main`) is the experiment: the test-time budget
and the meta-gradient mode are its `meta` block. The command line holds what
one run needs besides: `--checkpoint`, `simulate`'s `--x0/--h/--horizon`, the
output root `--out` (default `out`) and `--seed`, which overrides
`seeds.master`. The output root is not part of the config, so its hash, and
every artifact, is the same under any `--out`.

Every artifact embeds the config hash and seed; reruns with identical config
and seed reproduce all numeric artifacts bitwise at a fixed BLAS thread count
(another count changes the last bits of the bowl init's solve, and so of
`train-meta` and `compare`; `adapt`, `verify` and `roa` do not depend on it;
timings are never written into artifacts). Settings are checked here and by the config blocks,
once, before any work starts; the library trusts them. Exit codes: 0 ok,
2 config, artifact or file error, 3 verification failure (train-meta: no valid
region, after region.json records each round; roa: a Monte-Carlo rollout from the
certified set fails, after the artifacts are written), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import baselines, control, dynamics, meta, net, roa, svg, verify
from .config import (MAX_RADIUS, ConfigError, ExperimentConfig, PRESETS, config_hash,
                     config_to_dict, load_config)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFICATION = 3
EXIT_NUMERIC = 4


class BadArtifact(Exception):
    """An upstream artifact (checkpoint, map) is absent, unreadable or does
    not fit the configured system."""


def atomic_write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write a string, or a writer's blocks in turn, through a sibling temp file and
    a rename; the file gets the mode plain `open` gives."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: Path, payload: dict, indent: int | None = 2) -> None:
    """Write a JSON artifact; a non-finite number in it raises FloatingPointError
    naming the file, before anything is written (JSON has no NaN or Infinity)."""
    try:
        text = json.dumps(payload, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(f"non-finite number headed for {path}: {exc}") from exc
    atomic_write_text(path, text)


def _resolve_config(args) -> ExperimentConfig:
    """The config of exactly one of --preset and --config (argparse enforces the choice
    and the preset name), with --seed as its master seed when given."""
    cfg = PRESETS[args.preset] if args.preset else load_config(args.config)
    if args.seed is not None:
        try:
            cfg = replace(cfg, seeds=replace(cfg.seeds, master=args.seed))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return cfg


def _stamp(cfg: ExperimentConfig) -> dict:
    return {"config_hash": config_hash(cfg), "seed": cfg.seeds.master, "preset": cfg.name}


def _out_dir(args, cfg: ExperimentConfig) -> Path:
    """`<--out>/<name>`, created; call it once the command's inputs are checked."""
    out = Path(args.out) / cfg.name
    out.mkdir(parents=True, exist_ok=True)
    return out


def _worst_bounds(vmap: verify.ValidityMap, grid: verify.GridSpec) -> dict | None:
    """The least vbar_low and the greatest lie_high over the checked (non-exempt)
    nodes, each with its node's coordinates; None when every node is exempt."""
    checked = np.nonzero(~vmap.exempt)[0]
    if not checked.size:
        return None
    rows = {"vbar_low": checked[np.argmin(vmap.vbar_low[checked])],
            "lie_high": checked[np.argmax(vmap.lie_high[checked])]}
    return {key: {"bound": float(getattr(vmap, key)[row]), "node": grid.coords(row).tolist()}
            for key, row in rows.items()}


def _certify_task(candidate, system, grid: verify.GridSpec) -> dict:
    """One adapted task certified as `roa` certifies, its map held only here: its c,
    area and binding node (the blocked node whose vbar_low capped c: its coordinates,
    the condition it fails, or the boundary layer if it is green, and that bound; None
    when no node is blocked); then, off the boundary layer, the green fraction, the red
    nodes by condition, those of them whose node value already fails (Vbar(u) <= 0,
    Lie(u) >= 0; the others are red through the cell bound alone) and the number of
    checked (non-exempt) nodes."""
    vmap, result = baselines.certify_candidate(candidate, system, grid)
    row, interior, checked = result.binding, ~grid.boundary, ~grid.boundary & ~vmap.exempt
    binding = None if row is None else {
        "node": grid.coords(row).tolist(), "vbar_low": float(vmap.vbar_low[row]),
        "kind": "red positivity" if not vmap.positivity_ok[row] else
                "red decrease" if not vmap.decrease_ok[row] else "boundary layer"}
    return {"c": result.c, "area": result.area, "binding": binding,
            "green_fraction": float(np.mean(vmap.green[interior])),
            "red_positivity": int(np.sum(~vmap.positivity_ok[interior])),
            "red_positivity_at_node": int(np.sum(~(vmap.vbar[checked] > 0.0))),
            "red_decrease": int(np.sum(~vmap.decrease_ok[interior])),
            "red_decrease_at_node": int(np.sum(~(vmap.lie[checked] < 0.0))),
            "checked": int(np.sum(checked))}


def _fit_region(cfg: ExperimentConfig, history: list, d: float):
    """One region-selection round on the ball of radius d: meta-train, adapt to each
    task of the trained family and certify it; accept when every certificate is
    non-empty (c > 0). Appends the round to history; returns (report, accepted)."""
    arch = cfg.architecture()
    report, systems, (X_tr, Y_tr, _, _) = baselines.meta_train_for(
        cfg, d, net.shaped_init(arch, cfg.seeds.net_seed, d))
    grid = verify.build_grid(d, cfg.verify.nodes_per_axis, arch.input_dim,
                             cfg.verify.exempt_radius, cfg.roa.plane)
    tasks = []
    for i, system in enumerate(systems):   # task i adapts on its first train batch
        adapted = meta.test_time_adapt(report.theta_mnlf, arch, (X_tr[i, 0], Y_tr[i, 0]),
                                       cfg.meta.adapt_alpha, cfg.meta.k_test, cfg.loss)
        tasks.append(_certify_task(net.MlpLyapunov(adapted, arch), system, grid))
    accepted = all(task["c"] > 0.0 for task in tasks)
    history.append({"radius": d, "accepted": accepted, "tasks": tasks})
    return report, accepted


def cmd_train_meta(args, cfg: ExperimentConfig) -> int:
    out = _out_dir(args, cfg)
    history = []
    selection = verify.select_valid_region(lambda d: _fit_region(cfg, history, d),
                                           cfg.verify.d0, cfg.verify.shrink_factor,
                                           cfg.verify.max_rounds)
    atomic_write_json(out / "region.json",
                      {**_stamp(cfg), "radius": selection.radius, "rounds": selection.rounds,
                       "accepted": selection.accepted, "history": history})
    if not selection.accepted:
        print(f"verification failure: no valid region after {selection.rounds} rounds "
              f"(last radius {selection.radius:g})", file=sys.stderr)
        for i, task in enumerate(history[-1]["tasks"]):   # as region.json records it
            print(f"task {i}: {json.dumps(task)}", file=sys.stderr)
        return EXIT_VERIFICATION

    report = selection.artifact
    curve = report.loss_curve
    ckpt = out / "meta_checkpoint.json"
    atomic_write_json(ckpt, net.checkpoint_payload(
        report.theta_mnlf, cfg.architecture(),
        extra={**_stamp(cfg), "radius": selection.radius, "system_id": cfg.system.system_id,
               "rounds": selection.rounds}), indent=None)
    atomic_write_json(out / "train_report.json",
                      {**_stamp(cfg), "loss_curve": curve.tolist(), "checkpoint": ckpt.name,
                       "final_loss": float(curve[-1]), "least_loss": float(curve.min()),
                       "max_abs_theta": float(np.max(np.abs(report.theta_mnlf)))})
    atomic_write_json(out / "config_echo.json", config_to_dict(cfg))
    print(f"meta checkpoint written to {ckpt} (radius {selection.radius:g}, "
          f"{selection.rounds} round(s))")
    return EXIT_OK


def _load_checkpoint_for(cfg: ExperimentConfig, path) -> tuple[np.ndarray, net.Architecture, float]:
    """Checkpoint parameters, architecture and region radius (the config's d0 when
    the checkpoint has none): a non-finite parameter or radius raises FloatingPointError
    (OverflowError for an integer beyond float range), an unreadable file OSError, any
    other unusable content (another family's `system_id`, a network other than the
    config's, a radius over MAX_RADIUS or within the exemption radius included) BadArtifact."""
    try:
        theta, arch, extra = net.load_checkpoint(path)
    except (ValueError, RecursionError, KeyError, TypeError) as exc:
        raise BadArtifact(f"checkpoint {path} is unreadable: {exc!r}") from exc
    if not isinstance(extra, dict):
        raise BadArtifact(f"checkpoint extra {extra!r} is not a JSON object")
    system_id = cfg.system.system_id
    if extra.get("system_id", system_id) != system_id:
        raise BadArtifact(f"checkpoint is for the {extra['system_id']!r} family, "
                          f"the config's system is {system_id!r}")
    if arch != cfg.architecture():   # the memory budget bounds the config's network alone
        raise BadArtifact(f"checkpoint network {arch} is not the config's {cfg.architecture()}")
    radius = extra.get("radius", cfg.verify.d0)
    if isinstance(radius, bool) or not isinstance(radius, (int, float)):
        raise BadArtifact(f"checkpoint radius {radius!r} is not a number")
    if not (np.all(np.isfinite(theta)) and math.isfinite(radius)):
        raise FloatingPointError(f"checkpoint {path} has a non-finite parameter or radius")
    if not 0 < radius <= MAX_RADIUS:
        raise BadArtifact(f"checkpoint radius {radius!r} is not in (0, {MAX_RADIUS:g}]")
    if radius <= cfg.verify.exempt_radius:
        # the exempt ball then covers the whole region: its map would certify nothing
        raise BadArtifact(f"checkpoint radius {radius!r} does not exceed the exemption "
                          f"radius {cfg.verify.exempt_radius!r}")
    return theta, arch, radius


def cmd_adapt(args, cfg: ExperimentConfig) -> int:
    theta, arch, radius = _load_checkpoint_for(cfg, args.checkpoint)
    m = cfg.meta
    system_test = dynamics.build_system(cfg.system.system_id, cfg.system.theta_test)
    adapted = baselines.test_time_update(cfg, theta, arch, system_test, radius,
                                         cfg.seeds.adapt_seed)
    out = _out_dir(args, cfg)
    ckpt = out / "adapted_checkpoint.json"
    atomic_write_json(ckpt, net.checkpoint_payload(
        adapted, arch, extra={**_stamp(cfg), "radius": radius,
                              "system_id": cfg.system.system_id, "adapted": True}), indent=None)
    atomic_write_json(out / "adapt_ledger.json",
                      {**_stamp(cfg), "samples_used": m.adapt_samples, "steps_used": m.k_test,
                       "alpha": m.adapt_alpha})
    print(f"adapted checkpoint written to {ckpt} ({m.adapt_samples} samples, {m.k_test} steps)")
    return EXIT_OK


def _checkpoint_candidate(cfg: ExperimentConfig, checkpoint):
    theta, arch, radius = _load_checkpoint_for(cfg, checkpoint)
    system_test = dynamics.build_system(cfg.system.system_id, cfg.system.theta_test)
    grid = verify.build_grid(radius, cfg.verify.nodes_per_axis, system_test.dim,
                             cfg.verify.exempt_radius, cfg.roa.plane)
    return net.MlpLyapunov(theta, arch), system_test, grid


def cmd_verify(args, cfg: ExperimentConfig) -> int:
    candidate, system_test, grid = _checkpoint_candidate(cfg, args.checkpoint)
    out = _out_dir(args, cfg)
    vmap = verify.check_validity(candidate, system_test, grid)
    green = float(np.mean(vmap.green))
    # the summary first: a worst bound JSON cannot hold (+inf) exits 4 before any map
    atomic_write_json(out / "validity_summary.json",
                      {**_stamp(cfg), "green_fraction": green,
                       "fully_green": vmap.fully_green,
                       "worst_bounds": _worst_bounds(vmap, grid)})
    atomic_write_text(out / "validity_map.csv", verify.export_validity_csv(vmap, grid))
    atomic_write_text(out / "validity_map.svg", svg.render_validity_svg(vmap, grid))
    print(f"validity map written ({green:.4f} green)")
    return EXIT_OK


def cmd_roa(args, cfg: ExperimentConfig) -> int:
    candidate, system_test, grid = _checkpoint_candidate(cfg, args.checkpoint)
    out = _out_dir(args, cfg)
    vmap, result = baselines.certify_candidate(candidate, system_test, grid)
    check, = roa.monte_carlo_convergence(system_test, [(result, candidate)], grid,
                                         cfg.roa.mc_samples, cfg.roa.mc_step, cfg.seeds.master)
    atomic_write_json(out / "roa.json", {**_stamp(cfg), **roa.export_roa_json(result, grid)})
    atomic_write_text(out / "roa_boundary.csv", roa.export_boundary_csv(result, grid))
    atomic_write_text(out / "roa_overlay.svg", svg.render_validity_svg(vmap, grid, roa=result))
    atomic_write_json(out / "roa_mc.json",
                      {**_stamp(cfg), "fraction": check.fraction, "vacuous": check.vacuous,
                       "n_samples": check.n_samples, "step": check.step,
                       "diverged": check.diverged, "capped": check.capped})
    print(f"roa: c={result.c:g} area={result.area:g} mc_fraction={check.fraction:g}")
    if check.fraction < 1.0:
        print(f"verification failure: {check.n_samples} rollouts from the certified set at "
              f"step {check.step:g}, mc fraction {check.fraction:.4f}: " + (
                  f"{check.diverged} diverged, {check.capped} outside the basin at the step cap"
                  if check.diverged + check.capped else "no proven basin at this step"),
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_simulate(args, cfg: ExperimentConfig) -> int:
    system_test = dynamics.build_system(cfg.system.system_id, cfg.system.theta_test)
    try:
        x0 = np.array([float(v) for v in args.x0.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--x0: {exc}") from exc
    if x0.size != system_test.dim:
        raise ConfigError(f"--x0 has {x0.size} entries, the system state has {system_test.dim}")
    if not np.all(np.isfinite([*x0, args.h, args.horizon])):
        raise FloatingPointError(f"--x0, --h and --horizon must be finite: {args.x0}, "
                                 f"{args.h}, {args.horizon}")
    if not (args.h > 0 and args.horizon >= args.h):
        raise ConfigError("need --h > 0 and --horizon >= --h")
    if args.horizon / args.h > dynamics.MAX_RK4_STEPS:
        raise ConfigError(f"--horizon / --h asks for more than {dynamics.MAX_RK4_STEPS:,} steps")
    out = _out_dir(args, cfg)
    traj = dynamics.simulate(system_test, x0, args.h, args.horizon)
    rows = ["t," + ",".join(f"x{i + 1}" for i in range(system_test.dim))]
    for t, state in zip(traj.times, traj.states):
        rows.append(",".join([repr(float(t))] + [repr(float(v)) for v in state]))
    atomic_write_text(out / "trajectory.csv", "\n".join(rows) + "\n")
    if system_test.dim == 2:
        atomic_write_text(out / "trajectory.svg", svg.render_phase_svg(
            system_test, float(cfg.verify.d0), traj.states))
    final = float(np.linalg.norm(traj.states[-1]))
    print(f"simulated {traj.times[-1]:g}s, final |x| = {final:g}"
          + (" (diverged)" if traj.diverged else ""))
    return EXIT_OK


def cmd_compare(args, cfg: ExperimentConfig) -> int:
    out = _out_dir(args, cfg)
    rows = [result.row() for result in baselines.compare(cfg)]
    lines = [",".join(rows[0])] + [",".join(repr(v) if isinstance(v, float) else str(v)
                                            for v in row.values()) for row in rows]
    atomic_write_text(out / "comparison.csv", "".join(line + "\n" for line in lines))
    atomic_write_json(out / "comparison.json", {**_stamp(cfg), "rows": rows})
    for row in rows:
        area = f"{row['area']:.3f}" if isinstance(row["area"], float) else "-"
        print(f"{row['method']:<10} area={area:<9} status={row['status']}")
    return EXIT_OK


# name: (command, help line, whether it takes --checkpoint)
COMMANDS = {
    "train-meta": (cmd_train_meta, "meta-train with region selection", False),
    "adapt": (cmd_adapt, "test-time adaptation of a checkpoint", True),
    "verify": (cmd_verify, "tightened-condition map of a checkpoint", True),
    "roa": (cmd_roa, "certified region of attraction of a checkpoint", True),
    "simulate": (cmd_simulate, "RK4 rollout of the test-time system", False),
    "compare": (cmd_compare, "all methods, one table", False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lyapcert",
                                     description="meta-trained, grid-certified Lyapunov functions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, takes_checkpoint) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="path to a config JSON file")
        source.add_argument("--preset", help="named preset", choices=sorted(PRESETS))
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", default="out", help="output directory root (default: out)")
        if takes_checkpoint:
            p.add_argument("--checkpoint", required=True)
        p.set_defaults(func=func)
    simulate = sub.choices["simulate"]
    simulate.add_argument("--x0", required=True, help="comma-separated initial state")
    simulate.add_argument("--h", type=float, default=0.01)
    simulate.add_argument("--horizon", type=float, default=20.0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _resolve_config(args))
    except (ConfigError, BadArtifact, OSError) as exc:
        # OSError: a config or checkpoint unreadable, --out or an artifact unwritable
        kind = {ConfigError: "config", BadArtifact: "artifact"}.get(type(exc), "file")
        print(f"{kind} error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (meta.NonFiniteLoss, control.NonFiniteDynamics, FloatingPointError,
            OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
