"""Command-line orchestration: deterministic end-to-end experiment runs.

Subcommands:

    train-meta   region-selection loop (meta-train, task-check, shrink),
                 writes the meta checkpoint + training report
    adapt        k-step test-time adaptation of a checkpoint under the
                 50-sample / 10-step budget, with a budget ledger
    verify       tightened-condition map of a checkpoint (CSV + SVG)
    roa          certified sublevel set + Monte-Carlo validation (JSON/CSV/SVG)
    simulate     RK4 rollout from a given initial state (CSV, SVG for 2-d)
    compare      all methods on one preset, one table (CSV + JSON)

Each setting has one source. The config (`--config` or `--preset`) is the
experiment: the test-time budget and the meta-gradient mode are its `meta`
block. The command line holds what one run needs besides: `--checkpoint`,
`simulate`'s `--x0/--h/--horizon`, the output root `--out` (default `out`)
and `--seed`, which overrides `seeds.master`. The output root is not part of
the config, so its hash, and every artifact, is the same under any `--out`.

Every artifact embeds the config hash and seed; reruns with identical config
and seed reproduce all numeric artifacts bitwise at a fixed BLAS thread count
(another count changes the last bits of the bowl init's solve, and so of
`train-meta` and `compare`; `adapt`, `verify` and `roa` do not depend on it;
timings are never written into artifacts). Settings are checked here and by the config blocks,
once, before any work starts; the library trusts them. Exit codes: 0 ok,
2 config error, 3 verification failure (train-meta: no valid region; roa: a
Monte-Carlo rollout from the certified set fails, after the artifacts are
written), 4 numeric failure.
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
from .config import (MAX_RK4_STEPS, ConfigError, ExperimentConfig, PRESETS, config_hash,
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


def atomic_write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2))


def _resolve_config(args) -> ExperimentConfig:
    if args.preset:   # argparse's choices already rejected an unknown name
        cfg = PRESETS[args.preset]
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigError("either --preset or --config is required")
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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _interior_report(vmap: verify.ValidityMap, grid: verify.GridSpec
                     ) -> tuple[float, int, int, int]:
    """Off the boundary layer: green fraction, red counts by positivity and by decrease,
    and the number of checked (non-exempt) nodes."""
    interior = ~grid.boundary
    return (float(np.mean(vmap.green[interior])),
            int(np.sum(~vmap.positivity_ok[interior])), int(np.sum(~vmap.decrease_ok[interior])),
            int(np.sum(~vmap.exempt[interior])))


def _worst_bounds(vmap: verify.ValidityMap, grid: verify.GridSpec) -> dict | None:
    """The least vbar_low and the greatest lie_high over the checked (non-exempt)
    nodes, each with its node's coordinates; None when every node is exempt."""
    checked = np.nonzero(~vmap.exempt)[0]
    if not checked.size:
        return None
    rows = {"vbar_low": checked[np.argmin(vmap.vbar_low[checked])],
            "lie_high": checked[np.argmax(vmap.lie_high[checked])]}
    return {key: {"bound": float(getattr(vmap, key)[row]), "node": grid.coords[row].tolist()}
            for key, row in rows.items()}


def _fit_region(cfg: ExperimentConfig, d: float):
    """One region-selection round on the ball of radius d: meta-train, adapt to each
    task of the trained family, map it (no ROA) and accept when every map passes.
    Returns ((training report, each task's _interior_report), accepted)."""
    arch = cfg.architecture()
    report, systems, (X_tr, Y_tr, _, _) = baselines.meta_train_for(cfg, d)
    grid = verify.build_grid(d, cfg.verify.nodes_per_axis, arch.input_dim)
    interiors = []
    for i, system in enumerate(systems):   # task i adapts on its first train batch
        adapted = meta.test_time_adapt(report.theta_mnlf, arch, (X_tr[i, 0], Y_tr[i, 0]),
                                       cfg.meta.adapt_alpha, cfg.meta.k_test, cfg.loss)
        vmap = verify.check_validity(net.MlpLyapunov(adapted, arch), system, grid,
                                     exempt_radius=cfg.verify.exempt_radius)
        interiors.append(_interior_report(vmap, grid))
    # a map that checks no interior node certifies nothing
    accepted = all(checked and green >= cfg.verify.min_green_fraction
                   for green, _, _, checked in interiors)
    return (report, interiors), accepted


def cmd_train_meta(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(args, cfg)
    try:
        selection = verify.select_valid_region(lambda d: _fit_region(cfg, d), cfg.verify.d0,
                                               cfg.verify.shrink_factor, cfg.verify.max_rounds)
    except verify.RegionSelectionFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        _, interiors = exc.artifact
        for i, (green, red_pos, red_dec, checked) in enumerate(interiors):
            print(f"task {i}: interior green fraction {green:.4f}, red nodes: "
                  f"positivity {red_pos}, decrease {red_dec}; {checked} interior nodes checked",
                  file=sys.stderr)
        return EXIT_VERIFICATION

    report, _ = selection.artifact
    ckpt = out / "meta_checkpoint.json"
    atomic_write_text(ckpt, json.dumps(net.checkpoint_payload(
        report.theta_mnlf, cfg.architecture(),
        extra={**_stamp(cfg), "radius": selection.radius, "system_id": cfg.system.system_id,
               "rounds": selection.rounds})))
    atomic_write_json(out / "train_report.json",
                      {**_stamp(cfg), "loss_curve": report.loss_curve.tolist(),
                       "checkpoint": ckpt.name})
    atomic_write_json(out / "region.json",
                      {**_stamp(cfg), "radius": selection.radius, "rounds": selection.rounds})
    atomic_write_json(out / "config_echo.json", config_to_dict(cfg))
    print(f"meta checkpoint written to {ckpt} (radius {selection.radius:g}, "
          f"{selection.rounds} round(s))")
    return EXIT_OK


def _load_checkpoint_for(cfg: ExperimentConfig, path) -> tuple[np.ndarray, net.Architecture, float]:
    """Checkpoint parameters, architecture and region radius (the config's d0 when
    the checkpoint has none): a non-finite parameter or radius raises
    FloatingPointError (OverflowError for an integer beyond float range), any
    other unusable content, a radius within the exemption radius included,
    BadArtifact."""
    try:
        theta, arch, extra = net.load_checkpoint(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BadArtifact(f"checkpoint {path} is unreadable: {exc!r}") from exc
    if not isinstance(extra, dict):
        raise BadArtifact(f"checkpoint extra {extra!r} is not a JSON object")
    if arch.input_dim != cfg.system.nominal().state_dim:
        raise BadArtifact(f"checkpoint is {arch.input_dim}-d, system is "
                          f"{cfg.system.nominal().state_dim}-d")
    radius = extra.get("radius", cfg.verify.d0)
    if isinstance(radius, bool) or not isinstance(radius, (int, float)):
        raise BadArtifact(f"checkpoint radius {radius!r} is not a number")
    if not (np.all(np.isfinite(theta)) and math.isfinite(radius)):
        raise FloatingPointError(f"checkpoint {path} has a non-finite parameter or radius")
    if radius <= 0:
        raise BadArtifact(f"checkpoint radius {radius!r} is not positive")
    if radius <= cfg.verify.exempt_radius:
        # the exempt ball then covers the whole region: its map would certify nothing
        raise BadArtifact(f"checkpoint radius {radius!r} does not exceed the exemption "
                          f"radius {cfg.verify.exempt_radius!r}")
    return theta, arch, radius


def cmd_adapt(args) -> int:
    cfg = _resolve_config(args)
    theta, arch, radius = _load_checkpoint_for(cfg, args.checkpoint)
    m = cfg.meta
    out = _out_dir(args, cfg)
    system_test = dynamics.build_system(cfg.system.test())
    adapted = baselines.test_time_update(cfg, theta, arch, system_test, radius,
                                         cfg.seeds.adapt_seed)
    ckpt = out / "adapted_checkpoint.json"
    atomic_write_text(ckpt, json.dumps(net.checkpoint_payload(
        adapted, arch, extra={**_stamp(cfg), "radius": radius,
                              "system_id": cfg.system.system_id, "adapted": True})))
    atomic_write_json(out / "adapt_ledger.json",
                      {**_stamp(cfg), "samples_used": m.adapt_samples, "steps_used": m.k_test,
                       "alpha": m.adapt_alpha})
    print(f"adapted checkpoint written to {ckpt} ({m.adapt_samples} samples, {m.k_test} steps)")
    return EXIT_OK


def _checkpoint_candidate(cfg: ExperimentConfig, checkpoint):
    theta, arch, radius = _load_checkpoint_for(cfg, checkpoint)
    system_test = dynamics.build_system(cfg.system.test())
    grid = verify.build_grid(radius, cfg.verify.nodes_per_axis, system_test.dim)
    return net.MlpLyapunov(theta, arch), system_test, grid


def cmd_verify(args) -> int:
    cfg = _resolve_config(args)
    candidate, system_test, grid = _checkpoint_candidate(cfg, args.checkpoint)
    out = _out_dir(args, cfg)
    vmap = verify.check_validity(candidate, system_test, grid,
                                 exempt_radius=cfg.verify.exempt_radius)
    atomic_write_text(out / "validity_map.csv", verify.export_validity_csv(vmap, grid))
    atomic_write_text(out / "validity_map.svg",
                      svg.render_validity_svg(vmap, grid, axes=cfg.plane))
    green = float(np.mean(vmap.green))
    atomic_write_json(out / "validity_summary.json",
                      {**_stamp(cfg), "green_fraction": green,
                       "fully_green": vmap.fully_green,
                       "worst_bounds": _worst_bounds(vmap, grid)})
    print(f"validity map written ({green:.4f} green)")
    return EXIT_OK


def cmd_roa(args) -> int:
    cfg = _resolve_config(args)
    candidate, system_test, grid = _checkpoint_candidate(cfg, args.checkpoint)
    out = _out_dir(args, cfg)
    vmap, result = baselines.certify_candidate(candidate, system_test, grid, cfg.verify, cfg.plane)
    check, = roa.monte_carlo_convergence(system_test, [(result, candidate)], grid,
                                         cfg.roa.mc_samples, cfg.roa.mc_step,
                                         cfg.roa.mc_horizon, cfg.roa.mc_tol, cfg.seeds.master)
    atomic_write_json(out / "roa.json", {**_stamp(cfg), **roa.export_roa_json(result, grid)})
    atomic_write_text(out / "roa_boundary.csv", roa.export_boundary_csv(result, grid))
    atomic_write_text(out / "roa_overlay.svg",
                      svg.render_validity_svg(vmap, grid, roa=result, axes=cfg.plane))
    atomic_write_json(out / "roa_mc.json",
                      {**_stamp(cfg), "fraction": check.fraction, "vacuous": check.vacuous,
                       "n_samples": check.n_samples, "step": check.step})
    print(f"roa: c={result.c:g} area={result.area:g} mc_fraction={check.fraction:g}")
    if check.fraction < 1.0:
        print(f"verification failure: {check.n_samples} rollouts from the certified set at "
              f"step {check.step:g}, mc fraction {check.fraction:.4f}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    system_test = dynamics.build_system(cfg.system.test())
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
    if args.horizon / args.h > MAX_RK4_STEPS:
        raise ConfigError(f"--horizon / --h asks for more than {MAX_RK4_STEPS:,} RK4 steps")
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


def cmd_compare(args) -> int:
    cfg = _resolve_config(args)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lyapcert",
                                     description="meta-trained, grid-certified Lyapunov functions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="path to a config JSON file")
        p.add_argument("--preset", help="named preset", choices=sorted(PRESETS))
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", default="out", help="output directory root (default: out)")

    p = sub.add_parser("train-meta", help="meta-train with region selection")
    common(p)
    p.set_defaults(func=cmd_train_meta)

    p = sub.add_parser("adapt", help="test-time adaptation of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("verify", help="tightened-condition map of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("roa", help="certified region of attraction of a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_roa)

    p = sub.add_parser("simulate", help="RK4 rollout of the test-time system")
    common(p)
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--h", type=float, default=0.01)
    p.add_argument("--horizon", type=float, default=20.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="all methods, one table")
    common(p)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BadArtifact as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (meta.NonFiniteLoss, control.NonFiniteDynamics, FloatingPointError,
            OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
