"""Run one lyapcert CLI command with span and counter wrappers installed.

    python3 perfbench/traced_cli.py <trace_out.json> <launch_monotonic> <cli args...>

The wrappers sit around the public functions of each layer, where the CLI and
the library call them: a name imported by value (for example
`meta.empirical_loss` or `roa.simulate_batch`) is wrapped in the importing
module as well. Spans (name, start, end, parent) and counters stay in memory
and are written to <trace_out.json> when the command returns.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

from lyapcert import baselines, cli, dynamics, loss, meta, net, roa, svg, verify


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": time.monotonic(), "end": None,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"] = time.monotonic()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counters[key] += value
            return result
        return traced

    def patch(self, name, owners, attr, count=None):
        """Replace `attr` in every owner (module or class) by one traced function."""
        traced = self.wrap(name, getattr(owners[0], attr), count)
        for owner in owners:
            setattr(owner, attr, traced)


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def install(rec: Recorder) -> None:
    def rows(a, k, r):
        return {"net.candidate.rows": len(r)}

    rec.patch("net.loss_gradient", [net], "loss_gradient",
              lambda a, k, r: {"net.loss_gradient.rows": len(_arg(a, k, 2, "batch")[0])})
    rec.patch("net.hvp", [net], "hvp")
    rec.patch("net.shaped_init", [net], "shaped_init")
    rec.patch("net.candidate", [net.MlpLyapunov], "value", rows)
    rec.patch("net.candidate", [net.MlpLyapunov], "gradient", rows)
    rec.patch("loss.empirical_loss", [loss, meta], "empirical_loss")
    rec.patch("meta.meta_train", [meta], "meta_train",
              lambda a, k, r: {"meta.meta_steps": _arg(a, k, 2, "meta_cfg").meta_steps})
    rec.patch("meta.test_time_adapt", [meta], "test_time_adapt")
    rec.patch("verify.estimate_lipschitz", [verify], "estimate_lipschitz")
    rec.patch("verify.check_validity", [verify], "check_validity",
              lambda a, k, r: {"verify.nodes_checked": _arg(a, k, 2, "grid").n_nodes})
    rec.patch("verify.select_valid_region", [verify], "select_valid_region",
              lambda a, k, r: {"verify.region_rounds": r.rounds})
    rec.patch("verify.export_validity_csv", [verify], "export_validity_csv")
    rec.patch("roa.largest_level_set", [roa], "largest_level_set",
              lambda a, k, r: {"roa.member_cells": 0 if r.empty else r.n_cells})
    rec.patch("roa.monte_carlo_convergence", [roa], "monte_carlo_convergence")
    rec.patch("roa.export", [roa], "export_roa_json")
    rec.patch("roa.export", [roa], "export_boundary_csv")
    rec.patch("dynamics.simulate_batch", [dynamics, roa], "simulate_batch",
              lambda a, k, r: {"dynamics.rk4_state_steps": len(_arg(a, k, 1, "X0"))
                               * int(round(_arg(a, k, 3, "horizon") / _arg(a, k, 2, "h")))})
    rec.patch("dynamics.build_system", [dynamics, baselines], "build_system")
    rec.patch("dynamics.build_dataset", [dynamics, baselines], "build_dataset")
    rec.patch("baselines.certify_candidate", [baselines], "certify_candidate")
    rec.patch("baselines.train_nlf", [baselines], "train_nlf",
              lambda a, k, r: {"baselines.nlf_steps": r[2]})
    rec.patch("svg.render", [svg], "render_validity_svg", lambda a, k, r: {"svg.bytes": len(r)})
    rec.patch("svg.render", [svg], "render_phase_svg", lambda a, k, r: {"svg.bytes": len(r)})


def main(argv: list[str]) -> int:
    trace_out, launched, cli_args = argv[0], float(argv[1]), argv[2:]
    rec = Recorder()
    install(rec)
    entered = time.monotonic()
    run = rec.wrap(f"cli.{cli_args[0]}", cli.main)
    try:
        return run(cli_args)
    finally:
        rec.counters["cli.startup_s"] += entered - launched
        with open(trace_out, "w") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
