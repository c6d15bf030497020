#!/usr/bin/env python3
"""Check the LQR gains lyapcert.dynamics designs against a Riccati solve.

The package ships seed gains that the Kleinman iteration refines at runtime
into the LQR gains: FAN_K0 was recorded once from an external Riccati solve,
and PENDULUM_K0 = (1, 1) is only a stabilizing gain. This script solves the
Riccati equation with scipy (not a package dependency) where it is installed,
prints how far the refined gains are from its solution, and checks that the
closed loop stays Hurwitz at every benchmark test tuple.
"""

import numpy as np

from lyapcert import dynamics
from lyapcert.control import is_hurwitz
from lyapcert.config import PRESETS

try:
    from scipy.linalg import solve_continuous_are
except ImportError:
    solve_continuous_are = None


def care_gain(A, B, Q, R):
    P = solve_continuous_are(A, B, Q, R)
    return np.linalg.solve(R, B.T @ P)


def main():
    for system_id, nominal, qc, rc in (
        ("pendulum", dynamics.NOMINAL_PENDULUM, np.diag(dynamics.PENDULUM_QC_DIAG),
         np.diag(dynamics.PENDULUM_RC_DIAG)),
        ("fan", dynamics.NOMINAL_FAN, np.diag(dynamics.FAN_QC_DIAG), np.diag(dynamics.FAN_RC_DIAG)),
    ):
        A, B = dynamics._open_loop_linearization(system_id, nominal)
        shipped = dynamics._default_gain(system_id)
        print(f"{system_id}: shipped Kleinman gain\n{np.round(shipped, 6)}")
        if solve_continuous_are is not None:
            K = care_gain(A, B, qc, rc)
            print(f"  scipy CARE gain\n{np.round(K, 6)}")
            print(f"  max difference: {np.max(np.abs(K - shipped)):.2e}")
        for name, cfg in PRESETS.items():
            if cfg.system.system_id != system_id:
                continue
            At, Bt = dynamics._open_loop_linearization(system_id, cfg.system.theta_test)
            ok = is_hurwitz(At - Bt @ shipped)
            print(f"  {name}: test tuple closed loop Hurwitz = {ok}")
        print()


if __name__ == "__main__":
    main()
