#!/usr/bin/env python3
"""Sweep the BF process through its critical window and print C1/n, s2
against the ODE predictions on both sides.

Example:
    python scripts/sweep_critical_window.py --n 500000 --seed 7 --points 13
"""

import argparse

import percolab


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=500000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--points", type=int, default=13)
    ap.add_argument("--halfwidth", type=float, default=0.3,
                    help="sweep tc +- this window")
    args = ap.parse_args()

    c = percolab.find_tc()
    traj = percolab.integrate(t_end=c.tc + args.halfwidth + 0.05, tol=1e-10)
    step = 2 * args.halfwidth / (args.points - 1)
    grid = [round(c.tc - args.halfwidth + i * step, 6) for i in range(args.points)]
    recs = percolab.run_process(
        "bf", args.n, t_end=grid[-1], record_at=tuple(grid), seed=args.seed
    )

    print(f"# tc = {c.tc:.6f}  gamma = {c.gamma:.6f}  n = {args.n}")
    print("t,side,c1_frac,s2,s2_pred,c1_pred")
    for t, rec in zip(grid, recs):
        if t < c.tc:
            side = "sub"
            try:
                s2_pred = f"{percolab.sbar_k(traj, t)[0]:.6g}"
            except percolab.CriticalWindowError:
                s2_pred = ""
            c1_pred = ""
        else:
            side = "super"
            s2_pred = ""
            delta = t - c.tc
            c1_pred = f"{c.gamma * delta:.6g}" if delta > 0 else "0"
        print(f"{rec.t:.4f},{side},{rec.c1_frac:.6g},{rec.s2:.6g},{s2_pred},{c1_pred}")


if __name__ == "__main__":
    main()
