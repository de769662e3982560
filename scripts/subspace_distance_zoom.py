"""Zoom on the early iterations of one geometric-schedule recovery.

Tracks the distance from the iterate to every component of the union plus
the frontier gap, which shows the nearest component locking in during
burn-in and the iterate moving away from the tie region afterwards.

    python3 scripts/subspace_distance_zoom.py --seed 7000 --iters 80
"""

import argparse

import numpy as np

import projdiff as pd


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7000)
    parser.add_argument("--iters", type=int, default=80)
    parser.add_argument("--out", default="distance_zoom.csv")
    args = parser.parse_args()

    prior = pd.random_lrgmm(64, 5, 8, np.random.default_rng(101))
    operator = pd.gaussian_operator(20, 64, np.random.default_rng(202))
    mu = 1.9 / pd.spectral_norm(operator) ** 2
    schedule = pd.NoiseSchedule("geometric", 0.5, 1e-4, 150)

    x_true = pd.sample(prior, np.random.default_rng(args.seed))
    true_k = int(np.argmax(pd.squared_projection_norms(prior.union, x_true)))
    problem = pd.SensingProblem(
        operator, mu, operator @ x_true, x_true=x_true, seed=args.seed
    )
    trace = pd.run_recovery(
        problem, None, schedule, n_iters=150, prior=prior, record_iterates=False
    )
    burn_in = pd.detect_burn_in(trace, true_k)
    rows = min(args.iters, trace.n_rows)

    n_comp = trace.subspace_distances.shape[1]
    with open(args.out, "w", newline="\n") as fh:
        header = ["n", "sigma", "mse", "frontier_gap"]
        header += [f"dist_{k}" for k in range(n_comp)]
        fh.write(",".join(header) + "\n")
        for i in range(rows):
            cells = [
                str(int(trace.n[i])),
                f"{trace.sigma[i]:.10g}",
                f"{trace.mse[i]:.10g}",
                f"{trace.frontier_gap[i]:.10g}",
            ]
            cells += [f"{trace.subspace_distances[i, k]:.10g}" for k in range(n_comp)]
            fh.write(",".join(cells) + "\n")

    print(f"seed {args.seed}: true component {true_k}, burn-in index {burn_in}")
    print(f"final mse {trace.final_mse:.3e}")
    print(f"wrote first {rows} iterations to {args.out}")


if __name__ == "__main__":
    main()
