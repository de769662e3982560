"""Compare noise schedules on the flagship recovery setup.

Runs the d=64, r=5, K=8, m=20 experiment over several trials per schedule,
prints a comparison table, and writes one CSV row per run.

    python3 scripts/schedule_comparison.py --trials 20 --out comparison.csv
"""

import argparse
import statistics

import numpy as np

import projdiff as pd


def build_setup():
    prior = pd.random_lrgmm(64, 5, 8, np.random.default_rng(101))
    operator = pd.gaussian_operator(20, 64, np.random.default_rng(202))
    mu = 1.9 / pd.spectral_norm(operator) ** 2
    schedules = {
        "geometric": pd.NoiseSchedule("geometric", 0.5, 1e-4, 150),
        "linear": pd.NoiseSchedule("linear", 0.5, 1e-4, 150),
        "cosine": pd.NoiseSchedule("cosine", 0.5, 1e-4, 150),
        "infinite_geometric": pd.NoiseSchedule("infinite_geometric", 0.5, a=0.96),
    }
    return prior, operator, mu, schedules


def run_all(prior, operator, mu, schedules, trial_seeds):
    rows = []
    for seed in trial_seeds:
        x_true = pd.sample(prior, np.random.default_rng(seed))
        true_k = int(np.argmax(pd.squared_projection_norms(prior.union, x_true)))
        problem = pd.SensingProblem(operator, mu, operator @ x_true, x_true=x_true, seed=seed)
        for name, schedule in schedules.items():
            trace = pd.run_recovery(
                problem, None, schedule, n_iters=150, prior=prior,
                record_iterates=False,
            )
            burn_in = pd.detect_burn_in(trace, true_k)
            try:
                fit = pd.fit_linear_rate(trace, from_n=burn_in or 0)
                rate, r2 = fit.rate, fit.r2
            except pd.InsufficientDataError:
                rate, r2 = float("nan"), float("nan")
            rows.append({
                "schedule": name,
                "seed": seed,
                "final_mse": trace.final_mse,
                "burn_in": burn_in,
                "rate": rate,
                "r2": r2,
            })
    return rows


def print_table(rows, schedules):
    print(f"{'schedule':<20} {'converged':>9} {'median mse':>12} {'mean burn-in':>13}")
    for name in schedules:
        group = [row for row in rows if row["schedule"] == name]
        mses = [row["final_mse"] for row in group]
        burns = [row["burn_in"] for row in group if row["burn_in"] is not None]
        frac = sum(1 for v in mses if v < 1e-6) / len(group)
        mean_burn = f"{statistics.mean(burns):.2f}" if burns else "-"
        print(f"{name:<20} {frac:>9.0%} {statistics.median(mses):>12.3e} {mean_burn:>13}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--base-seed", type=int, default=7000)
    parser.add_argument("--out", default="schedule_comparison.csv")
    args = parser.parse_args()

    prior, operator, mu, schedules = build_setup()
    seeds = range(args.base_seed, args.base_seed + args.trials)
    rows = run_all(prior, operator, mu, schedules, seeds)
    print_table(rows, schedules)

    with open(args.out, "w", newline="\n") as fh:
        fh.write("schedule,seed,final_mse,burn_in,rate,r2\n")
        for row in rows:
            burn = "" if row["burn_in"] is None else row["burn_in"]
            fh.write(
                f"{row['schedule']},{row['seed']},{row['final_mse']:.17g},"
                f"{burn},{row['rate']:.17g},{row['r2']:.17g}\n"
            )
    print(f"\nwrote {len(rows)} rows to {args.out}")


if __name__ == "__main__":
    main()
