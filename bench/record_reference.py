"""Record the values bench/run.py checks outputs against.

    python3 bench/record_reference.py --seeds 32

For seeds 0..N-1 this runs the constants probe and, on every workload,
`projdiff simulate` plus `projdiff analyze`, and writes to
bench/reference.json:

- ``delta``: ric_union per union; its inputs do not depend on the seed;
- ``beta``: restricted_lipschitz_estimate per seed and union;
- ``recovered_frac``: per workload and seed, the share of runs whose
  final_mse is at or below the workload's ``tolerance``.

Rerun it only when a change is meant to alter these outputs, and say so
with the change.
"""

import argparse
import json
import shutil
import time

import run

# final_mse at or below which a run counts as recovered.  flagship and
# sparse runs either converge far below 1e-6 or stall above 1e-4; box runs
# end between 1e-7 and 1e-5, at the bias of the box denoiser at sigma_min.
TOLERANCE = {"flagship": 1e-6, "sparse": 1e-6, "box": 1e-4}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args()

    reference = {"tolerance": TOLERANCE, "delta": {}, "beta": {},
                 "recovered_frac": {w: {} for w in run.WORKLOADS}}
    run.REFERENCE.write_text(json.dumps(reference))
    work = run.WORK / "record"
    for seed in range(args.seeds):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        payload = run.Child(run.python(run.BENCH / "probe.py", "constants", run.CONSTANTS_INI,
                                       seed), work, "constants", run.RUN_TIMEOUT_S).json()
        if reference["delta"] and payload["delta"] != reference["delta"]:
            raise SystemExit(f"seed {seed}: delta {payload['delta']} changed with the seed")
        reference["delta"] = payload["delta"]
        reference["beta"][str(seed)] = payload["beta"]
        for workload in run.WORKLOADS:
            session = run.Session(workload, seed, work, time.perf_counter())
            session.simulate(workload)
            if session.failures:
                raise SystemExit(f"{workload} seed {seed}: {session.failures}")
            reference["recovered_frac"][workload][str(seed)] = session.recovered[0]
        print(seed, payload["beta"], {w: reference["recovered_frac"][w][str(seed)]
                                      for w in run.WORKLOADS}, flush=True)
    shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
