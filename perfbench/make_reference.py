"""Regenerate reference.json: the desk workload's macro-F1 for each seed.

    python3 perfbench/make_reference.py

Each seed runs one desk pass (fit plus classify_dataset on the c07 recipe)
with the library in this checkout. The desk check then requires every
later run at that seed to reach its reference minus a tolerance.
"""

import json

from run import import_library

SEEDS = 64  # references for seeds 0..SEEDS-1


def main() -> None:
    import_library()
    import workloads

    refs, accuracy = {}, {}
    for seed in range(SEEDS):
        desk = workloads.Desk(seed)
        desk.reference = None
        result = desk.run_pass(desk.setup())
        refs[str(seed)] = result.quality
        accuracy[str(seed)] = result.extra["accuracy"]
        print(seed, result.quality, result.extra["accuracy"], result.extra["prior_macro_f1"],
              flush=True)
    with open(workloads.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"recipe": "desk", "desk_macro_f1": refs, "desk_accuracy": accuracy},
                  fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
