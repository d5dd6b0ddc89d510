"""Regenerate ``golden.json``, the digests the benchmark checks outputs against.

Usage (from the repository root)::

    python3 perfbench/make_golden.py

Run it only when a change to the model's outputs is intended: every
timed run compares its Pareto fronts, optima, network totals, tuner
rankings, lint codes and verify verdicts with this file, and counts
each difference as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro import dse as dse_mod, lint, tuner, verify
    from repro.engines import analysis

    from perfbench import workloads as w

    golden = {}
    dse = w.DseFig13(0)
    dse.setup()
    golden["dse_fig13"] = {
        f"{flow}/{layer}": w.dse_digest(
            dse_mod.explore(dse.layers[layer], dse.spaces[flow], w.AREA_BUDGET,
                         w.POWER_BUDGET, cache=False)
        )
        for flow, layer in dse.SETTINGS
    }
    mapping = w.MappingSearch(0)
    mapping.setup()
    golden["mapping_search"] = {
        "network": {
            f"{model}/{flow}": w.network_digest(
                analysis.analyze_network(
                    mapping.networks[model], mapping.flows[flow], mapping.accelerator
                )
            )
            for model in mapping.MODELS
            for flow in mapping.flows
        },
        "tune": {
            f"{layer}@{pes}": w.tuner_digest(
                tuner.tune_layer(
                    mapping.networks["vgg16"].layer(layer), mapping.tune_accelerators[pes],
                    executor="serial", cache=False,
                )
            )
            for layer, pes in mapping.TUNE
        },
    }
    library = w.LibraryCheck(0)
    library.setup()
    golden["library_check"] = {
        key: w.library_outcome(
            lint.lint_dataflow(flow, layer, library.accelerator), verify.verify_dataflow(flow, layer)
        )
        for key, layer, flow in library.pairs
    }
    w.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
