"""Time-to-solution benchmark for the stiefelscf SCF solvers.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.  See ``perfbench/README.md`` for
the workloads, the metrics and the layer-to-metric predictions.
"""
