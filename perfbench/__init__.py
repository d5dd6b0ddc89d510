"""The repository benchmark: four user workloads timed end to end, plus a
traced run that splits their time over the program's layers. Entry
point: ``perfbench/run.py``; see ``perfbench/README.md``."""
