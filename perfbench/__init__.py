"""End-to-end and per-layer benchmark of poissonmesh; run ``perfbench/run.py``."""
