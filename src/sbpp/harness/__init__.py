"""Adversary scripts, experiments, and benchmarks for the protocol ladder."""
