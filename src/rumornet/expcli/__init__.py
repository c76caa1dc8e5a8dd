"""Experiment harness: scenario configs, sweeps, CSV/SVG export, CLI."""
