"""Experiment harness: run specs, parallel campaigns, sweeps and figures.

Import the module that defines a name; the package itself loads none of them."""
