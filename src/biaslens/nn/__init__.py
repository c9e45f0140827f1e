"""Deterministic toy-scale neural engine (numpy, float64, exact backprop)."""
