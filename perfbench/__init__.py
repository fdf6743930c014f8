"""End-to-end and per-layer benchmark of the served slice path."""
