"""End-to-end and per-layer benchmark of certification (see README.md)."""
