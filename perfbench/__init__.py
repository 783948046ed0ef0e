"""Seeded benchmark of proxequil; see run.py."""
