"""Zhuyi pipeline benchmark (see run.py)."""
