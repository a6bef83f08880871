"""Serving benchmark for the verification gateway on BN254 (see README.md)."""
