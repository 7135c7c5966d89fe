"""Verification toolkit for the p-adic algebra of plectic points."""
