"""Verification lab for the (acyclic) matching property in abelian groups."""
