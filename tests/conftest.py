"""Helpers shared by the test modules."""

from dataclasses import replace


def fd_view(mdl):
    """The model without its closed forms, so geometry differences it."""
    return replace(mdl, christoffel_fn=None, riemann_fn=None)
