"""Shared helpers for the test suite."""

from __future__ import annotations

import random

from inhcalc.anf_direct import DirectContext
from inhcalc.semantics import DivergenceError, EvalContext
from inhcalc.syntax import NamedRef, Reference, ref_text


def ref_str(ref) -> str:
    if isinstance(ref, Reference):
        return ref_text(ref)
    if isinstance(ref, NamedRef):
        return ".".join((f"this@{ref.up}",) + ref.downs)
    return ".".join(ref.downs)  # LexicalRef


def is_path(p) -> bool:
    return isinstance(p, tuple) and all(isinstance(label, str) for label in p)


def mutated_text(surface, rng: random.Random, dup: float = 0.25, i: int = 0) -> str:
    """Surface text of the record of id ``i`` of the surface program
    ``surface`` (as ``parse`` writes it) with elements shuffled and
    randomly duplicated at every nesting level."""
    labels, refs = surface._node[i]
    kids = surface._kids[i]
    parts = [ref_str(r) for r in refs]
    parts += [f"{label} = {mutated_text(surface, rng, dup, kids[label])}" for label in labels]
    parts += [part for part in parts if rng.random() < dup]
    rng.shuffle(parts)
    return "{" + ", ".join(parts) + "}" if parts else "{}"


def properties_struct(ctx: EvalContext, p, depth: int):
    """Finite observation of properties as a comparable tuple; divergence
    collapses to a marker so engines with different budgets still align."""
    try:
        labels = tuple(sorted(ctx.properties(p)))
    except DivergenceError:
        return ("diverged",)
    children = ()
    if depth > 0:
        children = tuple(
            (label, properties_struct(ctx, p + (label,), depth - 1))
            for label in labels
        )
    return (labels, children)


def labels_struct(ctx: DirectContext, p, depth: int):
    """The same observation over the direct ANF engine's labels."""
    try:
        labels = tuple(sorted(ctx.labels(p)))
    except DivergenceError:
        return ("diverged",)
    children = ()
    if depth > 0:
        children = tuple(
            (label, labels_struct(ctx, p + (label,), depth - 1))
            for label in labels
        )
    return (labels, children)
