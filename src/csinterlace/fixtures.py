"""Loaders for the shipped sequence fixtures (certified on load)."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .golay import GolayPair
from .seqcore import _decode_json


def _read_data(name: str) -> dict:
    return _decode_json(resources.files("csinterlace.data").joinpath(name).read_text())


@lru_cache(maxsize=None)
def load_reference_pairs() -> tuple[GolayPair, ...]:
    """The 30 shipped length-12 pairs with low pairwise cross-correlation."""
    payload = _read_data("reference_pairs.json")
    return tuple(GolayPair.from_strings(p["a"], p["b"]) for p in payload["pairs"])


def reference_set_params() -> tuple[float, int]:
    """(beta, u) the shipped reference set was certified with."""
    payload = _read_data("reference_pairs.json")
    return float(payload["beta"]), int(payload["u"])


@lru_cache(maxsize=None)
def load_noncoherent_spread() -> GolayPair:
    """Length-5 spreading pair used by the 10-RB non-coherent examples."""
    payload = _read_data("spreading_pairs.json")
    return GolayPair.from_strings(payload["noncoherent"]["a"], payload["noncoherent"]["b"])


@lru_cache(maxsize=None)
def load_coherent_example() -> tuple[GolayPair, GolayPair]:
    """(spreading pair of length 10, half-block pair of length 6)."""
    payload = _read_data("spreading_pairs.json")
    coh = payload["coherent"]
    spread = GolayPair.from_strings(coh["spread_a"], coh["spread_b"])
    block = GolayPair.from_strings(coh["block_a"], coh["block_b"])
    return spread, block
