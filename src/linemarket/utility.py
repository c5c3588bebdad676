"""Operator valuations and the truthful bid response.

Valuations follow the scaled square-root family a*sqrt(x): strictly
increasing, strictly concave, zero at zero, so the valuation of
frequencies x under coefficients a is a @ sqrt(x).  The coefficient is
private to the operator; the market only ever sees the bid it induces,
best_response_bids, the one definition of that bid, which the engine's
re-bid reads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .network import InputMismatchError, PoolSystem, PoolView, _check_real, _write_json

__all__ = [
    "UtilitySpec",
    "UtilityTable",
    "best_response_bids",
]


@dataclass(frozen=True)
class UtilitySpec:
    """One operator's valuation scale within one pool."""

    coefficient: float

    def __post_init__(self) -> None:
        _check_real("valuation coefficient", self.coefficient, "(0, inf)")


def best_response_bids(coefficients: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Each operator's surplus-maximizing bid at its path price: a**2 / (4 mu).

    Maximizing a*sqrt(w / mu) - w over the bid w gives this unique optimum,
    and the frequency it buys, w / mu, is where the marginal value
    a / (2 sqrt(x)) meets mu.  The caller guarantees positive prices.
    """
    return coefficients ** 2 / (4.0 * prices)


class UtilityTable:
    """Valuation specs keyed exactly by the (operator, pool) pairs of a pool system.

    An entry that is not a UtilitySpec, such as a bare number, raises InputMismatchError.
    """

    def __init__(self, entries: Mapping[tuple[str, str], UtilitySpec]) -> None:
        self.entries = dict(entries)
        bad = sorted(key for key, spec in self.entries.items() if not isinstance(spec, UtilitySpec))
        if bad:
            raise InputMismatchError(f"valuations {bad} are not UtilitySpec objects")

    def spec(self, lop: str, pool_id: str) -> UtilitySpec:
        try:
            return self.entries[(lop, pool_id)]
        except KeyError:
            raise InputMismatchError(f"no valuation for operator {lop!r} in pool {pool_id!r}") from None

    def validate_against(self, pools: PoolSystem) -> None:
        missing = set(pools.lines) - set(self.entries)
        extra = set(self.entries) - set(pools.lines)
        if missing or extra:
            raise InputMismatchError(
                f"valuation table mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )

    def coefficients_for(self, view: PoolView) -> np.ndarray:
        """Coefficient vector aligned with a compiled pool view."""
        return np.array([self.spec(lop, view.pool_id).coefficient for lop in view.lop_ids])

    def to_json(self) -> dict:
        return {
            "utilities": [
                {"lop": lop, "pool": k, "a": spec.coefficient}
                for (lop, k), spec in sorted(self.entries.items())
            ]
        }

    @classmethod
    def from_json(cls, doc: Mapping) -> "UtilityTable":
        try:
            entries: dict[tuple[str, str], UtilitySpec] = {}
            for row in doc["utilities"]:
                key = (str(row["lop"]), str(row["pool"]))
                if key in entries:
                    raise ValueError(f"duplicate valuation for {key}")
                entries[key] = UtilitySpec(_check_real(f"valuation 'a' of {key}", row["a"]))
        except (KeyError, TypeError) as err:
            raise ValueError(f"malformed valuation document: missing or bad field {err}") from None
        return cls(entries)

    @classmethod
    def load(cls, path: str | Path) -> "UtilityTable":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def dump(self, path: str | Path) -> None:
        _write_json(path, self.to_json())

    def __len__(self) -> int:
        return len(self.entries)
