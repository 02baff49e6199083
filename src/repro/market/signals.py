"""Price signals: published summaries of recent contracts (§2).

"Given sufficient market volume, it may be sufficient to publish
summaries of recent contracts as a basis for competitive bidding."

A :class:`PriceBoard` is that publication: sites (or the broker) post
each settled contract; readers query recent unit prices (price per unit
of service time) per site or market-wide.  The board never exposes the
sealed bids themselves — only settled outcomes, in keeping with the
paper's sealed-bid protocol.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.audit import fold_books
from repro.errors import MarketError
from repro.tasks.contract import Contract


@dataclass(frozen=True)
class PricePoint:
    """One published settlement."""

    time: float
    site_id: str
    unit_price: float  # settled price per unit of declared runtime
    on_time: bool


class PriceBoard:
    """Rolling window of published contract settlements.

    Parameters
    ----------
    window:
        Number of recent settlements retained (market-wide).
    """

    def __init__(self, window: int = 256) -> None:
        if window < 1:
            raise MarketError(f"window must be >= 1, got {window}")
        self._points: Deque[PricePoint] = deque(maxlen=window)
        self.published = 0

    # ------------------------------------------------------------------
    def publish(self, contract: Contract) -> PricePoint:
        """Post one *settled* contract to the board."""
        if not contract.settled or contract.actual_price is None:
            raise MarketError(
                f"contract {contract.contract_id} is not settled; only settled "
                "contracts are published"
            )
        point = PricePoint(
            time=contract.actual_completion if contract.actual_completion is not None else 0.0,
            site_id=contract.site_id,
            unit_price=contract.actual_price / contract.bid.runtime,
            on_time=contract.on_time,
        )
        return self.publish_point(point)

    def publish_point(self, point: PricePoint) -> PricePoint:
        """Post an already-formed :class:`PricePoint` (recorder feeds)."""
        self._points.append(point)
        self.published += 1
        return point

    # ------------------------------------------------------------------
    def recent(self, site_id: Optional[str] = None) -> list[PricePoint]:
        """Retained points, oldest first, optionally filtered by site."""
        points = list(self._points)
        if site_id is not None:
            points = [p for p in points if p.site_id == site_id]
        return points

    def mean_unit_price(self, site_id: Optional[str] = None) -> Optional[float]:
        points = self.recent(site_id)
        if not points:
            return None
        return sum(p.unit_price for p in points) / len(points)

    def on_time_rate(self, site_id: Optional[str] = None) -> Optional[float]:
        points = self.recent(site_id)
        if not points:
            return None
        return sum(1 for p in points if p.on_time) / len(points)

    def site_summary(self) -> dict[str, dict]:
        """Per-site mean unit price and on-time rate over the window."""
        sites = sorted({p.site_id for p in self._points})
        return {
            s: {
                "mean_unit_price": self.mean_unit_price(s),
                "on_time_rate": self.on_time_rate(s),
                "settlements": len(self.recent(s)),
            }
            for s in sites
        }


def board_from_recording(recording, window: int = 256) -> PriceBoard:
    """Rebuild a :class:`PriceBoard` from a flight recording's settlements.

    The §2 published-contract-summaries signal, derived offline: each
    booked settlement (the first per contract, as the audit books it)
    becomes a :class:`PricePoint`, in recording order, through the same
    rolling window as a live board.  Works on sim and live recordings
    alike (times are in the recording's clock domain).
    """
    board = PriceBoard(window=window)
    for event in fold_books(recording).settlements.values():
        completion = event.get("completion")
        board.publish_point(
            PricePoint(
                time=completion if completion is not None else event["t"],
                site_id=event["site_id"],
                unit_price=event["price"] / event["runtime"],
                on_time=bool(event["on_time"]),
            )
        )
    return board
