"""Scripted (trace-driven) mobility.

Used to reproduce the real-world scenarios of Fig. 8, where the movement of
the participants is known: a data carrier fetching a collection and walking
to other network segments (scenario 1), peers downloading from a stationary
repository (scenario 2), and peers moving across an area, sometimes
disconnected and sometimes in range of each other (scenario 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.mobility.base import MobilityModel, Position


@dataclass(frozen=True)
class Waypoint:
    """A timed waypoint: the node is at ``(x, y)`` exactly at ``time``."""

    time: float
    x: float
    y: float

    @property
    def position(self) -> Position:
        return Position(self.x, self.y)


class ScriptedMobility(MobilityModel):
    """Piecewise-linear movement through explicit, timed waypoints.

    Before the first waypoint the node sits at the first waypoint's position;
    after the last it sits at the last waypoint's position.  Between
    waypoints the position is linearly interpolated.
    """

    def __init__(self):
        self._waypoints: Dict[str, List[Waypoint]] = {}
        self._version = 0

    def add_node(self, node_id: str, waypoints: Iterable[Waypoint | Tuple[float, float, float]]) -> None:
        """Register a node with its waypoint trace (must be non-empty)."""
        parsed: List[Waypoint] = []
        for waypoint in waypoints:
            if not isinstance(waypoint, Waypoint):
                waypoint = Waypoint(*waypoint)
            parsed.append(waypoint)
        if not parsed:
            raise ValueError(f"node {node_id!r} needs at least one waypoint")
        parsed.sort(key=lambda w: w.time)
        self._waypoints[node_id] = parsed
        self._version += 1

    def add_static_node(self, node_id: str, x: float, y: float) -> None:
        """Register a node that never moves (e.g. a repository)."""
        self.add_node(node_id, [Waypoint(0.0, x, y)])

    @property
    def node_ids(self) -> list[str]:
        return list(self._waypoints)

    def position(self, node_id: str, time: float) -> Position:
        try:
            waypoints = self._waypoints[node_id]
        except KeyError:
            raise KeyError(f"node {node_id!r} has no scripted trace") from None
        return _interpolate(waypoints, time)

    def mobility_version(self) -> int:
        return self._version

    def speed_bound(self) -> float:
        """Fastest leg speed across all traces (exact: traces are known upfront)."""
        fastest = 0.0
        for waypoints in self._waypoints.values():
            for earlier, later in zip(waypoints, waypoints[1:]):
                span = later.time - earlier.time
                if span <= 0:
                    continue
                speed = earlier.position.distance_to(later.position) / span
                fastest = max(fastest, speed)
        return fastest


def _interpolate(waypoints: Sequence[Waypoint], time: float) -> Position:
    if time <= waypoints[0].time:
        return waypoints[0].position
    if time >= waypoints[-1].time:
        return waypoints[-1].position
    for earlier, later in zip(waypoints, waypoints[1:]):
        if earlier.time <= time <= later.time:
            span = later.time - earlier.time
            fraction = 0.0 if span == 0 else (time - earlier.time) / span
            return Position(
                earlier.x + (later.x - earlier.x) * fraction,
                earlier.y + (later.y - earlier.y) * fraction,
            )
    return waypoints[-1].position  # pragma: no cover - defensive
