"""Explicit cluster topology: sites, racks and nodes as first-class objects.

The paper's claim is that alpha entanglement codes keep data alive in
*unreliable, geographically distributed* environments (Sec. V-C discusses
correlated failures of whole failure domains).  Modelling the world as
``location_count`` anonymous integers cannot express "spread this stripe
across sites" -- this module gives the placement layer a real spatial model:

* a :class:`Topology` is a tree of site -> rack -> node with per-node
  capacity weights and **stable node ids** (the 0-based location indexes the
  rest of the stack already speaks);
* topologies are constructible from compact specs
  (``Topology.parse("sites=3,racks=2,nodes=4")``), JSON files
  (:meth:`Topology.load` / :meth:`Topology.save`) or programmatically
  (:class:`TopologyBuilder`), and round-trip exactly through
  :meth:`Topology.to_json` / :meth:`Topology.from_json`;
* derived *failure-domain views* (:meth:`Topology.domains`) answer the one
  question placement and disaster injection share: which locations fail
  together?
* disaster targets (``"site:0"``, ``"rack:eu/0"``, ``"node:5"``) resolve to
  location sets through :meth:`Topology.locations_for_target`.

``n`` anonymous locations are just the degenerate single-site, single-rack
topology (:meth:`Topology.flat`): wherever a topology is expected a bare
count ``N`` may be passed, and :meth:`Topology.resolve` -- the one place an
``int`` turns into a layout -- makes it ``Topology.flat(N)``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import InvalidParametersError

__all__ = [
    "DOMAIN_LEVELS",
    "Topology",
    "TopologyBuilder",
    "TopologyNode",
]

#: Failure-domain granularities, coarsest first.
DOMAIN_LEVELS = ("site", "rack", "node")

#: Topology JSON format version (bumped on incompatible layout changes).
TOPOLOGY_FORMAT = 1


@dataclass(frozen=True)
class TopologyNode:
    """One storage node: a stable location id plus its place in the tree.

    ``node_id`` is the 0-based location index used by every placement policy,
    cluster directory and disaster trace; ``capacity`` is a relative weight
    (heterogeneous nodes get proportionally more blocks under the
    ``"weighted"`` placement policy).
    """

    node_id: int
    site: str
    rack: str
    name: str
    capacity: float = 1.0


class Topology:
    """An immutable site -> rack -> node tree with stable node ids."""

    def __init__(self, nodes: Sequence[TopologyNode]) -> None:
        nodes = tuple(nodes)
        if not nodes:
            raise InvalidParametersError("a topology needs at least one node")
        for expected, node in enumerate(nodes):
            if node.node_id != expected:
                raise InvalidParametersError(
                    f"topology node ids must be consecutive from 0; "
                    f"found id {node.node_id} at position {expected}"
                )
            if node.capacity <= 0:
                raise InvalidParametersError(
                    f"node {node.name!r} has non-positive capacity {node.capacity}"
                )
        self._nodes = nodes
        # Ordered, first-seen site and (site, rack) catalogues.
        self._sites: List[str] = []
        self._racks: List[Tuple[str, str]] = []
        site_members: Dict[str, List[int]] = {}
        rack_members: Dict[Tuple[str, str], List[int]] = {}
        for node in nodes:
            if node.site not in site_members:
                self._sites.append(node.site)
                site_members[node.site] = []
            rack_key = (node.site, node.rack)
            if rack_key not in rack_members:
                self._racks.append(rack_key)
                rack_members[rack_key] = []
            site_members[node.site].append(node.node_id)
            rack_members[rack_key].append(node.node_id)
        self._site_members = {site: tuple(ids) for site, ids in site_members.items()}
        self._rack_members = {key: tuple(ids) for key, ids in rack_members.items()}
        self._site_index = {site: i for i, site in enumerate(self._sites)}
        self._rack_index = {key: i for i, key in enumerate(self._racks)}
        self._location_domains: Dict[str, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def flat(cls, location_count: int, site: str = "site-0", rack: str = "rack-0") -> "Topology":
        """``location_count`` anonymous nodes in one site and rack."""
        if location_count < 1:
            raise InvalidParametersError("a topology needs at least one node")
        return cls(
            [
                TopologyNode(i, site, rack, f"node-{i:04d}")
                for i in range(location_count)
            ]
        )

    @classmethod
    def grid(
        cls,
        sites: int,
        racks_per_site: int = 1,
        nodes_per_rack: int = 1,
        capacity: float = 1.0,
    ) -> "Topology":
        """A regular sites x racks x nodes grid (what the spec grammar builds)."""
        if min(sites, racks_per_site, nodes_per_rack) < 1:
            raise InvalidParametersError("sites, racks and nodes must all be >= 1")
        nodes: List[TopologyNode] = []
        for s in range(sites):
            for r in range(racks_per_site):
                for n in range(nodes_per_rack):
                    nodes.append(
                        TopologyNode(
                            node_id=len(nodes),
                            site=f"site-{s}",
                            rack=f"rack-{r}",
                            name=f"s{s}.r{r}.n{n}",
                            capacity=capacity,
                        )
                    )
        return cls(nodes)

    @classmethod
    def parse(cls, spec: str) -> "Topology":
        """Build a topology from the compact spec grammar.

        ``sites=<S>,racks=<R>,nodes=<N>[,capacity=<C>]`` builds a regular grid
        of ``S`` sites with ``R`` racks each and ``N`` nodes per rack
        (``"sites=3,racks=2,nodes=4"`` is 24 locations); omitted keys default
        to 1, so ``"sites=3,nodes=4"`` is 3 single-rack sites.  A bare
        integer (``"12"``) is the flat single-site layout.
        """
        cleaned = spec.strip()
        if not cleaned:
            raise InvalidParametersError("empty topology spec")
        if cleaned.isdigit():
            return cls.flat(int(cleaned))
        values: Dict[str, str] = {}
        for part in cleaned.split(","):
            key, separator, value = part.partition("=")
            key = key.strip().lower()
            if not separator or not value.strip():
                raise InvalidParametersError(
                    f"malformed topology spec part {part!r} in {spec!r}; "
                    "expected key=value pairs like 'sites=3,racks=2,nodes=4'"
                )
            if key not in ("sites", "racks", "nodes", "capacity"):
                raise InvalidParametersError(
                    f"unknown topology spec key {key!r} in {spec!r}; "
                    "known keys: sites, racks, nodes, capacity"
                )
            if key in values:
                raise InvalidParametersError(f"duplicate key {key!r} in {spec!r}")
            values[key] = value.strip()
        try:
            sites = int(values.get("sites", "1"))
            racks = int(values.get("racks", "1"))
            nodes = int(values.get("nodes", "1"))
            capacity = float(values.get("capacity", "1.0"))
        except ValueError as exc:
            raise InvalidParametersError(f"malformed topology spec {spec!r}: {exc}") from exc
        return cls.grid(sites, racks, nodes, capacity=capacity)

    @classmethod
    def resolve(cls, value: Union["Topology", int, str, None]) -> Optional["Topology"]:
        """Coerce any accepted topology description into a :class:`Topology`.

        ``None`` passes through; a location count becomes :meth:`flat` (this
        is the only place that happens -- clusters, placement policies and
        service configs all come here); a string is either a JSON file path
        (when it names an existing file or ends in ``.json``) or a compact
        spec.
        """
        if value is None or isinstance(value, Topology):
            return value
        if isinstance(value, (int, np.integer)):
            return cls.flat(int(value))
        if isinstance(value, str):
            if value.endswith(".json") or os.path.isfile(value):
                return cls.load(value)
            return cls.parse(value)
        raise InvalidParametersError(
            f"cannot interpret {value!r} as a topology; expected a Topology, "
            "a location count, a spec like 'sites=3,racks=2,nodes=4' or a "
            "JSON file path"
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[TopologyNode, ...]:
        return self._nodes

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def sites(self) -> Tuple[str, ...]:
        """Site names in first-seen order."""
        return tuple(self._sites)

    @property
    def site_count(self) -> int:
        return len(self._sites)

    @property
    def rack_count(self) -> int:
        """Total racks across all sites."""
        return len(self._racks)

    def capacities(self) -> np.ndarray:
        """Per-node capacity weights as a float array (index = node id)."""
        return np.array([node.capacity for node in self._nodes], dtype=np.float64)

    def node(self, node_id: int) -> TopologyNode:
        if not 0 <= node_id < len(self._nodes):
            raise InvalidParametersError(
                f"node id {node_id} outside 0..{len(self._nodes) - 1}"
            )
        return self._nodes[node_id]

    def site_of(self, node_id: int) -> str:
        return self.node(node_id).site

    def site_locations(self, site: Union[int, str]) -> Tuple[int, ...]:
        """Node ids of one site, addressed by index or name."""
        name = self._site_name(site)
        return self._site_members[name]

    def rack_locations(self, site: Union[int, str], rack: Union[int, str]) -> Tuple[int, ...]:
        """Node ids of one rack, addressed by (site, rack) index or name."""
        site_name = self._site_name(site)
        racks = [key for key in self._racks if key[0] == site_name]
        if isinstance(rack, int) or (isinstance(rack, str) and rack.isdigit()):
            index = int(rack)
            if not 0 <= index < len(racks):
                raise InvalidParametersError(
                    f"site {site_name!r} has {len(racks)} racks, not a rack {index}"
                )
            return self._rack_members[racks[index]]
        key = (site_name, rack)
        if key not in self._rack_members:
            raise InvalidParametersError(
                f"unknown rack {rack!r} in site {site_name!r}"
            )
        return self._rack_members[key]

    def _site_name(self, site: Union[int, str]) -> str:
        if isinstance(site, int) or (isinstance(site, str) and site.isdigit()):
            index = int(site)
            if not 0 <= index < len(self._sites):
                raise InvalidParametersError(
                    f"site index {index} outside 0..{len(self._sites) - 1}"
                )
            return self._sites[index]
        if site not in self._site_index:
            raise InvalidParametersError(
                f"unknown site {site!r}; sites: {', '.join(self._sites)}"
            )
        return site

    # ------------------------------------------------------------------
    # Failure-domain views
    # ------------------------------------------------------------------
    def domains(self, level: str = "site") -> Tuple[Tuple[int, ...], ...]:
        """Groups of node ids that fail together at the given granularity."""
        if level == "site":
            return tuple(self._site_members[site] for site in self._sites)
        if level == "rack":
            return tuple(self._rack_members[key] for key in self._racks)
        if level == "node":
            return tuple((node.node_id,) for node in self._nodes)
        raise InvalidParametersError(
            f"unknown domain level {level!r}; expected one of {DOMAIN_LEVELS}"
        )

    def domain_of(self, node_id: int, level: str = "site") -> int:
        """Index (within :meth:`domains`) of the domain holding ``node_id``."""
        node = self.node(node_id)
        if level == "site":
            return self._site_index[node.site]
        if level == "rack":
            return self._rack_index[(node.site, node.rack)]
        if level == "node":
            return node.node_id
        raise InvalidParametersError(
            f"unknown domain level {level!r}; expected one of {DOMAIN_LEVELS}"
        )

    def location_domains(self, level: str = "site") -> Tuple[int, ...]:
        """:meth:`domain_of` of every node, indexed by node id (built once)."""
        domains = self._location_domains.get(level)
        if domains is None:
            domains = self._location_domains[level] = tuple(
                self.domain_of(node.node_id, level) for node in self._nodes
            )
        return domains

    def domain_labels(self, level: str = "site") -> Tuple[str, ...]:
        """Human-readable names of :meth:`domains`, index-aligned."""
        if level == "site":
            return tuple(self._sites)
        if level == "rack":
            return tuple(f"{site}/{rack}" for site, rack in self._racks)
        if level == "node":
            return tuple(node.name for node in self._nodes)
        raise InvalidParametersError(
            f"unknown domain level {level!r}; expected one of {DOMAIN_LEVELS}"
        )

    def default_level(self) -> str:
        """The coarsest level with more than one domain (spread target)."""
        if self.site_count > 1:
            return "site"
        if self.rack_count > 1:
            return "rack"
        return "node"

    def is_flat(self) -> bool:
        """True for the degenerate single-site, single-rack layout."""
        return self.site_count == 1 and self.rack_count == 1

    # ------------------------------------------------------------------
    # Disaster targets
    # ------------------------------------------------------------------
    def locations_for_target(self, target: str) -> Tuple[int, ...]:
        """Resolve a disaster target string to the node ids it takes down.

        Grammar: ``site:<index|name>``, ``rack:<site>/<rack>`` (site and rack
        by index or name) and ``node:<id>``.
        """
        kind, separator, rest = target.partition(":")
        if not separator or not rest:
            raise InvalidParametersError(
                f"malformed topology target {target!r}; expected 'site:0', "
                "'rack:0/1' or 'node:5'"
            )
        kind = kind.strip().lower()
        rest = rest.strip()
        if kind == "site":
            return self.site_locations(rest)
        if kind == "rack":
            site, slash, rack = rest.partition("/")
            if not slash:
                raise InvalidParametersError(
                    f"malformed rack target {target!r}; expected 'rack:<site>/<rack>'"
                )
            return self.rack_locations(site.strip(), rack.strip())
        if kind == "node":
            if not rest.isdigit():
                raise InvalidParametersError(
                    f"malformed node target {target!r}; expected 'node:<id>'"
                )
            return (self.node(int(rest)).node_id,)
        raise InvalidParametersError(
            f"unknown topology target kind {kind!r}; expected site, rack or node"
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict (the :meth:`from_dict` inverse, id order preserved)."""
        return {
            "format": TOPOLOGY_FORMAT,
            "nodes": [
                {
                    "id": node.node_id,
                    "site": node.site,
                    "rack": node.rack,
                    "name": node.name,
                    "capacity": node.capacity,
                }
                for node in self._nodes
            ],
        }

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "Topology":
        try:
            if int(document.get("format", TOPOLOGY_FORMAT)) != TOPOLOGY_FORMAT:
                raise InvalidParametersError(
                    f"unsupported topology format {document.get('format')!r}"
                )
            nodes = [
                TopologyNode(
                    node_id=int(entry["id"]),
                    site=str(entry["site"]),
                    rack=str(entry["rack"]),
                    name=str(entry.get("name", f"node-{entry['id']}")),
                    capacity=float(entry.get("capacity", 1.0)),
                )
                for entry in document["nodes"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParametersError(f"malformed topology document: {exc}") from exc
        return cls(nodes)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidParametersError(f"malformed topology JSON: {exc}") from exc
        return cls.from_dict(document)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "Topology":
        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_json(stream.read())

    # ------------------------------------------------------------------
    # Dunders / cosmetics
    # ------------------------------------------------------------------
    def describe(self) -> str:
        per_site = [len(self._site_members[site]) for site in self._sites]
        racks = f"{self.rack_count} rack{'s' if self.rack_count != 1 else ''}"
        capacities = self.capacities()
        weight = (
            "uniform capacity"
            if np.all(capacities == capacities[0])
            else "heterogeneous capacity"
        )
        return (
            f"{self.site_count} site{'s' if self.site_count != 1 else ''} "
            f"({'/'.join(str(n) for n in per_site)} nodes), {racks}, "
            f"{self.node_count} locations, {weight}"
        )

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self._nodes == other._nodes

    def __hash__(self) -> int:
        return hash(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Topology({self.describe()})"


class TopologyBuilder:
    """Programmatic topology construction with stable insertion-order ids.

    ::

        topology = (
            TopologyBuilder()
            .site("eu").rack("r0").nodes(4)
            .site("us").rack("r0").nodes(4, capacity=2.0)
            .build()
        )
    """

    def __init__(self) -> None:
        self._nodes: List[TopologyNode] = []
        self._site: Optional[str] = None
        self._rack: Optional[str] = None
        self._site_serial = 0
        self._rack_serial = 0
        self._node_serial = 0

    def site(self, name: Optional[str] = None) -> "TopologyBuilder":
        """Start a new site; subsequent racks/nodes belong to it."""
        self._site = name if name is not None else f"site-{self._site_serial}"
        self._site_serial += 1
        self._rack = None
        self._rack_serial = 0
        return self

    def rack(self, name: Optional[str] = None) -> "TopologyBuilder":
        """Start a new rack inside the current site."""
        if self._site is None:
            self.site()
        self._rack = name if name is not None else f"rack-{self._rack_serial}"
        self._rack_serial += 1
        self._node_serial = 0
        return self

    def node(self, name: Optional[str] = None, capacity: float = 1.0) -> "TopologyBuilder":
        """Add one node to the current rack (implicitly created if needed)."""
        if self._rack is None:
            self.rack()
        node_name = (
            name
            if name is not None
            else f"{self._site}.{self._rack}.n{self._node_serial}"
        )
        self._node_serial += 1
        self._nodes.append(
            TopologyNode(
                node_id=len(self._nodes),
                site=self._site,  # type: ignore[arg-type]
                rack=self._rack,  # type: ignore[arg-type]
                name=node_name,
                capacity=capacity,
            )
        )
        return self

    def nodes(self, count: int, capacity: float = 1.0) -> "TopologyBuilder":
        """Add ``count`` identical nodes to the current rack."""
        for _ in range(count):
            self.node(capacity=capacity)
        return self

    def build(self) -> Topology:
        return Topology(self._nodes)
