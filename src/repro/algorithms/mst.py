"""Distributed minimum spanning tree.

Two algorithms, both measured on the CONGEST simulator:

- :class:`BoruvkaMSTProgram` -- classic GHS/Boruvka fragment merging.  Each
  flood window covers ``n + 1`` hops in link-rounds, ``(n + 1) *
  ceil(bits / B)`` for the message it carries, and a fragment left with no
  outgoing edge spans its component and halts, so a run stops in the
  iteration after its last merge.  Simple and exactly correct; tests
  cross-check its tree against networkx and ``graphs/kruskal.py``.

- :class:`GKPMSTProgram` -- the Garay-Kutten-Peleg shape [GKP98, KP98] the
  paper cites as the ``O~(sqrt(n) + D)`` upper bound: *Phase A* runs
  controlled Boruvka with fragment-size cap ``sqrt(n)`` and ``O(sqrt(n))``
  flood budgets; *Phase B* elects a leader, builds a BFS tree, and finishes
  by pipelining per-fragment minimum outgoing edges to the root, which merges
  fragments centrally and downcasts relabelings.  Its budgets are ``n + 1``
  up to n of about 120-170 and carry large constants past that, so at the
  sizes run here its rounds grow about linearly: 19-27 rounds per node for
  n = 16-400 at B = 128 (ROADMAP item 11).

Both algorithms assume distinct edge weights (ties are broken by the
canonical edge key, which is equivalent to perturbing weights), so the MST
is unique.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Any, Hashable

import networkx as nx

from repro.algorithms.framework import (
    BfsTreePhase,
    LeaderElectionPhase,
    LocalComputationPhase,
    Phase,
    PhasedProgram,
    PipelinedDowncastPhase,
    PipelinedUpcastPhase,
)
from repro.congest.faults import FaultPlan
from repro.congest.message import Received
from repro.congest.network import CongestNetwork, RunResult
from repro.congest.node import Node, NodeProgram


def edge_key(weight: float, u: Hashable, v: Hashable) -> tuple:
    """Canonical total order on edges: by weight, then endpoint names."""
    a, b = sorted((repr(u), repr(v)))
    return (float(weight), a, b)


#: ``ceil(log2 n)``-style id width per network size -- ``_control_bits`` is
#: called once per control message, so the log is looked up, not recomputed.
_ID_BITS_CACHE: dict[int, int] = {}


def _control_bits(node: Node, floats: int = 0, ids: int = 0, extra: int = 8) -> int:
    """Honest bit size of a control message: ids cost ``ceil(log2 n)`` bits,
    weights 64 bits, plus a small tag/header allowance.  (The simulator's
    default payload sizing charges repr-string lengths, which would bill the
    *encoding*, not the information.)"""
    n = node.n_nodes
    id_bits = _ID_BITS_CACHE.get(n)
    if id_bits is None:
        id_bits = _ID_BITS_CACHE[n] = max(8, math.ceil(math.log2(max(2, n))) + 1)
    return extra + 64 * floats + id_bits * ids


@functools.lru_cache(maxsize=65536)
def _mate_coin(label, iteration: int) -> int:
    """Deterministic random-mate coin: 1 = head (absorbs), 0 = tail
    (joins).  Derived from the fragment label and iteration so that all
    members of a fragment agree without communication."""
    digest = hashlib.sha256(f"{label!r}|{iteration}".encode()).digest()
    return digest[0] & 1


def _min_outgoing(node: Node, label_of: dict, my_label) -> tuple | None:
    """The node's lightest incident edge leaving its fragment, as
    ``(key, u, v)`` with ``u = node.id``."""
    best = None
    for neighbor in node.neighbors:
        if label_of.get(repr(neighbor), my_label) == my_label:
            continue
        key = edge_key(node.edge_weight(neighbor), node.id, neighbor)
        if best is None or key < best[0]:
            best = (key, node.id, neighbor)
    return best


def _better(a: tuple | None, b: tuple | None) -> bool:
    """Whether candidate ``a`` beats ``b``; ``None`` is no candidate."""
    if a is None:
        return False
    if b is None:
        return True
    return a[0] < b[0]


class _FragmentState:
    """Per-node fragment bookkeeping of :class:`BoruvkaMSTProgram`."""

    __slots__ = (
        "label",
        "tree_neighbors",
        "neighbor_labels",
        "best_cand",
        "cand_dirty",
        "label_dirty",
    )

    def __init__(self, node: Node):
        self.label = node.id
        self.tree_neighbors: set = set()  # MST edges chosen so far (local view)
        self.neighbor_labels: dict[str, Any] = {}
        # This iteration's lightest known outgoing edge, and whether it or
        # the label still has to be flooded over the tree edges.
        self.best_cand: tuple | None = None
        self.cand_dirty = False
        self.label_dirty = False


class BoruvkaMSTProgram(NodeProgram):
    """Classic Boruvka with per-iteration schedule:

    1. announce label to all neighbours; the labels arrive ``ceil(label
       bits / B)`` rounds later, in the *announce* round, where every node
       computes its candidate;
    2. flood the fragment's minimum outgoing edge over tree edges (the
       candidate window);
    3. choose round: a node that holds no candidate halts; otherwise the
       winning endpoint adds the edge and notifies across it;
    4. re-flood labels over the enlarged tree (the label window).

    Each flood window lasts ``(n + 1) * ceil(bits / B)`` rounds, ``bits``
    being the size of the message it carries: ``n + 1`` hops, more than any
    fragment's diameter, at the rounds one such message needs per link.
    Candidates all have one size and all start in the announce round, so
    each is sent in a round ``announce + j * ceil(bits / B)`` and never
    waits behind another on a link: the flood reaches the whole fragment
    within the window.  A node left without a candidate therefore belongs
    to a fragment with no outgoing edge, one that spans its component, and all
    of its nodes halt in the same choose round: in iteration ``k + 1`` of a
    run that merged in ``k`` iterations.  The ``ceil(log2 n) + 1``
    iterations that suffice to merge (the fragment count at least halves
    per iteration) only cap a run under faults, where a dropped message can
    stall a fragment.  There a node that misses its fragment's candidate
    flood also halts early and stops relaying; ``mst-under-faults`` detects
    the wrong tree and restarts.
    """

    def __init__(self):
        self.state: _FragmentState | None = None
        self._sched: tuple[int, int, int, int, int, int] | None = None

    def _schedule(self, node: Node) -> tuple[int, int, int, int, int, int]:
        """(candidate bits, label bits, announce round, choose round,
        iteration length, iterations) -- pure functions of ``n`` and ``B``,
        computed once per program instance (``on_round``/
        ``next_active_round`` run thousands of times)."""
        sched = self._sched
        if sched is None:
            n = node.n_nodes
            cand_bits = _control_bits(node, floats=1, ids=3, extra=16)
            label_bits = _control_bits(node, ids=1)
            announce = -(-label_bits // node.bandwidth)
            cand_window = (n + 1) * -(-cand_bits // node.bandwidth)
            label_window = (n + 1) * announce
            sched = self._sched = (
                cand_bits,
                label_bits,
                announce,
                announce + cand_window + 1,
                announce + cand_window + label_window + 3,
                math.ceil(math.log2(n)) + 1 if n > 1 else 1,
            )
        return sched

    @staticmethod
    def _halt(node: Node, state: _FragmentState) -> None:
        node.halt(
            {
                "label": state.label,
                "tree_neighbors": sorted(state.tree_neighbors, key=repr),
            }
        )

    def on_start(self, node: Node) -> None:
        self.state = _FragmentState(node)
        label_bits = self._schedule(node)[1]
        node.broadcast(("label", self.state.label), bits=label_bits)

    def on_round(self, node: Node, round_no: int, inbox: list[Received]) -> None:
        state = self.state
        assert state is not None
        cand_bits, label_bits, announce, choose, length, iterations = self._schedule(node)
        iteration, r = divmod(round_no - 1, length)
        r += 1  # 1-based within iteration

        if iteration >= iterations:
            self._halt(node, state)
            return

        for msg in inbox:
            tag = msg.payload[0]
            if tag == "label":
                state.neighbor_labels[repr(msg.sender)] = msg.payload[1]
            elif tag == "cand":
                incoming = msg.payload[1]
                if _better(incoming, state.best_cand):
                    state.best_cand = incoming
                    state.cand_dirty = True
            elif tag == "chosen":
                state.tree_neighbors.add(msg.sender)
                # Re-announce our label across the new edge.
                state.label_dirty = True
            elif tag == "newlabel":
                incoming = msg.payload[1]
                if repr(incoming) < repr(state.label):
                    state.label = incoming
                    state.label_dirty = True

        if r == announce:
            # Labels from the announcement arrive now; compute local candidate.
            state.best_cand = _min_outgoing(node, state.neighbor_labels, state.label)
            state.cand_dirty = True

        if announce <= r < choose:
            if state.cand_dirty and state.best_cand:
                for neighbor in state.tree_neighbors:
                    node.send(neighbor, ("cand", state.best_cand), bits=cand_bits)
                state.cand_dirty = False

        if r == choose:
            best = state.best_cand
            if best is None:
                # The fragment has no outgoing edge: it spans the component.
                self._halt(node, state)
                return
            if best[1] == node.id:
                _, _, other = best
                state.tree_neighbors.add(other)
                node.send(other, ("chosen",), bits=8)
            state.label_dirty = True

        if choose <= r < length:
            if state.label_dirty:
                for neighbor in state.tree_neighbors:
                    node.send(neighbor, ("newlabel", state.label), bits=label_bits)
                state.label_dirty = False

        if r == length:
            # Prepare the next iteration: announce the (new) label.
            state.neighbor_labels.clear()
            state.best_cand = None
            node.broadcast(("label", state.label), bits=label_bits)

    def next_active_round(self, node: Node, after_round: int) -> int | None:
        # Spontaneous rounds per iteration: r=announce (compute + flood
        # candidate), r=choose (choose or halt, mark labels dirty),
        # r=length (re-announce); everything else is delivery-driven.  The
        # iteration cap's halt round ends the schedule.
        _, _, announce, choose, length, iterations = self._schedule(node)
        halt_round = iterations * length + 1
        if after_round >= halt_round:
            return None
        base = (after_round // length) * length
        for off in (announce, choose, length, length + announce):
            if base + off > after_round:
                return min(base + off, halt_round)
        return halt_round  # pragma: no cover - offsets above always cover


# -- Phase A of GKP: controlled Boruvka ---------------------------------------


class ControlledBoruvkaPhase(Phase):
    """Boruvka iterations with fragment-size cap and bounded flood budgets.

    Fragments stop *proposing* once their size reaches ``cap`` (they may
    still absorb smaller proposers), which keeps fragment diameters -- and
    hence flood budgets -- ``O(cap)`` and leaves at most ``~ n / cap``
    fragments for Phase B.
    """

    name = "controlled-boruvka"

    def __init__(self, cap: int):
        self.cap = cap
        self._sched: tuple[int, int, int] | None = None

    def _schedule(self, node: Node) -> tuple[int, int, int]:
        """(iterations, budget, iteration length) -- pure functions of
        ``cap`` and ``n``, computed once per phase instance."""
        sched = self._sched
        if sched is None:
            sched = self._sched = (
                self._iterations(node),
                self._budget(node),
                self._iteration_length(node),
            )
        return sched

    def _iterations(self, node: Node) -> int:
        return max(1, math.ceil(math.log2(self.cap)) + 1)

    def _budget(self, node: Node) -> int:
        # Fragment diameters stay below this budget: proposers need
        # (estimated) diameter < cap, absorbers stop at 3 cap, and the
        # merged-diameter estimate 2 (mine + theirs) + 2 over-counts the
        # worst one-iteration composition of a mutual merge plus
        # absorptions, giving <= 2 (3 cap) + 2 cap + 2 < 10 cap + 10.
        # Every label flood therefore converges within the budget, keeping
        # labels consistent at each iteration start (the correctness
        # invariant; Phase B's equivalence repair backstops it regardless).
        return min(node.n_nodes + 1, 10 * self.cap + 10)

    def _iteration_length(self, node: Node) -> int:
        # announce(1) + candidate flood (budget) + propose/accept (arrival
        # tolerant) + relabel flood (budget, with chunking slack).
        return 3 * self._budget(node) + 10

    def duration(self, node: Node, shared: dict) -> int:
        iterations, _budget, length = self._schedule(node)
        return iterations * length

    def on_enter(self, node: Node, shared: dict) -> None:
        shared["frag_label"] = node.id
        shared["frag_tree"] = set()
        shared["frag_diam"] = 0
        shared["_nlabels"] = {}
        node.broadcast(("label", node.id), bits=_control_bits(node, ids=1))

    def on_round(self, node: Node, round_in_phase: int, inbox: list[Received], shared: dict) -> None:
        cap = self.cap
        _iterations, budget, length = self._schedule(node)
        _iteration, r = divmod(round_in_phase - 1, length)
        r += 1

        for msg in inbox:
            tag = msg.payload[0]
            if tag == "label":
                shared["_nlabels"][repr(msg.sender)] = msg.payload[1]
            elif tag == "cand":
                cand, diam = msg.payload[1], msg.payload[2]
                shared["_diam_est"] = max(shared.get("_diam_est", 0), diam)
                if _better(cand, shared.get("_best_cand")):
                    shared["_best_cand"] = cand
                    shared["_dirty"] = True
            elif tag == "propose":
                # Proposals are processed on arrival (they may be chunked
                # over several rounds): star contraction -- mutual pairs
                # always merge; one-sided proposals are accepted only by
                # "head" fragments (deterministic pseudo-random coin per
                # fragment per iteration) from "tail" proposers, and heads
                # stop absorbing at diameter 3 cap.  Merge components are
                # depth-one stars, so all diameters stay below the flood
                # budget (see _budget) and every label flood converges.
                sender = msg.sender
                other_label, key, their_coin, their_diam = msg.payload[1:]
                if repr(other_label) == repr(shared["frag_label"]):
                    continue  # stale proposal from our own fragment
                best = shared.get("_best_cand")
                my_diam = shared.get("_diam_est", 0)
                my_coin = _mate_coin(shared["frag_label"], _iteration)
                mutual = (
                    best is not None
                    and best[1] == node.id
                    and best[2] == sender
                    and best[0] == key
                )
                absorb = my_coin == 1 and their_coin == 0 and my_diam < 3 * cap
                if mutual or absorb:
                    merged_diam = 2 * my_diam + 2 * their_diam + 2
                    shared["frag_tree"].add(sender)
                    shared["frag_diam"] = max(shared["frag_diam"], merged_diam)
                    shared["_ldirty"] = True
                    if not mutual:
                        node.send(sender, ("accept", merged_diam), bits=24)
            elif tag == "accept":
                shared["frag_tree"].add(msg.sender)
                shared["frag_diam"] = max(shared["frag_diam"], msg.payload[1])
                shared["_ldirty"] = True
            elif tag == "newlabel":
                if repr(msg.payload[1]) < repr(shared["frag_label"]) or (
                    repr(msg.payload[1]) == repr(shared["frag_label"])
                    and msg.payload[2] > shared["frag_diam"]
                ):
                    shared["frag_label"] = msg.payload[1]
                    shared["frag_diam"] = max(shared["frag_diam"], msg.payload[2])
                    shared["_ldirty"] = True

        if r == 1:
            candidate = _min_outgoing(node, shared["_nlabels"], shared["frag_label"])
            shared["_best_cand"] = candidate
            shared["_diam_est"] = shared.get("frag_diam", 0)
            shared["_dirty"] = True

        if 1 <= r <= budget + 1:
            if shared.get("_dirty") and shared.get("_best_cand"):
                for neighbor in shared["frag_tree"]:
                    node.send(
                        neighbor,
                        ("cand", shared["_best_cand"], shared["_diam_est"]),
                        bits=_control_bits(node, floats=1, ids=3, extra=32),
                    )
                shared["_dirty"] = False

        if r == budget + 2:
            # Propose along the fragment's minimum outgoing edge (small-
            # diameter fragments only).
            best = shared.get("_best_cand")
            diam = shared.get("_diam_est", 0)
            if diam < cap and best is not None and best[1] == node.id:
                _key, _me, other = best
                coin = _mate_coin(shared["frag_label"], _iteration)
                node.send(
                    other,
                    ("propose", shared["frag_label"], best[0], coin, diam),
                    bits=_control_bits(node, floats=1, ids=4, extra=32),
                )

        if budget + 2 <= r < length:
            if shared.get("_ldirty"):
                for neighbor in shared["frag_tree"]:
                    node.send(
                        neighbor,
                        ("newlabel", shared["frag_label"], shared["frag_diam"]),
                        bits=_control_bits(node, ids=1, extra=32),
                    )
                shared["_ldirty"] = False

        if r == length:
            shared["_nlabels"].clear()
            shared.pop("_best_cand", None)
            node.broadcast(("label", shared["frag_label"]), bits=_control_bits(node, ids=1))

    def on_exit(self, node: Node, shared: dict) -> None:
        shared["mst_neighbors"] = set(shared["frag_tree"])
        for key in ("_nlabels", "_best_cand", "_dirty", "_ldirty", "_diam_est"):
            shared.pop(key, None)

    def idle_until(self, node: Node, round_in_phase: int, shared: dict) -> int | None:
        # Same spontaneous schedule as BoruvkaMSTProgram: r=1 (candidate),
        # r=budget+2 (propose), r=length (re-announce); the dirty-flag flood
        # windows in between fire only in the same step as a delivery.
        _iterations, budget, length = self._schedule(node)
        base = (round_in_phase // length) * length
        for off in (1, budget + 2, length, length + 1):
            if base + off > round_in_phase:
                return base + off
        return round_in_phase + 1  # pragma: no cover - offsets above always cover


# -- Phase B of GKP: central merging over the BFS tree ------------------------


class _AnnounceLabelsPhase(Phase):
    """One round: everyone tells neighbours their current fragment label."""

    name = "announce-labels"

    def duration(self, node: Node, shared: dict) -> int:
        return 2

    def on_enter(self, node: Node, shared: dict) -> None:
        node.broadcast(("flabel", shared["frag_label"]), bits=_control_bits(node, ids=1))

    def on_round(self, node: Node, r: int, inbox: list[Received], shared: dict) -> None:
        for msg in inbox:
            if msg.payload[0] == "flabel":
                shared.setdefault("_phaseb_nlabels", {})[repr(msg.sender)] = msg.payload[1]

    def idle_until(self, node: Node, round_in_phase: int, shared: dict) -> int | None:
        return None  # collection is delivery-driven


def _collect_candidates(node: Node, shared: dict) -> None:
    """Prepare each node's upcast items: its fragment's candidate edge plus
    label-equivalence repairs.

    A *repair* item ``("equiv", l1, l2)`` is emitted whenever a tree edge
    (already part of the MST under construction) connects two different
    labels -- which happens exactly when a Phase-A label flood did not fully
    converge.  The root unions equivalent labels before processing
    proposals, so the central merge is correct regardless of Phase A's
    budgets (Phase A is thereby a pure optimisation).
    """
    labels = shared.get("_phaseb_nlabels", {})
    my_label = shared["frag_label"]
    items: list[tuple] = []
    for neighbor in sorted(shared["mst_neighbors"], key=repr):
        other_label = labels.get(repr(neighbor), my_label)
        if repr(other_label) != repr(my_label):
            pair = sorted((my_label, other_label), key=repr)
            items.append(("equiv", pair[0], pair[1]))
    tree_reprs = {repr(m) for m in shared["mst_neighbors"]}
    best = None
    for neighbor in node.neighbors:
        other_label = labels.get(repr(neighbor), my_label)
        if repr(other_label) == repr(my_label):
            continue
        if repr(neighbor) in tree_reprs:
            continue  # already a tree edge
        key = edge_key(node.edge_weight(neighbor), node.id, neighbor)
        if best is None or key < best[1]:
            best = ("prop", key, node.id, neighbor, my_label, other_label)
    if best is not None:
        items.append(best)
    shared["proposals"] = items


def _fragment_min_reducer(items: list) -> list:
    """Keep the lightest proposal per source-fragment label; dedupe repairs.

    Meets :class:`PipelinedUpcastPhase`'s reducer contract: it returns items
    from its input, and its output -- the repairs, then one proposal per
    label, each part sorted by repr -- is sorted by repr and stays reduced
    when its head is removed.
    """
    best: dict[str, tuple] = {}
    equivs: set[tuple] = set()
    for item in items:
        if item is None:
            continue
        if item[0] == "equiv":
            equivs.add(item)
            continue
        key_label = repr(item[4])
        if key_label not in best or item[1] < best[key_label][1]:
            best[key_label] = item
    return sorted(equivs, key=repr) + sorted(best.values(), key=repr)


def _central_merge(node: Node, shared: dict) -> None:
    """Root merges fragments along all received proposals (all are MST edges
    by the cut rule) and prepares the relabel/edge item list to downcast."""
    if shared["parent"] is not None:
        shared["decisions"] = []
        return
    collected = shared.get("collected") or []
    equivs = [it for it in collected if it[0] == "equiv"]
    proposals = [it for it in collected if it[0] == "prop"]
    parent: dict[str, Any] = {}

    def find(label) -> Any:
        root = label
        while repr(root) in parent:
            root = parent[repr(root)]
        return root

    def union(la, lb) -> bool:
        ra, rb = find(la), find(lb)
        if repr(ra) == repr(rb):
            return False
        keep, drop = (ra, rb) if repr(ra) < repr(rb) else (rb, ra)
        parent[repr(drop)] = keep
        return True

    # Repairs first: labels joined by existing tree edges are the same
    # fragment, no matter what Phase A's floods managed to propagate.
    for _tag, l1, l2 in equivs:
        union(l1, l2)
    # Keep only each fragment's *minimum* proposal: the pipeline cannot
    # retract an already-forwarded item, so the root may receive several
    # proposals per source label -- only the fragment minimum is an MST
    # edge by the cut rule.
    best_per_label: dict[str, tuple] = {}
    for item in proposals:
        lu = repr(find(item[4]))
        if lu not in best_per_label or item[1] < best_per_label[lu][1]:
            best_per_label[lu] = item
    decisions = []
    for item in sorted(best_per_label.values(), key=lambda it: it[1]):
        _tag, _key, u, v, lu, lv = item
        if union(lu, lv):
            decisions.append(("edge", u, v))
    seen_labels = {repr(it[4]): it[4] for it in proposals}
    seen_labels.update({repr(it[5]): it[5] for it in proposals})
    seen_labels.update({repr(it[1]): it[1] for it in equivs})
    seen_labels.update({repr(it[2]): it[2] for it in equivs})
    for rep, label in sorted(seen_labels.items()):
        final = find(label)
        if repr(final) != rep:
            decisions.append(("relabel", label, final))
    shared["decisions"] = decisions


def _apply_decisions(node: Node, shared: dict) -> None:
    """Everyone applies the downcast relabelings and marks chosen edges."""
    relabel: dict[str, Any] = {}
    for item in shared.get("decisions") or []:
        if item[0] == "relabel":
            relabel[repr(item[1])] = item[2]
        elif item[0] == "edge":
            _tag, u, v = item
            if node.id == u:
                shared["mst_neighbors"].add(v)
            elif node.id == v:
                shared["mst_neighbors"].add(u)
    me = repr(shared["frag_label"])
    if me in relabel:
        shared["frag_label"] = relabel[me]
    shared.pop("_phaseb_nlabels", None)


def _output(node: Node, shared: dict) -> None:
    shared["output"] = {
        "label": shared["frag_label"],
        "tree_neighbors": sorted(shared["mst_neighbors"], key=repr),
    }


def _set_capacity(cap: int, node: Node, shared: dict) -> None:
    """Fix the Phase-B pipeline capacity from common knowledge."""
    # Phase A leaves ~ n / cap fragments; the pipeline carries one
    # proposal per fragment plus equivalence repairs, and the downcast
    # one relabel + one edge per merge -- sized with generous slack.
    shared["phase_b_capacity"] = min(node.n_nodes + 1, 12 * max(2, node.n_nodes // cap) + 24)


class GKPMSTProgram(PhasedProgram):
    """The full two-phase ``O~(sqrt(n) + D)`` MST algorithm."""

    def __init__(self, phase_b_iterations: int, cap: int):
        phases: list[Phase] = [
            ControlledBoruvkaPhase(cap=cap),
            LeaderElectionPhase(),
            BfsTreePhase(),
            LocalComputationPhase(functools.partial(_set_capacity, cap)),
        ]
        for _ in range(phase_b_iterations):
            phases.extend(
                [
                    _AnnounceLabelsPhase(),
                    LocalComputationPhase(_collect_candidates),
                    PipelinedUpcastPhase(
                        "proposals", "collected", "phase_b_capacity", reducer=_fragment_min_reducer
                    ),
                    LocalComputationPhase(_central_merge),
                    PipelinedDowncastPhase("decisions", "phase_b_capacity"),
                    LocalComputationPhase(_apply_decisions),
                ]
            )
        phases.append(LocalComputationPhase(_output))
        super().__init__(phases)


# -- harness helpers -----------------------------------------------------------


def collect_tree_edges(outputs: dict[Hashable, Any]) -> set[frozenset]:
    """Union the per-node ``tree_neighbors`` outputs into an edge set.

    Nodes without a usable output -- a faulted run cut off at its horizon
    can leave crashed nodes with ``None`` -- contribute nothing; their tree
    edges still appear if the other endpoint finished.
    """
    edges: set[frozenset] = set()
    for node_id, output in outputs.items():
        if not isinstance(output, dict) or "tree_neighbors" not in output:
            continue
        for neighbor in output["tree_neighbors"]:
            edges.add(frozenset((node_id, neighbor)))
    return edges


def tree_weight(graph: nx.Graph, edges: set[frozenset]) -> float:
    return sum(graph.edges[tuple(e)]["weight"] for e in edges)


def run_boruvka_mst(
    graph: nx.Graph,
    bandwidth: int = 64,
    max_rounds: int = 500_000,
    engine: str = "event",
    faults: "FaultPlan | None" = None,
) -> tuple[set[frozenset], RunResult]:
    """Run Boruvka MST; returns (tree edges, run metrics).

    With ``faults``, the run executes under the plan's adversity; cap
    ``max_rounds`` explicitly (a fault-stalled run otherwise burns the full
    default budget) and validate the returned edges before trusting them --
    see the ``mst-under-faults`` scenario for the restart-based recovery
    pattern.
    """
    network = CongestNetwork(
        graph,
        BoruvkaMSTProgram,
        bandwidth=bandwidth,
        engine=engine,
        faults=faults,
    )
    result = network.run(max_rounds=max_rounds)
    return collect_tree_edges(result.outputs), result


def run_gkp_mst(
    graph: nx.Graph,
    bandwidth: int = 64,
    cap: int | None = None,
    engine: str = "event",
) -> tuple[set[frozenset], RunResult]:
    """Run the GKP-style MST; returns (tree edges, run metrics)."""
    d = nx.diameter(graph)
    n = graph.number_of_nodes()
    frag_cap = cap if cap is not None else max(2, math.ceil(math.sqrt(n)))
    # Phase A leaves ~ n / cap fragments and Phase B at least halves the
    # count per iteration; +2 iterations of slack absorb Phase-A stalls.
    iterations = max(3, math.ceil(math.log2(max(2, n / frag_cap))) + 2)
    inputs = {node: {"diameter_bound": d} for node in graph.nodes()}
    network = CongestNetwork(
        graph,
        lambda: GKPMSTProgram(cap=frag_cap, phase_b_iterations=iterations),
        bandwidth=bandwidth,
        inputs=inputs,
        engine=engine,
    )
    result = network.run(max_rounds=500_000)
    return collect_tree_edges(result.outputs), result
