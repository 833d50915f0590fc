"""Exact flow-conservation systems over an augmented CFG.

The mathematical core of minimum-coverage profiling (Chen et al.,
arXiv 2208.13907; the spanning-tree idea goes back to Knuth and
Ball–Larus edge profiling).  The CFG is augmented with one virtual node
``⊤`` (represented as :data:`VIRTUAL`): an edge ``⊤ → entry`` carrying
one unit of flow per run and an edge ``exit → ⊤`` returning it.  In the
augmented graph every execution is a circulation, so the set of edge
frequencies consistent with flow conservation is exactly the
*circulation space* — a linear space of dimension ``|E'| − |V'| + 1``
spanned by the fundamental circulations of any spanning tree's chords.

Everything observable is a linear functional of the circulation in
chord coordinates:

* ``t`` — the flow on the virtual entry edge (the number of runs);
* ``m_v`` — the in-flow of block ``v``, which is precisely its
  execution count (the entry block's in-flow includes the virtual
  edge, so its count is ``runs + back-edge traversals``, matching what
  an interpreter observes).

A probe at block ``v`` *measures* ``m_v``.  A probe set ``S`` determines
every block frequency iff every ``m_v`` lies in the row span of
``{t} ∪ {m_u : u ∈ S}`` — a rank condition this module decides exactly
over :class:`fractions.Fraction`, with no numerical slack.  The same
machinery solves the system at reconstruction time, so a placement
certified here can never fail to reconstruct on consistent counts.

CFGs in this code base are small (tens to a few hundred blocks) and the
chord dimension — branches plus loops plus one — is smaller still, yet
exact rational elimination over a served program's CFG still costs
milliseconds (8–71 ms on the serve-warm programs), far more than the
sparse run it reconstructs.  So :meth:`FlowSystem.solve` eliminates once
per probe set and keeps every frequency as an integer functional of the
counts; each later reconstruction is a few integer dot products.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

#: The virtual outside-world node of the augmented flow graph.  ``None``
#: can never collide with a real block label.
VIRTUAL = None


class ReconstructionError(Exception):
    """Raised when probe counts cannot be extended to exact frequencies.

    Two distinct situations end here, both loud by design:

    * the linear system is inconsistent or leaves a requested frequency
      under-determined — the probe set was not certified for this CFG
      (or the counts come from a different program);
    * the unique solution is not a non-negative integer — the counts
      are corrupt (an engine bug, or counters from a different run).
    """


def _dot(row: tuple[int, ...], vec: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for a, b in zip(row, vec):
        if a:
            total += a * b
    return total


class Eliminator:
    """Incremental exact rank oracle over ℚ^d (row echelon, no pivots kept).

    :meth:`add` reduces the incoming row against the stored basis and
    keeps it iff it is independent — the membership test the matroid
    greedy in :mod:`repro.profiles.probes.placement` is built on.
    """

    def __init__(self, d: int) -> None:
        self.d = d
        self._rows: list[list[Fraction]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row: tuple[int, ...]) -> bool:
        """Insert *row* if independent of the current span; return whether
        the rank grew."""
        work = [Fraction(x) for x in row]
        for stored, pivot in zip(self._rows, self._pivots):
            factor = work[pivot]
            if factor:
                for j in range(pivot, self.d):
                    work[j] -= factor * stored[j]
        for col in range(self.d):
            if work[col]:
                inv = work[col]
                self._rows.append([x / inv for x in work])
                self._pivots.append(col)
                return True
        return False


#: A matrix of exact rationals, one list per row.
_Matrix = list[list[Fraction]]


def eliminate(
    rows: list[tuple[int, ...]], d: int
) -> tuple[list[int], _Matrix, _Matrix, _Matrix]:
    """Reduce ``rows · c = rhs`` exactly for a right-hand side yet unknown.

    Gauss–Jordan elimination of ``[rows | I]``: the identity columns
    record, per reduced row, the combination of right-hand-side entries
    it now equates.  Returns ``(pivots, transforms, consistency,
    basis)``: the pivot column of each nonzero reduced row; per pivot,
    the right-hand-side combination its coordinate takes in the
    particular solution (every free coordinate zero); per zero row, a
    combination the right-hand side must annul for the system to be
    consistent; and a basis of the nullspace.
    """
    m = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == k)) for k in range(m)]
        for i, row in enumerate(rows)
    ]
    pivots: list[int] = []
    r = 0
    for col in range(d):
        sel = None
        for i in range(r, len(aug)):
            if aug[i][col]:
                sel = i
                break
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        pivot_value = aug[r][col]
        aug[r] = [x / pivot_value for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    transforms = [aug[i][d:] for i in range(r)]
    consistency = [aug[i][d:] for i in range(r, len(aug))]
    pivot_set = set(pivots)
    basis: list[list[Fraction]] = []
    for free_col in range(d):
        if free_col in pivot_set:
            continue
        vec = [Fraction(0)] * d
        vec[free_col] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -aug[i][free_col]
        basis.append(vec)
    return pivots, transforms, consistency, basis


def _integral(coefficients: list[Fraction]) -> tuple[tuple[int, ...], int]:
    """``(numerators, denominator)`` of a rational vector over one
    common denominator, so evaluating it is integer arithmetic."""
    den = 1
    for c in coefficients:
        den = lcm(den, c.denominator)
    return tuple(int(c * den) for c in coefficients), den


class _Solution:
    """A probe set's solved system: each frequency as an integer
    functional of the right-hand side ``(runs, probe counts…)``.

    Everything here depends on the CFG and the probe set only, so it is
    built once per probe tuple and every later solve is dot products.
    """

    def __init__(self, system: "FlowSystem", probes: tuple[str, ...]) -> None:
        rows = [system.t_row] + [system.node_rows[v] for v in probes]
        pivots, transforms, consistency, basis = eliminate(
            rows, system.dimension
        )
        self.consistency = [_integral(row)[0] for row in consistency]

        def functional(row: tuple[int, ...]):
            """``None`` when *row* is free, else its integer functional."""
            if any(_dot(row, vec) for vec in basis):
                return None
            coefficients = [Fraction(0)] * len(rows)
            for col, transform in zip(pivots, transforms):
                if row[col]:
                    for k, t in enumerate(transform):
                        coefficients[k] += row[col] * t
            return _integral(coefficients)

        #: Per block: its functional, or ``None`` if under-determined.
        self.nodes = [
            (label, functional(system.node_rows[label]))
            for label in system.blocks
        ]
        #: The real edges up to the first under-determined one, and
        #: whether every edge is determined.
        self.edges: list[tuple[tuple[str, str], tuple]] = []
        self.all_edges = True
        for index, pair in enumerate(system.real_edges):
            value = functional(tuple(c.get(index, 0) for c in system.chi))
            if value is None:
                self.all_edges = False
                break
            self.edges.append((pair, value))


def _count(kind: str, name, functional, rhs: list[int]) -> int:
    """The functional's value on *rhs*, which must be a non-negative
    integer."""
    numerators, den = functional
    total = 0
    for a, b in zip(numerators, rhs):
        if a:
            total += a * b
    if total < 0 or total % den:
        raise ReconstructionError(
            f"{kind} {name!r} reconstructed to {Fraction(total, den)}, not a "
            "non-negative integer: corrupt probe counts"
        )
    return total // den


class FlowSystem:
    """The augmented flow graph of one CFG, in chord coordinates.

    Built from plain label data (entry, reachable blocks, merged real
    edges, exit blocks) so a pickled
    :class:`~repro.profiles.probes.placement.ProbePlacement` can rebuild
    it deterministically on any process.
    """

    def __init__(
        self,
        entry: str,
        blocks: tuple[str, ...],
        edges: tuple[tuple[str, str], ...],
        exits: tuple[str, ...],
    ) -> None:
        self.entry = entry
        self.blocks = tuple(blocks)
        self.real_edges = tuple(edges)
        self.exits = tuple(exits)
        augmented: list[tuple[object, object]] = list(self.real_edges)
        self.virtual_entry = len(augmented)
        augmented.append((VIRTUAL, entry))
        for exit_label in self.exits:
            augmented.append((exit_label, VIRTUAL))
        self.edges: tuple[tuple[object, object], ...] = tuple(augmented)
        #: Probe tuple -> its solved system (see :meth:`solve`).  Threads
        #: that race to fill an entry build equal solutions, so the race
        #: costs only the duplicate work.
        self._solutions: dict[tuple[str, ...], _Solution] = {}
        self._build_tree()
        self._build_rows()

    # -- spanning tree and fundamental circulations --------------------
    def _build_tree(self) -> None:
        adjacency: dict[object, list[tuple[int, object]]] = {
            VIRTUAL: [], **{label: [] for label in self.blocks}
        }
        for index, (src, dst) in enumerate(self.edges):
            if src == dst:
                continue  # a self loop can never extend a tree
            adjacency[src].append((index, dst))
            adjacency[dst].append((index, src))

        #: node -> (parent, edge index, +1 if the edge is parent→node).
        parent: dict[object, tuple[object, int, int]] = {}
        depth: dict[object, int] = {VIRTUAL: 0}
        tree_edges: set[int] = set()
        frontier: list[object] = [VIRTUAL]
        while frontier:
            node = frontier.pop()
            for index, other in adjacency[node]:
                if other in depth:
                    continue
                src, _dst = self.edges[index]
                parent[other] = (node, index, 1 if src == node else -1)
                depth[other] = depth[node] + 1
                tree_edges.add(index)
                frontier.append(other)
        # Every reachable block reaches an exit?  Not necessarily — but
        # undirected connectivity to ⊤ only needs a directed path *from*
        # the entry, which reachability guarantees.
        missing = [b for b in self.blocks if b not in depth]
        if missing:  # pragma: no cover - placement filters unreachable
            raise ValueError(f"blocks disconnected from entry: {missing}")

        self.chords = [
            i for i in range(len(self.edges)) if i not in tree_edges
        ]
        #: Per chord: augmented-edge index -> ±1 circulation coefficient.
        self.chi: list[dict[int, int]] = []
        for chord in self.chords:
            src, dst = self.edges[chord]
            cycle: dict[int, int] = {chord: 1}
            if src != dst:
                # Close the cycle with the tree path dst → … → src.
                a, b = dst, src
                while depth[a] > depth[b]:
                    up, index, orient = parent[a]
                    cycle[index] = cycle.get(index, 0) - orient
                    a = up
                while depth[b] > depth[a]:
                    up, index, orient = parent[b]
                    cycle[index] = cycle.get(index, 0) + orient
                    b = up
                while a != b:
                    up_a, index_a, orient_a = parent[a]
                    cycle[index_a] = cycle.get(index_a, 0) - orient_a
                    a = up_a
                    up_b, index_b, orient_b = parent[b]
                    cycle[index_b] = cycle.get(index_b, 0) + orient_b
                    b = up_b
            self.chi.append({k: v for k, v in cycle.items() if v})

    # -- measurement rows ----------------------------------------------
    def _build_rows(self) -> None:
        d = len(self.chords)
        in_edges: dict[object, list[int]] = {label: [] for label in self.blocks}
        for index, (_src, dst) in enumerate(self.edges):
            if dst is not VIRTUAL:
                in_edges[dst].append(index)
        self.node_rows: dict[str, tuple[int, ...]] = {}
        for label in self.blocks:
            row = [0] * d
            for index in in_edges[label]:
                for j, cycle in enumerate(self.chi):
                    coeff = cycle.get(index)
                    if coeff:
                        row[j] += coeff
            self.node_rows[label] = tuple(row)
        self.t_row = tuple(
            cycle.get(self.virtual_entry, 0) for cycle in self.chi
        )
        self.dimension = d

    # -- reconstruction -------------------------------------------------
    def solve(
        self,
        probes: tuple[str, ...],
        probe_counts,
        runs: int,
    ) -> tuple[dict[str, int], dict[tuple[str, str], int] | None]:
        """Exact node frequencies (and, when unique, edge frequencies).

        ``probe_counts`` maps probed labels to observed execution counts;
        missing labels read as 0 (a probe that never fired).  Raises
        :class:`ReconstructionError` on inconsistent, under-determined or
        non-integral systems — never a silently wrong profile.  The
        elimination runs once per probe tuple; later solves reuse it.
        """
        solution = self._solutions.get(probes)
        if solution is None:
            solution = self._solutions[probes] = _Solution(self, probes)
        rhs = [runs] + [int(probe_counts.get(v, 0)) for v in probes]
        for row in solution.consistency:
            if sum(a * b for a, b in zip(row, rhs)):
                raise ReconstructionError(
                    "probe counts are inconsistent with flow conservation"
                )

        node_freq: dict[str, int] = {}
        for label, functional in solution.nodes:
            if functional is None:
                raise ReconstructionError(
                    f"block {label!r} is under-determined by probes "
                    f"{list(probes)!r}"
                )
            node_freq[label] = _count("block", label, functional, rhs)

        edge_freq: dict[tuple[str, str], int] = {}
        for pair, functional in solution.edges:
            value = _count("edge", pair, functional, rhs)
            if value:
                edge_freq[pair] = value
        return node_freq, edge_freq if solution.all_edges else None
