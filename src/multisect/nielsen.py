"""Nielsen moves on generating tuples, orbit enumeration in finite
abelian groups, and non-isotopy certificates.

The four elementary moves on an ordered tuple (a_1, ..., a_n):

    swap12    exchange a_1 and a_2
    cycle     rotate to (a_2, ..., a_n, a_1)
    invert1   replace a_1 with its inverse
    mult12    replace a_1 with a_1 a_2

Two spine tuples of isotopic sectors are related by these moves, so a
finite quotient in which the images land in different move-orbits rules
the isotopy out.  Failure to separate is never reported as equivalence:
``same_orbit`` needs an explicit move sequence that replays, and
everything else stays ``inconclusive``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct, takewhile
from math import gcd

from .abelian import ORDER_BOUND, Element, FiniteAbelianGroup
from .diagrams import DiagramError, MultisectionDiagram, express_against, \
    pi1_of_diagram, readable_sides, settle_pair
from .matrices import determinant, smith_normal_form
from .presentations import (AbelianInvariants, GroupPresentation, Surjection,
                            abelianization, same_relators, tietze_simplify)
from .words import (Word, _letters_conjugate, _letters_inverse, _letters_product,
                    _signed_table, _substitute, format_word, parse_word)

MOVES = ("swap12", "cycle", "invert1", "mult12")
DEFAULT_QUOTIENT_BOUND = 100
DEFAULT_SEARCH_NODES = 4000

Tuple_ = tuple[Element, ...]


def _move(t: tuple, move: str, mul, inv) -> tuple:
    """One elementary move on a tuple over a group given by its product
    ``mul`` and inverse ``inv``."""
    if move == "swap12" and len(t) >= 2:
        return (t[1], t[0]) + t[2:]
    if move == "cycle" and t:
        return t[1:] + (t[0],)
    if move == "invert1" and t:
        return (inv(t[0]),) + t[1:]
    if move == "mult12" and len(t) >= 2:
        return (mul(t[0], t[1]),) + t[1:]
    raise ValueError(f"move {move!r} does not apply to a tuple of width {len(t)}")


def _moves_for(width: int) -> tuple[str, ...]:
    """The moves that apply to tuples of the given width: swap12 and
    mult12 need two entries."""
    return MOVES if width >= 2 else ("cycle", "invert1")


def _move_elements(group: FiniteAbelianGroup, t: Tuple_, move: str) -> Tuple_:
    return _move(t, move, group.add, group.neg)


@dataclass(frozen=True)
class OrbitPartition:
    group: FiniteAbelianGroup
    orbits: tuple[tuple[Tuple_, tuple[Tuple_, ...]], ...]
    """Pairs (orbit id, sorted members); the id is the least member."""

    @cached_property
    def orbit_of(self) -> dict[Tuple_, Tuple_]:
        return {m: ident for ident, members in self.orbits for m in members}

    @property
    def tuple_count(self) -> int:
        return sum(len(members) for _, members in self.orbits)


def orbit_enumerate(group: FiniteAbelianGroup, n: int) -> OrbitPartition:
    """Partition all generating n-tuples into move-orbits.

    Deterministic: tuples are swept in lexicographic order and each orbit
    is named by its least member, so parallel or repeated runs agree."""
    if n < 1:
        raise ValueError("tuple length must be positive")
    if group.order ** n > ORDER_BOUND:
        raise ValueError(f"tuple space exceeds {ORDER_BOUND}")
    elements = list(group.elements())
    generating = [t for t in iproduct(elements, repeat=n) if group.generates(t)]
    generating_set = set(generating)
    moves = _moves_for(n)
    seen: set[Tuple_] = set()
    orbits = []
    for seed in generating:
        if seed in seen:
            continue
        members = _search(seed, moves, lambda t, m: _move_elements(group, t, m))[0]
        if not generating_set.issuperset(members):
            raise AssertionError("move left the generating set")
        seen.update(members)
        orbits.append((seed, tuple(sorted(members))))
    return OrbitPartition(group, tuple(orbits))


def connect_tuples(group: FiniteAbelianGroup, start: Tuple_,
                   target: Tuple_) -> tuple[str, ...] | None:
    """Breadth-first move sequence from one generating tuple to another,
    or None when they lie in different orbits."""
    start = tuple(group.reduce(e) for e in start)
    target = tuple(group.reduce(e) for e in target)
    if start == target:
        return ()
    parents, found = _search(start, _moves_for(len(start)),
                             lambda t, m: _move_elements(group, t, m), goal=target)
    return _path(parents, target) if found else None


def _search(start, moves, step, goal=None, node_limit=None):
    """Breadth-first search from ``start`` under ``step(node, move)``,
    which returns None for a successor the search must not enter.

    No node is expanded once ``node_limit`` nodes are known.  Returns the
    parent map, which sends each node to ``(parent, move)`` and the start
    to None, and whether ``goal`` was reached; the search stops there."""
    parents = {start: None}
    queue = deque([start])
    while queue and (node_limit is None or len(parents) < node_limit):
        current = queue.popleft()
        for move in moves:
            nxt = step(current, move)
            if nxt is None or nxt in parents:
                continue
            parents[nxt] = (current, move)
            if nxt == goal:
                return parents, True
            queue.append(nxt)
    return parents, False


def _path(parents: dict, node) -> tuple[str, ...]:
    """The moves leading from the start of a search to ``node``."""
    path = []
    while parents[node] is not None:
        node, move = parents[node]
        path.append(move)
    return tuple(reversed(path))


def _determinant_class(det: int, m: int) -> tuple[int, ...]:
    return tuple(sorted({det % m, -det % m}))


def _unit_determinant_class(group: FiniteAbelianGroup,
                            elements: Tuple_) -> tuple[int, ...] | None:
    """+-det of the component matrix of an n-tuple in (Z/m)^n, or None if
    it is not a unit mod m; a unit proves that the tuple generates.  The
    class is constant on move-orbits, as every move acts by an elementary
    matrix of determinant +-1, and complete (see distinguish)."""
    factors = group.invariant_factors
    if not factors or any(d != factors[0] for d in factors):
        raise ValueError("determinant invariant needs a group (Z/m)^n")
    m, n = factors[0], group.rank
    if len(elements) != n:
        raise ValueError("tuple length must equal the group rank")
    det = determinant(elements)
    return _determinant_class(det, m) if gcd(det, m) == 1 else None


# ---------------------------------------------------------------------------
# moves on abstract word tuples

WordTuple = tuple[Word, ...]


def apply_word_move(t: WordTuple, move: str) -> WordTuple:
    """The four elementary moves plus whole-tuple conjugation by a
    generator (`conj g<k>` / `conj g<k>^-1`), which absorbs base point
    changes; all entries stay freely reduced.  A conjugation is accepted
    only in exactly that form, the one :func:`free_tuple_search` writes."""
    if move.startswith("conj "):
        try:
            (c,) = parse_word(move[len("conj "):], t[0].rank if t else 0).letters
        except ValueError:
            raise ValueError(f"move {move!r} is not conjugation by one generator letter") from None
        return tuple(Word._made(w.rank, _letters_conjugate(w.letters, c)) for w in t)
    return _move(t, move, Word.__mul__, Word.inverse)


def free_tuple_search(t1: WordTuple, t2: WordTuple, rank: int,
                      node_limit: int = DEFAULT_SEARCH_NODES) -> tuple[str, ...] | None:
    """Bounded breadth-first search connecting two word tuples by the
    moves above, compared as freely reduced words.

    The search runs on tuples of letter tuples and builds no ``Word``.
    Every entry of every node is freely reduced, so a move cancels
    letters only where two words meet: at the a_1|a_2 junction for
    mult12, and at either end of each entry for conjugation by one
    letter.  Successors longer in total than the longer input plus 4
    letters are not entered, and no node is expanded once ``node_limit``
    nodes are known.  Returns the move sequence from ``t1`` to ``t2``,
    which :func:`apply_word_move` replays, or None."""
    if t1 == t2:
        return ()
    if any(w.rank != rank for w in (*t1, *t2)):
        raise ValueError("tuple entries must have the search rank")
    start = tuple(w.letters for w in t1)
    goal = tuple(w.letters for w in t2)
    limit_len = max(sum(map(len, start)), sum(map(len, goal))) + 4
    letters = {f"conj g{k}{tag}": s * k
               for k in range(1, rank + 1) for s, tag in ((1, ""), (-1, "^-1"))}
    moves = _moves_for(len(t1)) + tuple(letters)

    def step(t, move):
        c = letters.get(move)
        nxt = (_move(t, move, _letters_product, _letters_inverse) if c is None
               else tuple(_letters_conjugate(w, c) for w in t))
        return nxt if sum(map(len, nxt)) <= limit_len else None

    parents, found = _search(start, moves, step, goal=goal, node_limit=node_limit)
    return _path(parents, goal) if found else None


# ---------------------------------------------------------------------------
# spine tuples and certificates


def spine_tuple(d: MultisectionDiagram, sector: int) -> WordTuple:
    """Generating tuple of the diagram's group carried by the spine of
    one sector, written in the duals of system 1.

    The sector pair is settled (:func:`settle_pair`) on its readable
    sides whose home system has a tracked inverse; the surviving dual
    generators of the free side are pulled back through the inverse
    standardizer and re-expressed against system 1.
    Any two free bases of the sector group are Nielsen equivalent, so the
    class of the resulting tuple does not depend on the side.
    """
    pairs = d.sector_pairs()
    if not 1 <= sector <= len(pairs):
        raise DiagramError("sector index out of range")
    settled = settle_pair(d, [
        (home, other) for home, other in readable_sides(d, *pairs[sector - 1])
        if getattr(d.systems[home - 1].standardizer, "inverse_images", None) is not None])
    if settled is None or settled[1].presentation.relators:
        raise DiagramError(
            f"sector {sector} is not expressible: no side gives a tracked "
            "standardizer and a free simplification")
    (home, _), result = settled
    system = d.systems[home - 1]
    # surviving letters are positive, so each is carried to its inverse image
    inverse, letters = system.standardizer.inverse_images, system.surviving_letters
    return tuple(express_against(inverse[letters[dual - 1] - 1], d.systems[0])
                 for dual in result.surviving_generators)


@dataclass(frozen=True)
class NielsenCertificate:
    """Outcome of a tuple comparison, with enough data to replay it.

    ``distinct`` carries a quotient (Z/m)^n, a surjection onto it (one
    image per generator), the images of the two tuples and their
    determinant classes; ``same_orbit`` carries a move sequence
    connecting the tuples as free words.  ``inconclusive`` records what
    was compared and claims nothing.
    """

    verdict: str  # "distinct" | "same_orbit" | "inconclusive"
    presentation: GroupPresentation
    tuple1: WordTuple
    tuple2: WordTuple
    quotient: FiniteAbelianGroup | None = None
    surjection: tuple[Element, ...] | None = None
    image1: Tuple_ | None = None
    image2: Tuple_ | None = None
    orbit_id1: tuple[int, ...] | None = None
    orbit_id2: tuple[int, ...] | None = None
    moves: tuple[str, ...] | None = None
    searched: str = ""

    def replay(self) -> bool:
        """Re-verify the certificate from its own data.  For ``distinct``:
        the surjection kills every relator, the images are the tuples'
        evaluations, both have a unit determinant, which proves them (and
        so the map) onto (Z/m)^n, and their determinant classes are the
        recorded ones and differ, which no move changes (each has
        determinant +-1).  Malformed data, such as an unknown move or
        verdict, replays False."""
        if self.verdict == "same_orbit":
            if self.moves is None:
                return False
            current = self.tuple1
            try:
                for move in self.moves:
                    current = apply_word_move(current, move)
            except ValueError:
                return False
            return current == self.tuple2
        if self.verdict == "distinct":
            group = self.quotient
            if None in (group, self.surjection, self.image1, self.image2):
                return False
            try:
                q = Surjection(group, tuple(group.reduce(v) for v in self.surjection))
                if not (len(q.images) == self.presentation.generator_count
                        and all(q.evaluate(rel) == group.zero
                                for rel in self.presentation.relators)
                        and self.image1 == tuple(map(q.evaluate, self.tuple1))
                        and self.image2 == tuple(map(q.evaluate, self.tuple2))):
                    return False
                class1, class2 = (_unit_determinant_class(group, image)
                                  for image in (self.image1, self.image2))
            except ValueError:
                return False
            return (class1, class2) == (self.orbit_id1, self.orbit_id2) \
                and None not in (class1, class2) and class1 != class2
        return self.verdict == "inconclusive"


def format_certificate(cert: NielsenCertificate) -> str:
    lines = [f"verdict: {cert.verdict}"]
    lines.append("tuple1: " + "; ".join(format_word(w) for w in cert.tuple1))
    lines.append("tuple2: " + "; ".join(format_word(w) for w in cert.tuple2))
    if cert.quotient is not None:
        lines += [f"quotient: {cert.quotient.describe()}",
                  "surjection: " + "; ".join(str(v) for v in cert.surjection),
                  f"image1: {cert.image1}", f"image2: {cert.image2}",
                  f"orbit1: {cert.orbit_id1}", f"orbit2: {cert.orbit_id2}"]
    if cert.moves is not None:
        lines.append("moves: " + (" ".join(cert.moves) if cert.moves else "(none)"))
    if cert.searched:
        lines.append(f"searched: {cert.searched}")
    return "\n".join(lines) + "\n"


def _free_smith_diagonal(t: WordTuple, rank: int) -> tuple[int, ...]:
    """Diagonal of the Smith form of the tuple's exponent-sum matrix over
    Z^rank, its image in the free abelianization.  Every move multiplies
    the matrix on the left by a matrix in GL_n(Z) and conjugation leaves
    it fixed, so tuples whose diagonals differ are in different classes
    of the free group."""
    return smith_normal_form([w.exponent_sums() for w in t], rank).diagonal


def distinguish(pres: GroupPresentation, t1: WordTuple, t2: WordTuple,
                bound: int = DEFAULT_QUOTIENT_BOUND) -> NielsenCertificate:
    """Compare two generating tuples of a presented group up to Nielsen
    moves, through its abelian quotients of order at most ``bound``.

    For A = Z/d_1 x ... x Z/d_r with d_1 | ... | d_r, generating n-tuples
    form one move-orbit when n > r, and for n = r the orbits are the
    classes of +-det mod d_1 (Nielsen for r = 1; Diaconis & Graham,
    Colloq. Math. 80, 1999).  So one Smith normal form U A V = D of the
    relator matrix decides: if H1 needs fewer than n generators nothing
    separates, else ``distinct`` on the least m | d_1 with m^n <= ``bound``
    at which the tuples' H1 determinants differ up to sign, witnessed by
    (Z/m)^n and the surjection read off V.  ``same_orbit`` only when a
    bounded free-word move search connects the tuples outright;
    ``inconclusive`` otherwise.  The search runs only when the tuples'
    exponent-sum matrices over Z^rank, their images in the free
    abelianization, have the same Smith form: no move sequence in the
    free group connects tuples whose forms differ, so there the search
    could not succeed at any node limit.  Certificates are stated in the
    Tietze-simplified presentation, with the tuples rewritten through it.
    """
    if len(t1) != len(t2):
        raise ValueError("tuples must have the same length")
    n = len(t1)
    for w in (*t1, *t2):
        if w.rank != pres.generator_count:
            raise ValueError("tuple entries must live in the presented group")
    if pres.generator_count - len(pres.relators) > n:
        # H1 has free rank above n, so no n-tuple generates it; refused
        # before simplifying, which allocates per generator
        raise ValueError("tuple does not generate the abelianization")

    simplified = tietze_simplify(pres)
    target = simplified.presentation
    rank = target.generator_count
    table = _signed_table([img.letters for img in simplified.generator_images])
    r1, r2 = (tuple(Word._made(rank, _substitute(table, w.letters)) for w in t)
              for t in (t1, t2))

    for t in (r1, r2):
        if abelianization(GroupPresentation(rank, target.relators + t)) != AbelianInvariants(0):
            raise ValueError("tuple does not generate the abelianization")

    if r1 == r2:
        return NielsenCertificate("same_orbit", target, r1, r2, moves=(),
                                  searched="tuples equal after rewriting")

    # H1 coordinates of a word with exponent row x: x V at the columns of
    # D whose diagonal entry is not 1, zeros and free columns included
    snf = smith_normal_form([rel.exponent_sums() for rel in target.relators], rank)
    diagonal = snf.diagonal
    columns = [j for j in range(rank) if j >= len(diagonal) or diagonal[j] != 1]
    h1 = f"H1 = {AbelianInvariants(rank - snf.rank, snf.invariant_factors).describe()}"
    if len(columns) < n:
        searched = (f"{h1} needs {len(columns)} < {n} generators: one Nielsen "
                    "class in every abelian quotient")
    else:
        d1 = diagonal[columns[0]] if columns[0] < len(diagonal) else 0
        basis = [snf.V[j] for j in columns]
        det1, det2 = (determinant([[sum(row[i] * x for i, x in column.items()) for column in basis]
                                   for row in map(Word.exponent_sums, t)]) for t in (r1, r2))
        tried = 0
        for m in takewhile(lambda m: m ** n <= bound, range(2, d1 + 1)):
            if d1 % m:
                continue
            tried += 1
            class1, class2 = _determinant_class(det1, m), _determinant_class(det2, m)
            if class1 != class2:
                group = FiniteAbelianGroup((m,) * n)
                q = Surjection(group, tuple(group.reduce(column.get(i, 0) for column in basis)
                                            for i in range(rank)))
                return NielsenCertificate(
                    "distinct", target, r1, r2, group, q.images,
                    tuple(map(q.evaluate, r1)), tuple(map(q.evaluate, r2)),
                    class1, class2, searched=f"{h1}; +-det differs mod {m}, the "
                    f"least such m | {d1} with m^{n} <= {bound}")
        searched = (f"{h1}; +-det not compared: H1 is free, so both are +-1" if not d1 else
                    f"{h1}; +-det equal mod every m | {d1} with m^{n} <= "
                    f"{bound} ({tried} tried)" if tried else
                    f"{h1}; +-det not compared: no m | {d1} with m^{n} <= {bound}")
    diag1, diag2 = (_free_smith_diagonal(t, rank) for t in (r1, r2))
    if diag1 != diag2:
        forms = " and ".join(f"diag({', '.join(map(str, d))})" for d in (diag1, diag2))
        return NielsenCertificate("inconclusive", target, r1, r2, searched=f"{searched}; "
                                  f"free search not run: exponent-sum Smith forms {forms} differ")
    moves = free_tuple_search(r1, r2, rank)
    return NielsenCertificate("inconclusive" if moves is None else "same_orbit",
                              target, r1, r2, moves=moves, searched=f"{searched}; "
                              f"free search up to {DEFAULT_SEARCH_NODES} nodes")


def compare_sectors(d1: MultisectionDiagram, s1: int, d2: MultisectionDiagram,
                    s2: int, bound: int = DEFAULT_QUOTIENT_BOUND) -> NielsenCertificate:
    """Compare the spine tuple of sector ``s1`` of ``d1`` with that of
    sector ``s2`` of ``d2`` in pi1 of ``d1``.  Two distinct diagrams must
    present one group by :func:`same_relators`, and the sectors one rank;
    a ``distinct`` verdict obstructs any isotopy between the sectors."""
    pres = pi1_of_diagram(d1)
    if d2 is not d1 and not same_relators(pres, pi1_of_diagram(d2)):
        raise DiagramError("the diagrams present different groups; spine "
                           "tuples are not comparable")
    t1, t2 = spine_tuple(d1, s1), spine_tuple(d2, s2)
    if len(t1) != len(t2):
        raise DiagramError(f"sector {s1} has rank {len(t1)} and sector {s2} rank "
                           f"{len(t2)}; spine tuples of different ranks are not comparable")
    return distinguish(pres, t1, t2, bound)


def flip_check(d: MultisectionDiagram,
               bound: int = DEFAULT_QUOTIENT_BOUND) -> NielsenCertificate:
    """Compare the spine tuples of the two sectors of a bounded
    bisection diagram: a ``distinct`` verdict obstructs any isotopy
    exchanging the sectors."""
    if d.closed or len(d.systems) != 3:
        raise DiagramError("flip check expects a bounded three-system diagram")
    return compare_sectors(d, 1, d, 2, bound)
