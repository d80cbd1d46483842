"""Parameterized CHC program families for the benchmark suites.

The paper evaluates on two corpora: a De Angelis-inspired set of 60
problems over binary trees, queues, lists and Peano numbers (split into
*PositiveEq* and *Diseq*), and 454 TIP-derived inductive problems.  We
regenerate both populations from deterministic program-family builders:

* modular-arithmetic predicates over Peano numbers (regular invariants —
  the finite-model finder's home turf),
* list-shape predicates (length parity, alternation patterns) over
  ``NatList``,
* branch-parity predicates over binary trees (EvenLeft variants, *not*
  size-expressible),
* ordering relations (SizeElem's home turf, not regular),
* offset relations ``y = x + c`` (elementary invariants),
* relational-addition conjectures (safe but beyond all three classes —
  the TIP long tail),
* broken variants of all of the above (UNSAT with shallow derivations),
* disequality-constrained families for the Diseq subset.

Every builder returns a fresh :class:`~repro.chc.clauses.CHCSystem` and is
pure in its parameters, so suites are reproducible without fixtures.
"""

from __future__ import annotations

from repro.chc.clauses import BodyAtom, CHCSystem, Clause
from repro.logic.adt import (
    CONS,
    NAT,
    NATLIST,
    NIL,
    S,
    TREE,
    Z,
    nat,
    nat_system,
    natlist_system,
    tree_system,
)
from repro.logic.formulas import Eq, Not, TRUE, conj, diseq
from repro.logic.sorts import PredSymbol
from repro.logic.terms import App, Term, Var

from repro.problems import leaf, node, s, z


def _nv(name: str) -> Var:
    return Var(name, NAT)


def _lv(name: str) -> Var:
    return Var(name, NATLIST)


def _tv(name: str) -> Var:
    return Var(name, TREE)


def s_n(t: Term, n: int) -> Term:
    for _ in range(n):
        t = s(t)
    return t


def cons_z(t: Term) -> Term:
    """``cons(Z, t)`` — the list spine constructor used by list families."""
    return App(CONS, (App(Z), t))


def nil() -> Term:
    return App(NIL)


# ----------------------------------------------------------------------
# Peano modular arithmetic (regular invariants)
# ----------------------------------------------------------------------
def nat_mod_system(
    modulus: int, residue: int, clash_offset: int, *, name: str = ""
) -> CHCSystem:
    """``P = {x ≡ residue (mod modulus)}``; query forbids a clashing pair.

    Clauses: ``P(S^residue(Z))``, ``P(x) -> P(S^modulus(x))`` and the query
    ``P(x) ∧ P(S^clash_offset(x)) -> ⊥``.  Safe iff ``clash_offset`` is not
    divisible by ``modulus``; regular (mod-``modulus`` automaton), not
    elementary, and SizeElem iff expressible by a single congruence —
    which it is, so these are the Reg ∩ SizeElem population.
    """
    system = CHCSystem(
        nat_system(), name=name or f"nat-mod{modulus}-r{residue}-c{clash_offset}"
    )
    p = PredSymbol("P", (NAT,))
    x = _nv("x")
    system.add(Clause(TRUE, (), BodyAtom(p, (s_n(z(), residue),)), "base"))
    system.add(
        Clause(
            TRUE,
            (BodyAtom(p, (x,)),),
            BodyAtom(p, (s_n(x, modulus),)),
            "step",
        )
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(p, (x,)), BodyAtom(p, (s_n(x, clash_offset),))),
            None,
            "query",
        )
    )
    return system


def nat_two_residues_system(
    modulus: int, r1: int, r2: int, *, name: str = ""
) -> CHCSystem:
    """Two residue-class predicates with a disjointness query.

    Safe iff ``r1 ≢ r2 (mod modulus)``.  Regular and size-expressible.
    """
    system = CHCSystem(
        nat_system(), name=name or f"nat-mod{modulus}-{r1}-vs-{r2}"
    )
    p = PredSymbol("P", (NAT,))
    q = PredSymbol("Q", (NAT,))
    x = _nv("x")
    system.add(Clause(TRUE, (), BodyAtom(p, (s_n(z(), r1),)), "p-base"))
    system.add(
        Clause(TRUE, (BodyAtom(p, (x,)),), BodyAtom(p, (s_n(x, modulus),)), "p-step")
    )
    system.add(Clause(TRUE, (), BodyAtom(q, (s_n(z(), r2),)), "q-base"))
    system.add(
        Clause(TRUE, (BodyAtom(q, (x,)),), BodyAtom(q, (s_n(x, modulus),)), "q-step")
    )
    system.add(
        Clause(TRUE, (BodyAtom(p, (x,)), BodyAtom(q, (x,))), None, "query")
    )
    return system


# ----------------------------------------------------------------------
# List-shape families
# ----------------------------------------------------------------------
def list_length_mod_system(
    modulus: int, residue: int, clash: int, *, name: str = ""
) -> CHCSystem:
    """Length-modulo predicate over NatList with a clashing query."""
    system = CHCSystem(
        natlist_system(), name=name or f"list-len-mod{modulus}-{residue}-{clash}"
    )
    p = PredSymbol("L", (NATLIST,))
    xs = _lv("xs")
    base: Term = nil()
    for _ in range(residue):
        base = cons_z(base)
    step = xs
    for _ in range(modulus):
        step = cons_z(step)
    clash_term = xs
    for _ in range(clash):
        clash_term = cons_z(clash_term)
    system.add(Clause(TRUE, (), BodyAtom(p, (base,)), "base"))
    system.add(
        Clause(TRUE, (BodyAtom(p, (xs,)),), BodyAtom(p, (step,)), "step")
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(p, (xs,)), BodyAtom(p, (clash_term,))),
            None,
            "query",
        )
    )
    return system


def list_alternating_system(*, head_first: bool = True, name: str = "") -> CHCSystem:
    """Lists whose elements alternate ``Z, S(Z), Z, ...`` — a *structural*
    regularity invisible to size constraints (elements don't change the
    length) and beyond Elem (unbounded depth): RInGen-only territory."""
    system = CHCSystem(
        natlist_system(), name=name or f"list-alt-{'zh' if head_first else 'sh'}"
    )
    alt0 = PredSymbol("AltZ", (NATLIST,))
    alt1 = PredSymbol("AltS", (NATLIST,))
    xs = _lv("xs")
    zero: Term = App(Z)
    one: Term = s(App(Z))
    system.add(Clause(TRUE, (), BodyAtom(alt0, (nil(),)), "alt0-nil"))
    system.add(Clause(TRUE, (), BodyAtom(alt1, (nil(),)), "alt1-nil"))
    system.add(
        Clause(
            TRUE,
            (BodyAtom(alt1, (xs,)),),
            BodyAtom(alt0, (App(CONS, (zero, xs)),)),
            "alt0-cons",
        )
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(alt0, (xs,)),),
            BodyAtom(alt1, (App(CONS, (one, xs)),)),
            "alt1-cons",
        )
    )
    first, second = (zero, one) if head_first else (one, zero)
    # query: an alternating list cannot start with two equal heads
    system.add(
        Clause(
            TRUE,
            (
                BodyAtom(
                    alt0 if head_first else alt1,
                    (App(CONS, (first, App(CONS, (first, xs)))),),
                ),
            ),
            None,
            "query",
        )
    )
    return system


def list_every_other_z_system(*, name: str = "") -> CHCSystem:
    """Another structural-regularity family: every even position is Z."""
    system = CHCSystem(natlist_system(), name=name or "list-every-other-z")
    p = PredSymbol("EOZ", (NATLIST,))
    q = PredSymbol("EOZodd", (NATLIST,))
    xs = _lv("xs")
    y = _nv("y")
    zero: Term = App(Z)
    system.add(Clause(TRUE, (), BodyAtom(p, (nil(),)), "base"))
    system.add(
        Clause(
            TRUE,
            (BodyAtom(q, (xs,)),),
            BodyAtom(p, (App(CONS, (zero, xs)),)),
            "even-pos",
        )
    )
    system.add(Clause(TRUE, (), BodyAtom(q, (nil(),)), "odd-base"))
    system.add(
        Clause(
            TRUE,
            (BodyAtom(p, (xs,)),),
            BodyAtom(q, (App(CONS, (y, xs)),)),
            "odd-pos",
        )
    )
    # query: an EOZ list cannot start with S(_)
    system.add(
        Clause(
            TRUE,
            (BodyAtom(p, (App(CONS, (s(y), xs)),)),),
            None,
            "query",
        )
    )
    return system


# ----------------------------------------------------------------------
# Tree branch-parity families (EvenLeft variants)
# ----------------------------------------------------------------------
def tree_branch_parity_system(
    *, left: bool = True, parity: int = 0, name: str = ""
) -> CHCSystem:
    """Branch-length parity along the leftmost/rightmost spine.

    The EvenLeft family (Example 5): regular but *not* SizeElem (Prop. 2)
    — size constraints count every constructor, not one branch.
    """
    side = "left" if left else "right"
    system = CHCSystem(
        tree_system(), name=name or f"tree-{side}-parity{parity}"
    )
    p = PredSymbol("B", (TREE,))
    x, y, w = _tv("x"), _tv("y"), _tv("w")
    base: Term = leaf()
    if parity:
        base = node(base, y) if left else node(y, base)
    inner = node(x, y) if left else node(y, x)
    step = node(inner, w) if left else node(w, inner)
    system.add(Clause(TRUE, (), BodyAtom(p, (leaf(),)), "base") if parity == 0
               else Clause(TRUE, (), BodyAtom(p, (node(leaf(), leaf()),)), "base"))
    system.add(
        Clause(TRUE, (BodyAtom(p, (x,)),), BodyAtom(p, (step,)), "step")
    )
    bad = node(x, y) if left else node(y, x)
    system.add(
        Clause(
            TRUE,
            (BodyAtom(p, (x,)), BodyAtom(p, (bad,))),
            None,
            "query",
        )
    )
    return system


def tree_left_spine_zigzag_system(*, name: str = "") -> CHCSystem:
    """Parity of the zig-zag path (right, then left, then right, ...).

    ``zig(leaf) = 0``, ``zig(node(l, r)) = 1 + zag(r)``,
    ``zag(node(l, r)) = 1 + zig(l)``; the two predicates collect trees of
    even / odd zig-length and the query asserts their disjointness.
    Regular (a two-state automaton alternates along the zig-zag path) but
    neither elementary nor size-expressible — the EvenLeft story on a
    bent branch.
    """
    system = CHCSystem(tree_system(), name=name or "tree-zigzag")
    even = PredSymbol("ZZeven", (TREE,))
    odd = PredSymbol("ZZodd", (TREE,))
    x, y, w = _tv("x"), _tv("y"), _tv("w")
    system.add(Clause(TRUE, (), BodyAtom(even, (leaf(),)), "even-base"))
    system.add(
        Clause(
            TRUE,
            (),
            BodyAtom(odd, (node(y, leaf()),)),
            "odd-base",
        )
    )
    # two zig-zag steps: x sits at the right child's left child
    system.add(
        Clause(
            TRUE,
            (BodyAtom(even, (x,)),),
            BodyAtom(even, (node(y, node(x, w)),)),
            "even-step",
        )
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(odd, (x,)),),
            BodyAtom(odd, (node(y, node(x, w)),)),
            "odd-step",
        )
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(even, (x,)), BodyAtom(odd, (x,))),
            None,
            "query",
        )
    )
    return system


# ----------------------------------------------------------------------
# Ordering families (SizeElem territory)
# ----------------------------------------------------------------------
def ordering_system(
    *, strict: bool = True, widen: int = 0, name: str = ""
) -> CHCSystem:
    """``lt``/``gt`` disjointness with optional widening steps.

    SizeElem-solvable (size orderings), not regular (Prop. 12), not
    elementary (unbounded-depth relation).
    """
    system = CHCSystem(
        nat_system(),
        name=name or f"nat-ord-{'strict' if strict else 'weak'}-w{widen}",
    )
    lt = PredSymbol("lt", (NAT, NAT))
    gt = PredSymbol("gt", (NAT, NAT))
    x, y = _nv("x"), _nv("y")
    base_rhs = s(y) if strict else y
    system.add(
        Clause(Eq(x, z()), (), BodyAtom(lt, (x, base_rhs)), "lt-base")
    )
    system.add(
        Clause(
            TRUE, (BodyAtom(lt, (x, y)),), BodyAtom(lt, (s(x), s(y))), "lt-step"
        )
    )
    system.add(
        Clause(
            TRUE, (BodyAtom(lt, (x, y)),), BodyAtom(lt, (x, s(y))), "lt-widen"
        )
    )
    system.add(
        Clause(Eq(y, z()), (), BodyAtom(gt, (s_n(x, 1 + widen), y)), "gt-base")
    )
    system.add(
        Clause(
            TRUE, (BodyAtom(gt, (x, y)),), BodyAtom(gt, (s(x), s(y))), "gt-step"
        )
    )
    system.add(
        Clause(TRUE, (BodyAtom(lt, (x, y)), BodyAtom(gt, (x, y))), None, "query")
    )
    return system


def list_length_ordering_system(*, name: str = "") -> CHCSystem:
    """Strict/weak length-ordering disjointness over NatList."""
    system = CHCSystem(natlist_system(), name=name or "list-len-ord")
    shorter = PredSymbol("shorter", (NATLIST, NATLIST))
    longer = PredSymbol("longer", (NATLIST, NATLIST))
    xs, ys = _lv("xs"), _lv("ys")
    h1, h2 = _nv("h1"), _nv("h2")
    system.add(
        Clause(
            Eq(xs, nil()),
            (),
            BodyAtom(shorter, (xs, App(CONS, (h1, ys)))),
            "shorter-base",
        )
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(shorter, (xs, ys)),),
            BodyAtom(
                shorter, (App(CONS, (h1, xs)), App(CONS, (h2, ys)))
            ),
            "shorter-step",
        )
    )
    system.add(
        Clause(
            Eq(ys, nil()),
            (),
            BodyAtom(longer, (App(CONS, (h1, xs)), ys)),
            "longer-base",
        )
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(longer, (xs, ys)),),
            BodyAtom(
                longer, (App(CONS, (h1, xs)), App(CONS, (h2, ys)))
            ),
            "longer-step",
        )
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(shorter, (xs, ys)), BodyAtom(longer, (xs, ys))),
            None,
            "query",
        )
    )
    return system


# ----------------------------------------------------------------------
# Offset families (Elem territory)
# ----------------------------------------------------------------------
def offset_pair_system(c1: int, c2: int, *, name: str = "") -> CHCSystem:
    """``P = {(x, x+c1)}`` vs ``Q = {(x, x+c2)}`` — elementary invariants
    ``y = S^c(x)`` refute the query when ``c1 != c2`` (IncDec family)."""
    system = CHCSystem(
        nat_system(), name=name or f"nat-offset-{c1}-vs-{c2}"
    )
    p = PredSymbol("P", (NAT, NAT))
    q = PredSymbol("Q", (NAT, NAT))
    x, y = _nv("x"), _nv("y")
    system.add(
        Clause(
            conj(Eq(x, z()), Eq(y, s_n(z(), c1))),
            (),
            BodyAtom(p, (x, y)),
            "p-base",
        )
    )
    system.add(
        Clause(
            TRUE, (BodyAtom(p, (x, y)),), BodyAtom(p, (s(x), s(y))), "p-step"
        )
    )
    system.add(
        Clause(
            conj(Eq(x, z()), Eq(y, s_n(z(), c2))),
            (),
            BodyAtom(q, (x, y)),
            "q-base",
        )
    )
    system.add(
        Clause(
            TRUE, (BodyAtom(q, (x, y)),), BodyAtom(q, (s(x), s(y))), "q-step"
        )
    )
    system.add(
        Clause(TRUE, (BodyAtom(p, (x, y)), BodyAtom(q, (x, y))), None, "query")
    )
    return system


# ----------------------------------------------------------------------
# Relational addition conjectures (beyond all classes: the TIP long tail)
# ----------------------------------------------------------------------
def add_conjecture_system(kind: str, *, name: str = "") -> CHCSystem:
    """Safe conjectures about relational Peano addition.

    ``kind`` selects the conjecture: ``comm`` (commutativity), ``assoc-z``
    (left-unit), ``mono`` (monotonicity).  All are safe, none has an
    invariant in Reg / Elem / SizeElem over our clause encodings — every
    solver diverges, reproducing the large timeout counts of Table 1.
    """
    system = CHCSystem(nat_system(), name=name or f"nat-add-{kind}")
    add = PredSymbol("add", (NAT, NAT, NAT))
    x, y, zz, w = _nv("x"), _nv("y"), _nv("z"), _nv("w")
    system.add(Clause(TRUE, (), BodyAtom(add, (z(), y, y)), "add-base"))
    system.add(
        Clause(
            TRUE,
            (BodyAtom(add, (x, y, zz)),),
            BodyAtom(add, (s(x), y, s(zz))),
            "add-step",
        )
    )
    if kind == "comm":
        system.add(
            Clause(
                Not(Eq(zz, w)),
                (BodyAtom(add, (x, y, zz)), BodyAtom(add, (y, x, w))),
                None,
                "query",
            )
        )
    elif kind == "grow":
        # x + (y+1) != x, stated with positive equality only
        system.add(
            Clause(
                Eq(zz, x),
                (BodyAtom(add, (x, s(y), zz)),),
                None,
                "query",
            )
        )
    elif kind == "assoc-z":
        system.add(
            Clause(
                Not(Eq(x, y)),
                (BodyAtom(add, (x, z(), y)),),
                None,
                "query",
            )
        )
    elif kind == "mono":
        system.add(
            Clause(
                Eq(zz, x),
                (BodyAtom(add, (s(x), y, zz)),),
                None,
                "query",
            )
        )
    else:
        raise ValueError(f"unknown conjecture kind {kind!r}")
    return system


# ----------------------------------------------------------------------
# Disequality (Diseq subset) families
# ----------------------------------------------------------------------
def diag_variant_system(sort_kind: str, *, name: str = "") -> CHCSystem:
    """Diag (Example 11) over Nat, NatList or Tree — diseq in bodies.

    No regular invariant exists (disequality is not a regular relation);
    elementary ``x = y`` / ``x != y`` works, so these are the problems
    Spacer solves in the Diseq subset while RInGen diverges.
    """
    if sort_kind == "nat":
        system = CHCSystem(nat_system(), name=name or "diag-nat")
        sort, mk = NAT, lambda v: _nv(v)
        succ = lambda t: s(t)
        base: Term = z()
    elif sort_kind == "list":
        system = CHCSystem(natlist_system(), name=name or "diag-list")
        sort, mk = NATLIST, lambda v: _lv(v)
        succ = cons_z
        base = nil()
    elif sort_kind == "tree":
        system = CHCSystem(tree_system(), name=name or "diag-tree")
        sort, mk = TREE, lambda v: _tv(v)
        succ = lambda t: node(t, leaf())
        base = leaf()
    else:
        raise ValueError(f"unknown sort kind {sort_kind!r}")
    eqp = PredSymbol("eqp", (sort, sort))
    dis = PredSymbol("disp", (sort, sort))
    x, y = mk("x"), mk("y")
    system.add(Clause(Eq(x, y), (), BodyAtom(eqp, (x, y)), "eq-refl"))
    system.add(
        Clause(Not(Eq(x, y)), (), BodyAtom(dis, (x, y)), "dis-base")
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(dis, (x, y)),),
            BodyAtom(dis, (succ(x), succ(y))),
            "dis-step",
        )
    )
    system.add(
        Clause(TRUE, (BodyAtom(eqp, (x, y)), BodyAtom(dis, (x, y))), None, "query")
    )
    return system


def diseq_guard_system(offset: int, *, name: str = "") -> CHCSystem:
    """A diseq-guarded reachability problem with a finite regular model.

    ``P`` collects numbers stepping by ``offset`` from Z; the query
    requires ``P(x) ∧ P(y) ∧ x != y`` to avoid a specific collision
    pattern.  The diseq atoms have mod-``offset`` regular models, giving
    the handful of Diseq problems RInGen *does* solve (Table 1: 4).
    """
    system = CHCSystem(nat_system(), name=name or f"diseq-guard-{offset}")
    p = PredSymbol("P", (NAT,))
    bad = PredSymbol("Bad", (NAT,))
    x, y = _nv("x"), _nv("y")
    system.add(Clause(TRUE, (), BodyAtom(p, (z(),)), "base"))
    system.add(
        Clause(
            TRUE, (BodyAtom(p, (x,)),), BodyAtom(p, (s_n(x, offset),)), "step"
        )
    )
    system.add(
        Clause(
            Not(Eq(x, s_n(y, offset - 1) if offset > 1 else s(y))),
            (BodyAtom(p, (x,)), BodyAtom(bad, (x,))),
            None,
            "query",
        )
    )
    # Bad is the complement residue class
    system.add(Clause(TRUE, (), BodyAtom(bad, (s(z()),)), "bad-base"))
    system.add(
        Clause(
            TRUE,
            (BodyAtom(bad, (x,)),),
            BodyAtom(bad, (s_n(x, offset),)),
            "bad-step",
        )
    )
    return system


def diseq_unsat_system(*, name: str = "") -> CHCSystem:
    """The Sec. 4.4 unsatisfiable system ``Z != S(Z) -> ⊥`` in its
    predicate form (through an auxiliary reachable pair)."""
    system = CHCSystem(nat_system(), name=name or "diseq-unsat")
    r = PredSymbol("R", (NAT, NAT))
    x, y = _nv("x"), _nv("y")
    system.add(
        Clause(conj(Eq(x, z()), Eq(y, s(z()))), (), BodyAtom(r, (x, y)), "base")
    )
    system.add(
        Clause(Not(Eq(x, y)), (BodyAtom(r, (x, y)),), None, "query")
    )
    return system


# ----------------------------------------------------------------------
# Broken (UNSAT) variants
# ----------------------------------------------------------------------
def broken_mod_system(
    modulus: int, depth: int, *, decoys: int = 0, name: str = ""
) -> CHCSystem:
    """An unsatisfiable mod family with a graded counterexample depth.

    The query clashes at ``S^(modulus*depth)(Z)``, so the shallowest
    derivation of ⊥ uses terms of height ``modulus*depth + 1`` — the knob
    the TIP suite uses to spread refutations across solver search depths.
    ``decoys`` appends satisfiable side predicates that make instances
    syntactically distinct without changing the refutation depth.
    """
    system = CHCSystem(
        nat_system(), name=name or f"broken-mod{modulus}-d{depth}"
    )
    p = PredSymbol("P", (NAT,))
    x = _nv("x")
    system.add(Clause(TRUE, (), BodyAtom(p, (z(),)), "base"))
    system.add(
        Clause(TRUE, (BodyAtom(p, (x,)),), BodyAtom(p, (s_n(x, modulus),)), "step")
    )
    system.add(
        Clause(
            Eq(x, s_n(z(), modulus * depth)),
            (BodyAtom(p, (x,)),),
            None,
            "query",
        )
    )
    for i in range(decoys):
        q = PredSymbol(f"Decoy{i}", (NAT,))
        system.add(
            Clause(TRUE, (), BodyAtom(q, (s_n(z(), i),)), f"decoy-{i}")
        )
    return system


def broken_list_system(k: int, *, name: str = "") -> CHCSystem:
    """UNSAT list variant: the supposedly-unreachable length is reachable."""
    system = CHCSystem(natlist_system(), name=name or f"broken-list-{k}")
    p = PredSymbol("L", (NATLIST,))
    xs = _lv("xs")
    bad: Term = nil()
    for _ in range(k):
        bad = cons_z(bad)
    system.add(Clause(TRUE, (), BodyAtom(p, (nil(),)), "base"))
    system.add(
        Clause(TRUE, (BodyAtom(p, (xs,)),), BodyAtom(p, (cons_z(xs),)), "step")
    )
    system.add(Clause(Eq(xs, bad), (BodyAtom(p, (xs,)),), None, "query"))
    return system


def mirror_system(guards: int = 0, *, name: str = "") -> CHCSystem:
    """Tree mirroring is an involution — safe, but the invariant must
    track a *functional relation* between trees, which none of Reg / Elem
    / SizeElem can express: mirroring relates subtrees at unbounded depth
    (beyond Elem), swaps left/right (beyond sizes), and relates the two
    arguments pointwise (beyond tree-tuple regularity, like Diag).

    ``guards`` prepends extra ``node(leaf, ·)`` wrappers to the query's
    disequality, deepening the distinctions a finite model would need —
    the Sec. 4.4 effect that makes Diseq problems hard for everyone.
    """
    system = CHCSystem(tree_system(), name=name or f"tree-mirror-g{guards}")
    mir = PredSymbol("mirror", (TREE, TREE))
    x, y, x1, y1 = _tv("x"), _tv("y"), _tv("x1"), _tv("y1")
    system.add(
        Clause(TRUE, (), BodyAtom(mir, (leaf(), leaf())), "mirror-leaf")
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(mir, (x, x1)), BodyAtom(mir, (y, y1))),
            BodyAtom(mir, (node(x, y), node(y1, x1))),
            "mirror-node",
        )
    )
    lhs, rhs = x, y
    for _ in range(guards):
        lhs, rhs = node(leaf(), lhs), node(leaf(), rhs)
    system.add(
        Clause(
            Not(Eq(lhs, rhs)),
            (BodyAtom(mir, (x, x1)), BodyAtom(mir, (x1, y))),
            None,
            "query",
        )
    )
    return system


def revacc_system(guards: int = 0, *, name: str = "") -> CHCSystem:
    """Accumulator-reverse is an involution over lists (same story as
    :func:`mirror_system`, over ``NatList``)."""
    system = CHCSystem(natlist_system(), name=name or f"list-rev-g{guards}")
    rev = PredSymbol("revacc", (NATLIST, NATLIST, NATLIST))
    xs, acc, ys, zs = _lv("xs"), _lv("acc"), _lv("ys"), _lv("zs")
    h = _nv("h")
    system.add(
        Clause(TRUE, (), BodyAtom(rev, (nil(), acc, acc)), "rev-base")
    )
    system.add(
        Clause(
            TRUE,
            (BodyAtom(rev, (xs, App(CONS, (h, acc)), ys)),),
            BodyAtom(rev, (App(CONS, (h, xs)), acc, ys)),
            "rev-step",
        )
    )
    lhs, rhs = xs, zs
    for _ in range(guards):
        lhs, rhs = cons_z(lhs), cons_z(rhs)
    system.add(
        Clause(
            Not(Eq(lhs, rhs)),
            (
                BodyAtom(rev, (xs, nil(), ys)),
                BodyAtom(rev, (ys, nil(), zs)),
            ),
            None,
            "query",
        )
    )
    return system


def functionality_query_system(
    kind: str, guards: int = 0, *, name: str = ""
) -> CHCSystem:
    """Functionality conjectures: a relationally-encoded function has at
    most one output.  Safe, but the invariant must say "the relation is a
    function" — a pointwise input/output correspondence outside all three
    representation classes (same obstruction as Diag, Prop. 11).

    ``kind``: ``add`` (ternary addition) or ``dbl`` (doubling).
    ``guards`` wraps the disequality in extra successors, deepening the
    distinctions required of a would-be finite model.
    """
    system = CHCSystem(nat_system(), name=name or f"nat-{kind}-fun-g{guards}")
    x, y, u, w = _nv("x"), _nv("y"), _nv("u"), _nv("w")
    if kind == "add":
        rel = PredSymbol("add", (NAT, NAT, NAT))
        system.add(Clause(TRUE, (), BodyAtom(rel, (z(), y, y)), "base"))
        system.add(
            Clause(
                TRUE,
                (BodyAtom(rel, (x, y, u)),),
                BodyAtom(rel, (s(x), y, s(u))),
                "step",
            )
        )
        atoms = (BodyAtom(rel, (x, y, u)), BodyAtom(rel, (x, y, w)))
    elif kind == "dbl":
        rel = PredSymbol("dbl", (NAT, NAT))
        system.add(Clause(TRUE, (), BodyAtom(rel, (z(), z())), "base"))
        system.add(
            Clause(
                TRUE,
                (BodyAtom(rel, (x, u)),),
                BodyAtom(rel, (s(x), s(s(u)))),
                "step",
            )
        )
        atoms = (BodyAtom(rel, (x, u)), BodyAtom(rel, (x, w)))
    else:
        raise ValueError(f"unknown functionality kind {kind!r}")
    lhs, rhs = u, w
    for _ in range(guards):
        lhs, rhs = s(lhs), s(rhs)
    system.add(Clause(Not(Eq(lhs, rhs)), atoms, None, "query"))
    return system
