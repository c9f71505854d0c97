"""Seeded document generators and construction-derived expectations.

Every input is a product of Lukasiewicz chains (or a corruption of one), built
here with numpy from its chain orders, so every expected answer follows from
the construction: element x of a product of chains with orders o_1..o_k has
digit vector d(x) (mixed radix, last factor fastest, as in `mvkit.product`),
a relabeling renames carrier indices, the ideals are the sets
I_S = {x : d_i(x) = 0 for i not in S}, the maximal ones have rank o_i, and so
on.  mvkit receives only the generated JSON documents; no expectation is read
back from mvkit's own output.

`build(name, seed)` returns the operation list of one workload pass.  An
operation is a `CliOp` (one in-process `mvkit.cli.run` call on a document fed
through stdin) or a `LibOp` (a library call, used for the two center reports
and the truncation path, which the CLI does not expose).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

WORKLOADS = ("family", "lattice", "cap", "reject")


class Mismatch(Exception):
    """An outcome differs from what the generator knows by construction."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- operations -----------------------------------------------------------


@dataclass
class CliOp:
    """`mvkit <argv[0]> - <argv[1:]>` with `text` on stdin.

    `payload` is the exact expected result (compared as parsed JSON);
    `check`, when given, inspects the result or error object instead.
    """

    name: str
    argv: list
    text: str
    code: int = 0
    kind: str | None = None          # expected error kind, None for a result
    payload: dict | None = None
    check: Callable | None = None

    def call(self, mv, ctx):
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(self.text), io.StringIO()
        try:
            code = mv.cli.run([self.argv[0], "-", *self.argv[1:]])
            return code, sys.stdout.getvalue()
        finally:
            sys.stdin, sys.stdout = saved

    def verify(self, outcome) -> str:
        code, text = outcome
        report = json.loads(text)
        expect(code == self.code, f"exit code {code}, expected {self.code}")
        expect(report.get("command") == self.argv[0], "report names another command")
        if self.kind is None:
            expect("result" in report, f"no result: {report.get('error')}")
            body = report["result"]
        else:
            err = report.get("error") or {}
            expect(err.get("kind") == self.kind, f"error kind {err.get('kind')!r}, expected {self.kind!r}")
            body = err
        if self.payload is not None:
            expect(body == self.payload, "payload differs from the construction")
        if self.check is not None:
            self.check(body)
        return text


@dataclass
class LibOp:
    """A library call; `call(mv, ctx)` may stash values in `ctx` for later ops.

    `verify(result)` raises Mismatch or returns the canonical text digested
    for the run's determinism check.
    """

    name: str
    call: Callable
    verify: Callable
    drop: tuple = ()     # ctx keys released after this op


# -- products of chains ---------------------------------------------------


def digits_of(orders) -> np.ndarray:
    """(n, k) digit matrix of the product carrier, last factor fastest."""
    n = math.prod(orders)
    idx = np.arange(n, dtype=np.int64)
    strides = [math.prod(orders[i + 1:]) for i in range(len(orders))]
    return np.stack([(idx // s) % o for s, o in zip(strides, orders)], axis=1)


def index_of(digits, orders) -> np.ndarray:
    strides = np.array([math.prod(orders[i + 1:]) for i in range(len(orders))], dtype=np.int64)
    return np.asarray(digits, dtype=np.int64) @ strides


class Carrier:
    """A product of chains under a relabeling: element perm[x] has digits d(x)."""

    def __init__(self, orders, perm=None):
        self.orders = tuple(int(o) for o in orders)
        self.k = len(self.orders)
        self.n = math.prod(self.orders)
        self.top = np.array(self.orders, dtype=np.int64) - 1
        old = digits_of(self.orders)
        self.perm = np.arange(self.n) if perm is None else np.asarray(perm, dtype=np.int64)
        self.D = np.empty_like(old)
        self.D[self.perm] = old                          # digits by carrier index
        self.zero = int(self.perm[0])

    def element(self, digit_vector) -> int:
        return int(self.perm[index_of(digit_vector, self.orders)])

    def tables(self, join=False):
        """(oplus, neg) of the truncated sum, or of componentwise max if `join`."""
        D = self.D
        S = np.maximum(D[:, None, :], D[None, :, :]) if join else \
            np.minimum(D[:, None, :] + D[None, :, :], self.top)
        oplus = self.perm[index_of(S.reshape(-1, self.k), self.orders)].reshape(self.n, self.n)
        neg = self.perm[index_of(self.top - D, self.orders)]
        return oplus, neg

    def ideal(self, subset) -> np.ndarray:
        """Members of I_S, the elements whose digits outside `subset` are 0."""
        outside = [i for i in range(self.k) if i not in subset]
        return np.flatnonzero((self.D[:, outside] == 0).all(axis=1))

    def ideal_entries(self):
        full = set(range(self.k))
        out = []
        for r in range(self.k + 1):
            for subset in itertools.combinations(range(self.k), r):
                missing = sorted(full - set(subset))
                maximal = len(missing) == 1      # quotient is one chain: prime = maximal
                gen = [self.top[i] if i in subset else 0 for i in range(self.k)]
                out.append({
                    "members": self.ideal(subset).tolist(),
                    "proper": bool(missing),
                    "prime": maximal,
                    "maximal": maximal,
                    "rank": self.orders[missing[0]] if maximal else None,
                    "principal_generator": self.element(gen),
                })
        return sorted(out, key=lambda e: e["members"])

    def atoms(self):
        """Center atoms (sorted) and the factor index of each."""
        pairs = sorted(
            (self.element([self.top[i] if j == i else 0 for j in range(self.k)]), i)
            for i in range(self.k))
        return [a for a, _ in pairs], [i for _, i in pairs]

    def center_members(self):
        return np.flatnonzero(((self.D == 0) | (self.D == self.top)).all(axis=1)).tolist()

    def quotient_payload(self, subset, oplus, neg):
        """Exact `quotient` result: classes are numbered by least member."""
        outside = [i for i in range(self.k) if i not in subset]
        keys = index_of(self.D[:, outside], [self.orders[i] for i in outside])
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        class_of = rank[inverse.reshape(-1)]
        reps = np.sort(first)
        return {
            "ideal": self.ideal(subset).tolist(),
            "algebra": {
                "type": "tables",
                "size": len(reps),
                "zero": int(class_of[self.zero]),
                "oplus": class_of[oplus[np.ix_(reps, reps)]].tolist(),
                "neg": class_of[neg[reps]].tolist(),
            },
            "projection": class_of.tolist(),
        }


def tables_text(n, zero, oplus, neg) -> str:
    return json.dumps({"type": "tables", "size": int(n), "zero": int(zero),
                       "oplus": oplus.tolist(), "neg": neg.tolist()})


def relabeled(orders, rng) -> Carrier:
    perm = list(range(math.prod(orders)))
    rng.shuffle(perm)
    return Carrier(orders, perm)


def product_text(orders) -> str:
    return json.dumps({"type": "product", "orders": list(orders)})


def parse(mv, text):
    return mv.cli.parse_algebra_document(json.loads(text))[1]


# -- per-algebra operation sets -------------------------------------------


def finite_ops(c: Carrier, text, tag, rng, commands):
    """Operations on one product-of-chains document, with exact expectations."""
    ops = []
    n, k = c.n, c.k
    sorted_orders = sorted(c.orders)
    count = 2 ** k
    oplus = neg = None
    for cmd in commands:
        name = f"{cmd} {tag}"
        if cmd == "verify":
            ops.append(CliOp(name, ["verify"], text, payload={"valid": True, "size": n}))
        elif cmd == "decompose":
            atoms, factor = c.atoms()
            ops.append(CliOp(name, ["decompose"], text, payload={
                "atoms": atoms,
                "chain_orders": [c.orders[i] for i in factor],
                "sorted_orders": sorted_orders,
                "iso": c.D[:, factor].tolist(),
                "algebra": {"type": "product", "orders": sorted_orders},
            }))
        elif cmd == "center":
            ops.append(CliOp(name, ["center"], text, payload={
                "members": c.center_members(), "atoms": c.atoms()[0], "center_size": count}))
        elif cmd == "ideals":
            def check_ideals(body, entries=c.ideal_entries()):
                expect(body["count"] == len(entries), f"{body['count']} ideals, expected {len(entries)}")
                got = sorted(body["ideals"], key=lambda e: e["members"])
                expect(got == entries, "ideal list differs from the construction")
            ops.append(CliOp(name, ["ideals"], text, check=check_ideals))
        elif cmd == "quotient":
            if oplus is None:
                oplus, neg = c.tables()
            # the ideal is maximal (all factors but a seeded one), so the seed
            # picks which chain the quotient is, not how much work it takes
            j = rng.randrange(k)
            subset = [i for i in range(k) if i != j]
            payload = c.quotient_payload(subset, oplus, neg)
            ops.append(CliOp(name, ["quotient", "--ideal", json.dumps(payload["ideal"])],
                             text, payload=payload))
        elif cmd == "complete":
            ops.append(CliOp(name, ["complete"], text, payload={
                "strongly_complete": True, "thread_count": n, "ideal_count": count,
                "chain_orders": sorted_orders,
                "completion": {"type": "product", "orders": sorted_orders},
            }))
        elif cmd == "correspondence":
            def check_corr(rep, count=count):
                expect(rep.ok, f"center correspondence not verified: {rep}")
                expect(rep.ideal_count == rep.center_ideal_count == count,
                       f"ideal counts {rep.ideal_count}/{rep.center_ideal_count}, expected {count}")
                return canonical(vars(rep))
            ops.append(LibOp(name, lambda mv, ctx, t=text:
                             mv.completion.verify_center_correspondence(parse(mv, t)), check_corr))
        elif cmd == "commute":
            def check_commute(rep, count=count):
                expect(rep.ok, f"center/completion squares do not commute: {rep}")
                expect(rep.center_of_completion_size == rep.completion_of_center_size == count,
                       f"center sizes {rep.center_of_completion_size}/{rep.completion_of_center_size}")
                return canonical(vars(rep))
            ops.append(LibOp(name, lambda mv, ctx, t=text:
                             mv.completion.verify_center_completion_commute(parse(mv, t)), check_commute))
        else:
            raise KeyError(cmd)
    return ops


# -- symbolic presentations -----------------------------------------------

# The three bundled presentations, restated here with their order laws.
PRESENTATIONS = {
    "example_4_5": ({"period": 1, "classes": [{"kind": "unbounded", "step": 1, "start": 2}]},
                    lambda x: x + 2),
    "example_4_6": ({"period": 2, "classes": [{"kind": "const", "order": 2},
                                              {"kind": "unbounded", "step": 2, "start": 2}]},
                    lambda x: 2 if x % 2 == 0 else x + 1),
    "example_const_2": ({"period": 1, "classes": [{"kind": "const", "order": 2}]},
                        lambda x: 2),
}


def presentation_doc(name) -> dict:
    body, _ = PRESENTATIONS[name]
    return {"type": "full_product", **body, "prefix_overrides": {},
            "index_set": {"kind": "infinite"}}


def fraction_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class SeededElement:
    """An eventually periodic element and its values, known by construction."""

    def __init__(self, name, rng):
        body, self.order = PRESENTATIONS[name]
        self.classes = body["classes"]
        self.period = body["period"]
        self.modulus = self.period * rng.randint(1, 3)
        self.values = []
        for r in range(self.modulus):
            cls = self.classes[r % self.period]
            self.values.append(rng.randrange(cls["order"]) if cls["kind"] == "const"
                               else rng.choice(("zero", "top")))
        self.prefix = {x: rng.randrange(self.order(x)) for x in rng.sample(range(8), rng.randint(0, 2))}

    def doc(self) -> dict:
        return {"modulus": self.modulus, "class_values": self.values,
                "prefix": {str(x): v for x, v in sorted(self.prefix.items())}}

    def at(self, x) -> Fraction:
        """Value at index x: numerator / (order - 1)."""
        top = self.order(x) - 1
        v = self.prefix.get(x, self.values[x % self.modulus])
        v = {"zero": 0, "top": top}.get(v, v)
        return Fraction(v, top)

    def eventual(self, r) -> Fraction:
        v = self.values[r % self.modulus]
        if v == "zero":
            return Fraction(0)
        if v == "top":
            return Fraction(1)
        return Fraction(v, self.classes[r % self.period]["order"] - 1)


def symbolic_ops(name, rng):
    body, order = PRESENTATIONS[name]
    text = json.dumps(presentation_doc(name))
    const = [(r, cls["order"]) for r, cls in enumerate(body["classes"]) if cls["kind"] == "const"]
    witness = None
    if const:   # the first constant class carries a free, non-principal maximal ideal
        r, o = const[0]
        witness = {"kind": "free_class", "rank": o, "principal": False,
                   "residue": r, "modulus": body["period"]}
    ops = [CliOp(f"decide-sc {name}", ["decide-sc"], text, code=2 if witness else 0,
                 payload={"strongly_complete": witness is None, "witness": witness})]

    window = rng.randint(4, 12)
    ops.append(CliOp(f"census {name}", ["census", "--principal-limit", str(window)], text, payload={
        "principal": [{"kind": "principal", "index": x, "principal": True, "rank": order(x)}
                      for x in range(window)],
        "free_classes": [{"kind": "free_class", "principal": False, "residue": r,
                          "modulus": body["period"],
                          "rank": cls["order"] if cls["kind"] == "const" else "infinite"}
                         for r, cls in enumerate(body["classes"])],
        "principal_window": window,
    }))

    def check_complete(res, body=body, witness=witness):
        expect(res["strongly_complete"] == (witness is None), "completion verdict differs")
        expect(res["witness"] == witness, "completion witness differs")
        expect(res["principal_factors"] == presentation_doc(name),
               "principal factors differ from the presentation")
        fams = [(f["residue"], f["modulus"], f["order"]) for f in res["free_families"]]
        expect(fams == [(r, body["period"], o) for r, o in const], "free families differ")
        expect(res["finite_orders"] is None, "infinite presentation has finite orders")
    ops.append(CliOp(f"complete {name}", ["complete"], text, check=check_complete))

    for i in range(4):
        f = SeededElement(name, rng)
        if rng.random() < 0.5:
            x = rng.randrange(10)
            ultra, limit = f"principal:{x}", f.at(x)
            echo = {"kind": "principal", "index": x, "residue": None, "modulus": None}
        else:
            r = rng.randrange(f.modulus)
            ultra, limit = f"free:{r}:{f.modulus}", f.eventual(r)
            echo = {"kind": "free", "index": None, "residue": r, "modulus": f.modulus}
        ops.append(CliOp(f"limit {name} #{i}",
                         ["limit", "--element", json.dumps(f.doc()), "--ultrafilter", ultra], text,
                         payload={"limit": fraction_text(limit), "in_kernel": limit == 0,
                                  "element": f.doc(), "ultrafilter": echo}))

    for i in range(2):
        f, g = SeededElement(name, rng), SeededElement(name, rng)
        m = math.lcm(f.modulus, g.modulus)
        r = rng.randrange(m)
        lim_f, lim_g = f.eventual(r), g.eventual(r)

        def run(mv, ctx, f=f, g=g, m=m, r=r):
            spec = parse(mv, text)
            fe = mv.cli.parse_symbolic_element(f.doc(), spec)
            ge = mv.cli.parse_symbolic_element(g.doc(), spec)
            u = mv.symbolic.SymbolicUltrafilter.free_on_residue(r, m)
            return (mv.symbolic.ultrafilter_limit(fe.oplus(ge), u),
                    mv.symbolic.ultrafilter_limit(fe.neg(), u))

        def check(res, want=(min(lim_f + lim_g, Fraction(1)), 1 - lim_f)):
            expect(res == want, f"limits {res}, expected {want}")
            return canonical([fraction_text(q) for q in res])
        ops.append(LibOp(f"oplus/neg {name} #{i}", run, check))
    return ops


# -- workloads ------------------------------------------------------------


def family(rng):
    """The 34-algebra acceptance family as relabeled tables, plus the presentations."""
    ops = []
    for r in (1, 2, 3):
        for combo in itertools.combinations_with_replacement((2, 3, 4, 5), r):
            c = relabeled(combo, rng)
            text = tables_text(c.n, c.zero, *c.tables())
            ops += finite_ops(c, text, "x".join(map(str, combo)), rng,
                              ("verify", "decompose", "center", "ideals", "quotient",
                               "complete", "correspondence", "commute"))
    for name in PRESENTATIONS:
        ops += symbolic_ops(name, rng)
    return ops


LATTICE_ORDERS = ([2] * 7, [2] * 8, [2, 2, 2, 2, 3, 3], [3] * 5, [4] * 4, [8, 8, 8])


def lattice(rng):
    """Product documents with many ideals relative to n (the seed orders the factors)."""
    ops = []
    for orders in LATTICE_ORDERS:
        orders = rng.sample(orders, len(orders))
        ops += finite_ops(Carrier(orders), product_text(orders), "x".join(map(str, orders)),
                          rng, ("ideals", "complete", "correspondence"))
    return ops


# (presentation, truncation length, quotients): the largest lengths under the
# 4096 cap.  At n=4096 every quotient by a maximal ideal costs the same, so a
# seeded three of the twelve keep a pass short enough for several per run.
TRUNCATIONS = (("example_const_2", 12, 3), ("example_4_5", 5, 5), ("example_4_6", 7, 7))


def truncation_ops(name, count, quotients, rng):
    """Criterion 8's library path: truncate, maximal ideals (decomposition of the
    zero ideal, and the census for the same window), then a quotient by each of
    a seeded `quotients` of them."""
    _, order = PRESENTATIONS[name]
    orders = [order(x) for x in range(count)]
    text = json.dumps(presentation_doc(name))
    tag = f"{name}@{count}"

    def run_truncate(mv, ctx):
        ctx["spec"] = parse(mv, text)
        ctx["A"] = mv.symbolic.truncate(ctx["spec"], count)
        return ctx["A"]

    def check_truncate(A):
        expect(A.size == math.prod(orders), f"truncation has {A.size} elements")
        return canonical([A.size, A.zero, sha256_array(A.oplus_table), sha256_array(A.neg_table)])

    def run_maximals(mv, ctx):
        A = ctx["A"]
        ctx["maximals"] = mv.ideals.maximal_decomposition(A, mv.ideals.zero_ideal(A))
        return ctx["maximals"], mv.symbolic.maximal_ideal_census(ctx["spec"], principal_limit=count)

    D = digits_of(orders)

    def check_maximals(res):
        maximals, census = res
        expect(len(maximals) == count, f"{len(maximals)} maximal ideals, expected {count}")
        got = sorted(sorted(m.members) for m in maximals)
        want = sorted(np.flatnonzero(D[:, x] == 0).tolist() for x in range(count))
        expect(got == want, "maximal ideals differ from the digit-zero sets")
        ranks = [d.rank for d in census if d.kind == "principal"]
        expect(ranks == orders, f"census ranks {ranks}, expected {orders}")
        return canonical([got, ranks])

    ops = [LibOp(f"truncate {tag}", run_truncate, check_truncate),
           LibOp(f"maximal ideals {tag}", run_maximals, check_maximals)]
    chosen = sorted(rng.sample(range(count), quotients))
    for i in chosen:
        def run_quotient(mv, ctx, i=i):
            return ctx["maximals"][i], mv.ideals.quotient(ctx["A"], ctx["maximals"][i])

        def check_quotient(res):
            ideal, (Q, proj) = res
            # the largest member of {d_x = 0} has every other digit at its top
            zeros = np.flatnonzero(D[max(ideal.members)] == 0)
            expect(len(zeros) == 1, "quotiented ideal is not maximal")
            x = int(zeros[0])
            expect(Q.size == orders[x], f"quotient rank {Q.size}, expected {orders[x]}")
            expect(list(proj) == D[:, x].tolist(), "projection is not the digit map")
            return canonical([Q.size, Q.oplus_table.tolist(), Q.neg_table.tolist()])
        drop = ("A", "spec", "maximals") if i == chosen[-1] else ()
        ops.append(LibOp(f"quotient {tag} #{i}", run_quotient, check_quotient, drop))
    return ops


def sha256_array(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a)).hexdigest()


def cap(rng):
    """Large carriers: the O(n^3) axiom sweep, n x n table builds, quotients at n=4096."""
    orders = [3, 3, 3, 3, 3, 2]
    c = relabeled(orders, rng)
    ops = finite_ops(c, tables_text(c.n, c.zero, *c.tables()), "x".join(map(str, orders)),
                     rng, ("verify",))
    for name, count, quotients in TRUNCATIONS:
        ops += truncation_ops(name, count, quotients, rng)
    return ops


def mv2_violated(oplus, neg, x, y) -> bool:
    def lhs(a, b):
        return oplus[neg[oplus[neg[a], b]], b]
    return x != y and lhs(x, y) != lhs(y, x)


def associativity_witness(oplus):
    """First (x, y, z) with (x+y)+z != x+(y+z), or None."""
    for z in range(len(oplus)):
        col = oplus[:, z]
        bad = np.argwhere(col[oplus] != oplus[:, col])
        if len(bad):
            return (*map(int, bad[0]), z)
    return None


def reject(rng):
    """Documents that must be refused, each with its exit code and error kind."""
    ops = []
    # componentwise max: a distributive lattice that passes every axiom but mv2
    for orders in ([3, 3, 3, 3, 3, 2], [4, 4, 4, 4, 2]):
        c = relabeled(orders, rng)
        oplus, neg = c.tables(join=True)

        def check_mv2(res, oplus=oplus, neg=neg):
            expect(res["valid"] is False and res["axiom"] == "mv2", f"verdict {res}")
            expect(mv2_violated(oplus, neg, *res["witness"]), f"witness {res['witness']} satisfies mv2")
        ops.append(CliOp(f"verify max-lattice {'x'.join(map(str, orders))}", ["verify"],
                         tables_text(c.n, c.zero, oplus, neg), code=2, check=check_mv2))

    # single-entry corruptions of valid family tables
    combos = [list(combo) for r in (2, 3) for combo in itertools.combinations_with_replacement((2, 3, 4, 5), r)
              if math.prod(combo) >= 12]
    for i, axiom in enumerate(("commutative", "commutative", "associative", "associative")):
        orders = rng.choice(combos)
        c = relabeled(orders, rng)
        oplus, neg = c.tables()
        oplus = oplus.copy()
        nonzero = [e for e in range(c.n) if e != c.zero]
        while True:
            x, y = rng.sample(nonzero, 2)
            w = rng.choice([e for e in range(c.n) if e != oplus[x, y]])
            bad = oplus.copy()
            bad[x, y] = w
            if axiom == "associative":
                bad[y, x] = w
                witness = associativity_witness(bad)
                if witness is None:
                    continue
            else:
                witness = (min(x, y), max(x, y))
            break
        text = tables_text(c.n, c.zero, bad, neg)
        tag = f"{axiom} corruption {'x'.join(map(str, orders))}"
        if i % 2 == 0:
            def check_axiom(res, axiom=axiom, witness=witness, bad=bad):
                expect(res["valid"] is False and res["axiom"] == axiom, f"verdict {res}")
                if axiom == "commutative":
                    expect(tuple(res["witness"]) == witness, f"witness {res['witness']}, expected {witness}")
                else:
                    x, y, z = res["witness"]
                    expect(bad[bad[x, y], z] != bad[x, bad[y, z]], f"witness {res['witness']} is associative")
            ops.append(CliOp(f"verify {tag}", ["verify"], text, code=2, check=check_axiom))
        else:
            def check_domain(err, axiom=axiom):
                expect(repr(axiom) in err["message"], f"message {err['message']!r} names another axiom")
            cmd = rng.choice(("decompose", "center", "ideals"))
            ops.append(CliOp(f"{cmd} {tag}", [cmd], text, code=2, kind="domain", check=check_domain))

    # malformed documents
    good = Carrier([2, 3])
    oplus, neg = good.tables()
    base = json.loads(tables_text(good.n, good.zero, oplus, neg))
    spec = presentation_doc("example_4_6")
    malformed = [
        ("verify", "{\"type\": \"tables\", \"size\": "),
        ("decompose", "[1, 2, 3]"),
        ("center", json.dumps({"type": "matrix"})),
        ("verify", json.dumps({**base, "oplus": base["oplus"][:-1]})),
        ("ideals", json.dumps({**base, "neg": [*base["neg"][:-1], "top"]})),
        ("verify", json.dumps({**base, "labels": ["a"] * (good.n - 1)})),
        ("verify", json.dumps({**base, "zero": True})),
        ("complete", json.dumps({"type": "product", "orders": [3, 1]})),
        ("decide-sc", json.dumps({**spec, "classes": [{"kind": "bogus"}, spec["classes"][1]]})),
        ("census", json.dumps({k: v for k, v in spec.items() if k != "index_set"})),
        ("limit", json.dumps(spec), "--element",
         json.dumps({"modulus": 2, "class_values": [1, "top"], "prefix": {}}), "--ultrafilter", "free:x:2"),
    ]
    for j, (cmd, text, *flags) in enumerate(malformed):
        ops.append(CliOp(f"{cmd} malformed #{j}", [cmd, *flags], text, code=3, kind="schema"))

    # carriers over the cap
    for cmd, orders, flags, cap_ in (("verify", [2] * 13, [], 4096),
                                     ("ideals", [5] * 6, [], 4096),
                                     ("complete", [4, 4, 4, 4], ["--max-size", "100"], 100)):
        def check_cap(err, cap_=cap_):
            expect(err["cap"] == cap_, f"cap {err['cap']}, expected {cap_}")
        ops.append(CliOp(f"{cmd} over cap {'x'.join(map(str, orders))}", [cmd, *flags],
                         product_text(orders), code=4, kind="resource-cap", check=check_cap))
    c = relabeled([2, 3, 4], rng)
    ops.append(CliOp("verify tables over cap 2x3x4", ["verify", "--max-size", "16"],
                     tables_text(c.n, c.zero, *c.tables()), code=4, kind="resource-cap",
                     check=lambda err: expect(err["cap"] == 16, f"cap {err['cap']}, expected 16")))

    # quotient by a non-ideal: {0, x} with x not idempotent is not closed under the sum
    for orders in ([3, 4], [2, 5, 3]):
        c = Carrier(orders)
        digits = [rng.randrange(o) for o in orders]
        i = rng.choice([i for i, o in enumerate(orders) if o > 2])
        digits[i] = rng.randrange(1, orders[i] - 1)
        members = sorted({0, c.element(digits)})
        ops.append(CliOp(f"quotient non-ideal {'x'.join(map(str, orders))}",
                         ["quotient", "--ideal", json.dumps(members)], product_text(orders),
                         code=2, kind="domain"))

    # a superscript digit passes str.isdigit() but not int(); the schema error is exit 3
    ops.append(CliOp("decide-sc override key '²'", ["decide-sc"],
                     json.dumps({**presentation_doc("example_const_2"), "prefix_overrides": {"²": 3}}),
                     code=3, kind="schema"))
    return ops


def build(name, seed):
    """The operation list of one pass of workload `name` for `seed`."""
    return {"family": family, "lattice": lattice, "cap": cap, "reject": reject}[name](random.Random(seed))
