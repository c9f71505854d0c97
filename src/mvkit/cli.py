"""Command-line front end and the stable JSON document schema.

Input is an algebra document, one of three shapes:

    {"type": "tables", "size": n, "zero": z, "oplus": [[...]], "neg": [...],
     "labels": [...]?}
    {"type": "product", "orders": [n1, n2, ...]}
    {"type": "full_product", "period": p, "classes": [...],
     "prefix_overrides": {"x": n, ...}, "index_set": {...}}

Every command writes one report document (sorted keys, canonical list
orders, reduced fraction strings) so identical inputs give byte-identical
output.  Exit codes: 0 success, 2 domain-level negative result or failed
precondition, 3 schema error, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

import numpy as np

from .completion import profinite_completion
from .errors import (
    DomainError,
    MVAxiomError,
    ResourceCapError,
    SchemaError,
)
from .finite import (
    DEFAULT_MAX_SIZE,
    FiniteMVAlgebra,
    _all_ints,
    _certificate,
    _expect,
    as_tables,
    boolean_center,
    chain_product,
    decompose,
    from_tables,
)
from .ideals import all_ideals, classify, make_ideal, quotient
from .symbolic import (
    DEFAULT_MAX_TRUNCATION,
    ConstClass,
    IndexSpec,
    SymbolicElement,
    SymbolicUltrafilter,
    UnboundedClass,
    completion_report,
    decide_strongly_complete,
    in_kernel,
    maximal_ideal_census,
    ultrafilter_limit,
)

SCHEMA_VERSION = "1"


# -- document parsing -------------------------------------------------------


def _index_keyed(doc, key, what):
    """doc[key] (default {}), an object keyed by ASCII digit strings, as {index: value}."""
    mapping = doc.get(key, {})
    _expect(isinstance(mapping, dict), "field {!r} must be an object", key)
    for k in mapping:
        # str.isdigit alone also admits "²", which int() rejects
        _expect(isinstance(k, str) and k.isascii() and k.isdigit(), "{} key {!r} must be a digit string", what, k)
    return {int(k): value for k, value in mapping.items()}


def parse_index_spec(doc) -> IndexSpec:
    classes_doc = doc.get("classes")
    _expect(isinstance(classes_doc, list), "field 'classes' must be a list")
    classes = []
    for entry in classes_doc:
        _expect(isinstance(entry, dict), "each class must be an object")
        kind = entry.get("kind")
        if kind == "const":
            classes.append(ConstClass(entry.get("order")))
        elif kind == "unbounded":
            classes.append(UnboundedClass(entry.get("step"), entry.get("start")))
        else:
            raise SchemaError(f"class kind must be 'const' or 'unbounded', got {kind!r}")
    overrides = _index_keyed(doc, "prefix_overrides", "override")
    index_set = doc.get("index_set")
    _expect(isinstance(index_set, dict), "field 'index_set' must be an object")
    kind = index_set.get("kind")
    if kind == "infinite":
        limit = None
    elif kind == "finite":
        limit = index_set.get("limit")
        _expect(limit is not None, "field 'limit' must be an integer")   # None is the infinite set
    else:
        raise SchemaError(f"index_set kind must be 'finite' or 'infinite', got {kind!r}")
    return IndexSpec(doc.get("period"), classes, overrides, limit)


def parse_algebra_document(doc, max_size=DEFAULT_MAX_SIZE):
    """Returns ("finite", FiniteMVAlgebra) or ("symbolic", IndexSpec).

    The library checks finite documents: `from_tables` admits and validates
    tables, and `chain_product` admits chain orders and builds their product,
    an MV-algebra by construction.
    """
    _expect(isinstance(doc, dict), "algebra document must be a JSON object")
    kind = doc.get("type")
    if kind == "tables":
        return "finite", from_tables(doc.get("size"), doc.get("zero"), doc.get("oplus"), doc.get("neg"),
                                     doc.get("labels"), max_size=max_size)
    if kind == "product":
        return "finite", chain_product(doc.get("orders"), max_size)
    if kind == "full_product":
        return "symbolic", parse_index_spec(doc)
    raise SchemaError(f"document type must be 'tables', 'product' or 'full_product', got {kind!r}")


def parse_symbolic_element(doc, spec: IndexSpec) -> SymbolicElement:
    _expect(isinstance(doc, dict), "element must be a JSON object")
    values = doc.get("class_values")
    _expect(isinstance(values, list), "field 'class_values' must be a list")
    return SymbolicElement(spec, doc.get("modulus"), _index_keyed(doc, "prefix", "prefix"), values)


def parse_ultrafilter(text) -> SymbolicUltrafilter:
    parts = text.split(":")
    try:
        if parts[0] == "principal" and len(parts) == 2:
            return SymbolicUltrafilter.principal(int(parts[1]))
        if parts[0] == "free" and len(parts) == 3:
            return SymbolicUltrafilter.free_on_residue(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise SchemaError(f"ultrafilter {text!r}: {exc}") from exc
    raise SchemaError(f"ultrafilter must be 'principal:x' or 'free:r:m', got {text!r}")


# -- serialization ----------------------------------------------------------


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def tables_document(algebra: FiniteMVAlgebra) -> dict:
    size, zero, oplus, neg = as_tables(algebra)
    doc = {"type": "tables", "size": size, "zero": zero, "oplus": oplus, "neg": neg}
    if algebra.labels is not None:
        doc["labels"] = list(algebra.labels)
    return doc


def product_document(orders) -> dict:
    return {"type": "product", "orders": [int(n) for n in orders]}


def symbolic_element_document(element: SymbolicElement) -> dict:
    return {
        "modulus": element.modulus,
        "class_values": list(element.class_values),
        "prefix": {str(k): v for k, v in sorted(element.prefix.items())},
    }


def index_spec_document(spec: IndexSpec) -> dict:
    classes = []
    for cls in spec.classes:
        if isinstance(cls, ConstClass):
            classes.append({"kind": "const", "order": cls.order})
        else:
            classes.append({"kind": "unbounded", "step": cls.step, "start": cls.start})
    index_set = {"kind": "infinite"} if spec.is_infinite else {"kind": "finite", "limit": spec.limit}
    return {
        "type": "full_product",
        "period": spec.period,
        "classes": classes,
        "prefix_overrides": {str(k): v for k, v in sorted(spec.prefix_overrides.items())},
        "index_set": index_set,
    }


def descriptor_json(desc) -> dict:
    if desc is None:
        return None
    out = {"kind": desc.kind, "rank": desc.rank, "principal": desc.principal}
    if desc.kind == "principal":
        out["index"] = desc.index
    else:
        out["residue"] = desc.residue
        out["modulus"] = desc.modulus
    return out


# -- command handlers -------------------------------------------------------


_APPLIES = {"finite": "finite presentations (tables or product); got a full_product document",
            "symbolic": "full_product documents; got a finite presentation"}


def _require(kind, parsed, command):
    """The parsed value, when the document is of `kind` ("finite" or "symbolic")."""
    if parsed[0] != kind:
        raise DomainError(f"command {command!r} applies to {_APPLIES[kind]}")
    return parsed[1]


def cmd_verify(args, doc):
    """Valid when the document parses: tables pass `from_tables`, and a
    product of chains is an MV-algebra by construction."""
    if isinstance(doc, dict) and doc.get("type") == "full_product":
        raise DomainError(f"command 'verify' applies to {_APPLIES['finite']}")
    try:
        algebra = parse_algebra_document(doc, args.max_size)[1]
    except MVAxiomError as exc:
        return {"valid": False, "axiom": exc.axiom, "witness": list(exc.witness)}, 2
    return {"valid": True, "size": algebra.size}, 0


def cmd_decompose(args, doc):
    algebra = _require("finite", parse_algebra_document(doc, args.max_size), "decompose")
    dec = decompose(algebra)
    return {
        "atoms": list(dec.atoms),
        "chain_orders": list(dec.chain_orders),
        "sorted_orders": list(dec.sorted_orders),
        "iso": dec.digits.tolist(),
        "algebra": product_document(dec.sorted_orders),
    }, 0


def cmd_center(args, doc):
    algebra = _require("finite", parse_algebra_document(doc, args.max_size), "center")
    members, atoms = boolean_center(algebra)
    return {"members": list(members), "atoms": list(atoms), "center_size": len(members)}, 0


def cmd_ideals(args, doc):
    algebra = _require("finite", parse_algebra_document(doc, args.max_size), "ideals")
    out = []
    for ideal in all_ideals(algebra):
        cls = classify(algebra, ideal)
        out.append({
            "members": ideal.sorted_members,
            "proper": cls.proper,
            "prime": cls.prime,
            "maximal": cls.maximal,
            "rank": cls.rank,
            "principal_generator": cls.principal_generator,
        })
    return {"count": len(out), "ideals": out}, 0


def cmd_quotient(args, doc):
    algebra = _require("finite", parse_algebra_document(doc, args.max_size), "quotient")
    members = _json(args.ideal, "--ideal must be a JSON list of element indices")
    _expect(isinstance(members, list) and _all_ints(members), "--ideal must be a JSON list of element indices")
    ideal = make_ideal(algebra, members)
    quot, projection = quotient(algebra, ideal)
    return {
        "ideal": list(ideal.sorted_members),
        "algebra": tables_document(quot),
        "projection": list(projection),
    }, 0


def _cap_window(count, what, args):
    """Index windows, and finite index sets (listed one entry per index)."""
    if count is not None and count > args.max_truncation:
        raise ResourceCapError(count, args.max_truncation, (
            f"{what} {count} exceeds the --max-truncation cap of {args.max_truncation}"))


def cmd_complete(args, doc):
    kind, value = parse_algebra_document(doc, args.max_size)
    if kind == "symbolic":
        _cap_window(value.limit, "finite index set limit", args)
        report = completion_report(value)
        return {
            "strongly_complete": report.strongly_complete,
            "witness": descriptor_json(report.witness),
            "principal_factors": index_spec_document(report.spec),
            "free_families": [
                {"residue": fam.residue, "modulus": fam.modulus,
                 "order": fam.order, "multiplicity": fam.multiplicity}
                for fam in report.free_families
            ],
            "finite_orders": list(report.finite_orders) if report.finite_orders is not None else None,
        }, 0
    result = profinite_completion(value)
    orders = list(_certificate(result.completion).sorted_orders)
    return {
        "strongly_complete": result.is_isomorphism,
        "thread_count": result.thread_count,
        "ideal_count": len(result.system.ideals),
        "chain_orders": orders,
        "completion": product_document(orders),
    }, 0


def cmd_decide_sc(args, doc):
    spec = _require("symbolic", parse_algebra_document(doc, args.max_size), "decide-sc")
    verdict = decide_strongly_complete(spec)
    payload = {
        "strongly_complete": verdict.strongly_complete,
        "witness": descriptor_json(verdict.witness),
    }
    return payload, 0 if verdict.strongly_complete else 2


def cmd_census(args, doc):
    spec = _require("symbolic", parse_algebra_document(doc, args.max_size), "census")
    _cap_window(spec.limit, "finite index set limit", args)
    window = args.max_truncation if args.principal_limit is None else args.principal_limit
    _cap_window(window, "--principal-limit", args)   # a negative window is the library's to refuse
    descriptors = maximal_ideal_census(spec, principal_limit=window)
    principal = [descriptor_json(d) for d in descriptors if d.kind == "principal"]
    free = [descriptor_json(d) for d in descriptors if d.kind == "free_class"]
    return {
        "principal": principal,
        "free_classes": free,
        "principal_window": len(principal),
    }, 0


def cmd_limit(args, doc):
    spec = _require("symbolic", parse_algebra_document(doc, args.max_size), "limit")
    element = parse_symbolic_element(_json(args.element, "--element must be JSON"), spec)
    ultra = parse_ultrafilter(args.ultrafilter)
    value = ultrafilter_limit(element, ultra)
    return {
        "limit": fraction_text(value),
        "in_kernel": in_kernel(element, ultra),
        "element": symbolic_element_document(element),
        "ultrafilter": {"kind": ultra.kind, "index": ultra.index,
                        "residue": ultra.residue, "modulus": ultra.modulus},
    }, 0


HANDLERS = {
    "verify": cmd_verify,
    "decompose": cmd_decompose,
    "center": cmd_center,
    "ideals": cmd_ideals,
    "quotient": cmd_quotient,
    "complete": cmd_complete,
    "decide-sc": cmd_decide_sc,
    "census": cmd_census,
    "limit": cmd_limit,
}


# -- argument parsing and dispatch ------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a schema error instead of exiting 2,
    which the exit-code contract keeps for domain-level negatives."""

    def error(self, message):
        raise SchemaError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mvkit",
        description="Exact computation with finite and symbolically presented MV-algebras.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("document", help="path of an algebra document (JSON); '-' reads stdin")
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--max-size", type=int, default=DEFAULT_MAX_SIZE,
                        help="carrier-size cap (default %(default)s)")
    common.add_argument("--max-truncation", type=int, default=DEFAULT_MAX_TRUNCATION,
                        help="index-window cap for truncations and census (default %(default)s)")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common], help="validate the MV axioms on a finite presentation")
    sub.add_parser("decompose", parents=[common], help="decompose into Lukasiewicz chain factors")
    sub.add_parser("center", parents=[common], help="Boolean center and its atoms")
    sub.add_parser("ideals", parents=[common], help="enumerate and classify all ideals")
    q = sub.add_parser("quotient", parents=[common], help="quotient by an ideal")
    q.add_argument("--ideal", required=True, help="JSON list of element indices")
    sub.add_parser("complete", parents=[common],
                   help="profinite completion (exact for finite input, symbolic for full_product)")
    sub.add_parser("decide-sc", parents=[common],
                   help="decide strong completeness of a full_product presentation")
    c = sub.add_parser("census", parents=[common], help="maximal-ideal census of a full_product")
    c.add_argument("--principal-limit", type=int, default=None,
                   help="how many principal descriptors to list (default: --max-truncation)")
    lm = sub.add_parser("limit", parents=[common], help="ultrafilter limit of a symbolic element")
    lm.add_argument("--element", required=True, help="symbolic element as JSON")
    lm.add_argument("--ultrafilter", required=True, help="'principal:x' or 'free:r:m'")
    return parser


def _json(text, what):
    """json.loads(text); malformed or too deeply nested JSON is a schema error
    that names `what`."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{what}: {exc}") from exc


# -- reading documents --------------------------------------------------------
#
# A `tables` document is mostly its oplus matrix: json.loads makes n^2 Python
# ints of it, `_read_arrays` one int64 array.  A document with anything in
# doubt goes whole to json.loads, so results and messages are json.loads's.

_SKIP = re.compile(r"[ \t\n\r]*").match
_OPLUS = re.compile(r'"oplus"[ \t\n\r]*:[ \t\n\r]*\[').search
_CHUNK = 1 << 16    # bytes of matrix rows checked and parsed at once
_FIRST_DIGIT = bytes.maketrans(b"123456789", b"000000000")


def _int_rows(text, start, stop):
    """text[start:stop] as an (r, k) int64 array when it is exactly r JSON rows
    [d, ..., d] of k integers, joined by commas; else None.

    Numbers must be plain: digits only, no leading zero, under 10^18 (int64
    holds them exactly).  The bytes are checked as one token string against
    the r x k pattern: every byte but JSON whitespace and a digit after a
    digit is a token, each number's first digit read as "0", so a stray byte,
    a missing or doubled comma and a number split by whitespace all break
    it.  np.fromstring then reads the numbers, the brackets blanked.
    """
    a = np.frombuffer(text[start:stop].encode("ascii", "replace"), dtype=np.uint8)
    digit = (a - 48) < 10
    control = np.count_nonzero(a < 32)
    if control and control != np.count_nonzero(((a - 9) < 2) | (a == 13)):
        return None   # a control byte other than \t, \n and \r
    token = a > 32
    np.greater(token[1:], digit[1:] & digit[:-1], out=token[1:])   # a digit after a digit is none
    pos = np.flatnonzero(token)
    tokens = a[pos].tobytes().translate(_FIRST_DIGIT)
    k = tokens.find(b"]") // 2
    row = b"[" + b"0," * (k - 1) + b"0]"
    rows = (len(tokens) + 1) // (len(row) + 1)
    if k < 1 or tokens != b",".join([row] * rows):
        return None
    blank = a.copy()
    blank[pos[np.frombuffer(tokens, dtype=np.uint8) > 48]] = 32   # the brackets
    try:
        values = np.fromstring(blank.tobytes(), dtype=np.int64, sep=",")
    except ValueError:
        return None
    return values.reshape(rows, k) if _plain(values, np.count_nonzero(digit), rows * k) else None


def _plain(values, digits, count) -> bool:
    """`count` values under 10^18, written with `digits` digits in all: no
    value has a leading zero, and none was cut short."""
    top = values.max() if len(values) == count else 10**18
    if top >= 10**18:
        return False
    total, power = count, 10
    while power <= top:
        total += int(np.count_nonzero(values >= power))
        power *= 10
    return total == digits


def _int_matrix(text, start):
    """(square int64 matrix, end) for the rows array at text[start], read in
    row chunks of about _CHUNK bytes into one preallocated array; else None."""
    quote = text.find('"', start)
    end = text.rfind("]", start, len(text) if quote < 0 else quote)   # the rows hold no '"'
    pos, out, filled = _SKIP(text, start + 1).end(), None, 0
    while pos < end:
        stop = text.find("]", pos + _CHUNK, end)
        stop = (text.rfind("]", pos, end) if stop < 0 else stop) + 1
        rows = _int_rows(text, pos, stop)
        if rows is None:
            return None
        if out is None:
            if 2 * rows.shape[1] ** 2 > end - start:
                return None   # too little text for k rows of k numbers
            out = np.empty((rows.shape[1],) * 2, dtype=np.int64)
        if rows.shape[1] != len(out) or filled + len(rows) > len(out):
            return None
        out[filled:filled + len(rows)] = rows
        filled += len(rows)
        pos = _SKIP(text, stop).end()
        if pos == end:
            return (out, end + 1) if filled == len(out) else None
        if not text.startswith(",", pos):
            return None
        pos = _SKIP(text, pos + 1).end()
    return None


def _read_arrays(text):
    """json.loads(text), the top-level "oplus" as an int64 array, when that
    is plain rows; else None, and json.loads reads the text.

    `_int_matrix` reads the rows after '"oplus" :', json.loads the rest of
    the text with "[]" in their place.  That is json.loads(text), rows aside,
    when the rest holds no backslash and one '"oplus"', and its object holds
    "oplus": with no escape every '"' of valid JSON delimits a string, so
    '"oplus"' before ':' is a key, the only "oplus" key, and it is top-level
    exactly when the object holds it; the rows are one complete array with
    no quote, as "[]" is ("0" could run on into a following ".5"), so the
    text is valid exactly when the rest is, and holds the rows where the
    rest holds "[]", two levels deep.
    """
    key = _OPLUS(text)
    got = _int_matrix(text, key.end() - 1) if key else None
    if got is None:
        return None
    rest = text[:key.end() - 1] + "[]" + text[got[1]:]
    if "\\" in rest or rest.count('"oplus"') != 1:
        return None
    try:
        doc = json.loads(rest)
    except (json.JSONDecodeError, RecursionError):
        return None
    if not (isinstance(doc, dict) and "oplus" in doc):
        return None
    doc["oplus"] = got[0]
    return doc


def _read_document(path):
    try:
        text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read document: {exc}") from exc
    doc = _read_arrays(text)
    return _json(text, "document is not valid JSON") if doc is None else doc


def _emit(report, out_path):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _schema_report(command, message) -> int:
    """A schema error reported on stdout, for when there is no usable `--out`."""
    _emit({"version": SCHEMA_VERSION, "command": command,
           "error": {"kind": "schema", "message": message}}, None)
    return 3


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except SchemaError as exc:
        return _schema_report(argv[0] if argv else None, str(exc))
    report = {"version": SCHEMA_VERSION, "command": args.command}
    try:
        for flag, cap in (("--max-size", args.max_size), ("--max-truncation", args.max_truncation)):
            _expect(cap >= 0, "{} must be >= 0, got {}", flag, cap)
        doc = _read_document(args.document)
        payload, code = HANDLERS[args.command](args, doc)
        report["result"] = payload
    except SchemaError as exc:
        report["error"] = {"kind": "schema", "message": str(exc)}
        code = 3
    except ResourceCapError as exc:
        report["error"] = {"kind": "resource-cap", "message": str(exc), "cap": exc.cap}
        code = 4
    except DomainError as exc:
        report["error"] = {"kind": "domain", "message": str(exc)}
        code = 2
    try:
        _emit(report, args.out)
    except OSError as exc:
        return _schema_report(args.command, f"cannot write the report: {exc}")
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
