"""CLI: schema handling, exit-status contract, determinism, round-trips."""

import json
import os
import tempfile

import numpy as np
import pytest

import mvkit as mv
from mvkit import cli, data, finite, symbolic
from mvkit.cli import parse_algebra_document, run

PRODUCT_23 = {"type": "product", "orders": [2, 3]}

MAX_OPLUS = {
    "type": "tables", "size": 3, "zero": 0,
    "oplus": [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
    "neg": [2, 1, 0],
}


def invoke(capsys, command, doc, *extra):
    """(exit code, report) of `mvkit command doc *extra`; a dict or list
    document is written to a temporary directory, removed afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(doc)
        if isinstance(doc, (dict, list)):
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        code = run([command, path, *extra])
    return code, json.loads(capsys.readouterr().out)


def test_invoke_leaves_no_temporary_file(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    for doc in (PRODUCT_23, [PRODUCT_23], data.path("example_4_5")):
        invoke(capsys, "verify", doc)
    assert list(tmp_path.iterdir()) == []


def test_verify_valid(capsys):
    code, report = invoke(capsys, "verify", PRODUCT_23)
    assert code == 0
    assert report["result"] == {"valid": True, "size": 6}
    assert report["version"] == "1" and report["command"] == "verify"


def test_verify_product_at_cap(capsys):
    code, report = invoke(capsys, "verify", {"type": "product", "orders": [2] * 12})
    assert code == 0
    assert report["result"] == {"valid": True, "size": 4096}


def test_verify_invalid_reports_axiom_and_witness(capsys):
    code, report = invoke(capsys, "verify", MAX_OPLUS)
    assert code == 2
    result = report["result"]
    assert result["valid"] is False
    assert result["axiom"] == "mv2"
    assert sorted(result["witness"]) == [1, 2]


def test_schema_errors_exit_3(capsys):
    code, report = invoke(capsys, "verify", {"type": "nonsense"})
    assert code == 3 and report["error"]["kind"] == "schema"
    code, report = invoke(capsys, "verify", {"type": "tables", "size": 2})
    assert code == 3
    code, report = invoke(capsys, "decompose", {"type": "product", "orders": [1]})
    assert code == 3


def test_malformed_json_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = run(["verify", str(bad)])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["error"]["kind"] == "schema"


def test_deeply_nested_document_exits_3(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    code = run(["verify", str(deep)])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["error"]["kind"] == "schema"


def test_non_utf8_document_exits_3(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe" + json.dumps(PRODUCT_23).encode("utf-16-le"))
    code = run(["verify", str(raw)])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["error"]["kind"] == "schema"


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_out_reports_on_stdout(tmp_path, capsys, target):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(PRODUCT_23), encoding="utf-8")
    out = tmp_path if target == "directory" else tmp_path / "missing" / "report.json"
    code = run(["verify", str(doc), "--out", str(out)])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["command"] == "verify" and "result" not in report
    assert report["error"]["kind"] == "schema" and "cannot write the report" in report["error"]["message"]


def test_resource_cap_exits_4(capsys, monkeypatch):
    code, report = invoke(capsys, "decompose", {"type": "product", "orders": [5] * 6})
    assert code == 4
    assert report["error"]["kind"] == "resource-cap"
    assert report["error"]["cap"] == 4096

    # the running product of the orders meets the cap before any chain is
    # built, with `product`'s message, so an order of 10^6 or 10^12 allocates nothing
    def no_chain(order):
        raise AssertionError(f"chain of order {order} built past the cap")

    monkeypatch.setattr(finite, "chain_algebra", no_chain)   # the name `chain_product` reads
    for orders, size in (([2, 1000000], 2000000), ([2, 10**12], 2 * 10**12), ([70, 70], 4900)):
        code, report = invoke(capsys, "verify", {"type": "product", "orders": orders})
        assert code == 4 and report["error"]["kind"] == "resource-cap"
        assert report["error"]["message"] == f"carrier size {size} exceeds the cap of 4096"


@pytest.mark.parametrize("orders, size", [([2] * 12, 4096), ([4, 4, 4], 64), ([2, 3], 6)])
def test_verify_trusts_the_product_it_builds(capsys, monkeypatch, tmp_path, orders, size):
    """A `product` document is an MV-algebra by construction, so `verify`
    runs neither `from_tables` nor `decompose` on it, and its report is
    unchanged, byte for byte."""
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    originals = {name: getattr(finite, name) for name in ("from_tables", "decompose")}
    for module in (cli, finite):
        for name, fn in originals.items():
            monkeypatch.setattr(module, name, spy(name, fn))
    path = tmp_path / "product.json"
    path.write_text(json.dumps({"type": "product", "orders": orders}))
    assert run(["verify", str(path)]) == 0
    assert capsys.readouterr().out == (
        '{\n  "command": "verify",\n  "result": {\n    "size": %d,\n    "valid": true\n  },\n'
        '  "version": "1"\n}\n' % size)
    assert calls == []


def test_chain_product_builds_each_order_once(capsys, monkeypatch):
    built = []

    def counting(order, chain_algebra=finite.chain_algebra):
        built.append(order)
        return chain_algebra(order)

    monkeypatch.setattr(finite, "chain_algebra", counting)
    spec = parse_algebra_document(data.load("example_const_2"))[1]
    assert symbolic.truncate(spec, 12).size == 4096
    assert built == [2]
    built.clear()
    code, report = invoke(capsys, "verify", {"type": "product", "orders": [2, 2, 3, 3]})
    assert code == 0 and report["result"]["size"] == 36
    assert sorted(built) == [2, 3]


def test_decompose_product(capsys):
    code, report = invoke(capsys, "decompose", PRODUCT_23)
    assert code == 0
    assert report["result"]["sorted_orders"] == [2, 3]
    assert report["result"]["algebra"] == {"type": "product", "orders": [2, 3]}


def test_center_command(capsys):
    code, report = invoke(capsys, "center", PRODUCT_23)
    assert code == 0
    assert report["result"]["center_size"] == 4
    assert len(report["result"]["atoms"]) == 2


def test_ideals_command_canonical_order(capsys):
    code, report = invoke(capsys, "ideals", PRODUCT_23)
    assert code == 0
    ideals = report["result"]["ideals"]
    assert report["result"]["count"] == 4
    member_lists = [i["members"] for i in ideals]
    assert member_lists == sorted(member_lists, key=lambda m: (len(m), m))
    ranks = sorted(i["rank"] for i in ideals if i["maximal"])
    assert ranks == [2, 3]


def test_quotient_command(capsys):
    code, report = invoke(capsys, "quotient", PRODUCT_23, "--ideal", "[0, 1, 2]")
    assert code == 0
    assert report["result"]["algebra"]["size"] == 2
    assert sorted(set(report["result"]["projection"])) == [0, 1]


def test_quotient_improper_ideal_gives_trivial_report(capsys):
    code, report = invoke(capsys, "quotient", PRODUCT_23,
                          "--ideal", "[0, 1, 2, 3, 4, 5]")
    assert code == 0
    assert report["result"]["algebra"]["size"] == 1


def test_quotient_rejects_non_ideal(capsys):
    code, report = invoke(capsys, "quotient", PRODUCT_23, "--ideal", "[0, 5]")
    assert code == 2 and report["error"]["kind"] == "domain"


def test_complete_finite(capsys):
    code, report = invoke(capsys, "complete", PRODUCT_23)
    assert code == 0
    result = report["result"]
    assert result["strongly_complete"] is True
    assert result["thread_count"] == 6
    assert result["completion"] == {"type": "product", "orders": [2, 3]}


def test_complete_full_product(capsys):
    code, report = invoke(capsys, "complete", data.path("example_4_6"))
    assert code == 0
    result = report["result"]
    assert result["strongly_complete"] is False
    assert result["witness"]["rank"] == 2
    assert [f["order"] for f in result["free_families"]] == [2]
    assert result["finite_orders"] is None


def test_decide_sc_bundled_examples(capsys):
    code, report = invoke(capsys, "decide-sc", data.path("example_4_5"))
    assert code == 0 and report["result"]["strongly_complete"] is True

    code, report = invoke(capsys, "decide-sc", data.path("example_4_6"))
    assert code == 2
    witness = report["result"]["witness"]
    assert witness == {"kind": "free_class", "rank": 2, "principal": False,
                       "residue": 0, "modulus": 2}


def test_census_command(capsys):
    code, report = invoke(capsys, "census", data.path("example_4_5"),
                          "--principal-limit", "4")
    assert code == 0
    result = report["result"]
    assert [d["rank"] for d in result["principal"]] == [2, 3, 4, 5]
    assert [d["rank"] for d in result["free_classes"]] == ["infinite"]


def test_limit_command(capsys):
    code, report = invoke(capsys, "limit", data.path("example_4_6"),
                          "--element", '{"modulus": 2, "class_values": [1, "top"], "prefix": {}}',
                          "--ultrafilter", "free:1:2")
    assert code == 0
    assert report["result"]["limit"] == "1/1"
    assert report["result"]["in_kernel"] is False
    # the echoed element re-parses to an equal element
    from mvkit.cli import parse_symbolic_element

    _, spec = parse_algebra_document(json.loads(data.path("example_4_6").read_text()))
    echoed = parse_symbolic_element(report["result"]["element"], spec)
    assert echoed.class_values == (1, "top") and echoed.modulus == 2


def test_limit_rejects_free_ultrafilter_on_finite_set(capsys):
    finite_doc = {
        "type": "full_product", "period": 1,
        "classes": [{"kind": "const", "order": 2}],
        "prefix_overrides": {}, "index_set": {"kind": "finite", "limit": 4},
    }
    code, report = invoke(capsys, "limit", finite_doc,
                          "--element", '{"modulus": 1, "class_values": [0], "prefix": {}}',
                          "--ultrafilter", "free:0:1")
    assert code == 2 and report["error"]["kind"] == "domain"


def test_bad_ultrafilter_syntax_exits_3(capsys):
    code, report = invoke(capsys, "limit", data.path("example_4_5"),
                          "--element", '{"modulus": 1, "class_values": ["zero"], "prefix": {}}',
                          "--ultrafilter", "sideways:1")
    assert code == 3


@pytest.mark.parametrize("command", ["verify", "decompose", "center", "ideals"])
def test_finite_only_commands_reject_full_product(capsys, command):
    code, report = invoke(capsys, command, data.path("example_4_5"))
    assert code == 2
    assert "full_product" in report["error"]["message"]


@pytest.mark.parametrize("command", ["decide-sc", "census"])
def test_symbolic_only_commands_reject_finite_docs(capsys, command):
    code, report = invoke(capsys, command, PRODUCT_23)
    assert code == 2


def test_reports_are_byte_identical(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(PRODUCT_23), encoding="utf-8")
    outputs = []
    for _ in range(2):
        run(["ideals", str(doc)])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    spec = data.path("example_4_6")
    outputs = []
    for _ in range(2):
        run(["complete", str(spec)])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_out_flag_writes_file(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(PRODUCT_23), encoding="utf-8")
    out = tmp_path / "report.json"
    code = run(["decompose", str(doc), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["result"]["sorted_orders"] == [2, 3]


def test_report_algebra_payloads_reparse(capsys):
    code, report = invoke(capsys, "decompose", PRODUCT_23)
    kind, algebra = parse_algebra_document(report["result"]["algebra"])
    assert kind == "finite" and algebra.size == 6

    code, report = invoke(capsys, "quotient", PRODUCT_23, "--ideal", "[0, 3]")
    kind, algebra = parse_algebra_document(report["result"]["algebra"])
    assert kind == "finite" and algebra.size == 3

    code, report = invoke(capsys, "complete", data.path("example_4_5"))
    kind, spec = parse_algebra_document(report["result"]["principal_factors"])
    assert kind == "symbolic" and spec.order_at(3) == 5


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PRODUCT_23)))
    code = run(["verify", "-"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["result"]["valid"] is True


def test_max_size_flag_controls_cap(capsys):
    code, report = invoke(capsys, "verify", {"type": "product", "orders": [4, 4, 4]},
                          "--max-size", "32")
    assert code == 4 and report["error"]["cap"] == 32


@pytest.mark.parametrize("command", ["verify", "decompose", "center", "ideals", "quotient", "complete"])
def test_every_finite_command_admits_exactly_up_to_the_cap(capsys, tmp_path, command):
    """`--max-size` is checked where the document becomes an algebra: a
    carrier of n passes at n and is refused at n - 1, as a `tables` and as
    a `product` document, with the admission message."""
    relabeled = finite.relabel(finite.chain_product([3, 2]), [4, 2, 0, 5, 1, 3])
    for doc in (cli.tables_document(relabeled), {"type": "product", "orders": [3, 2]}):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        extra = ["--ideal", json.dumps([doc.get("zero", 0)])] if command == "quotient" else []
        code, report = invoke(capsys, command, str(path), *extra, "--max-size", "6")
        assert code == 0 and "result" in report, (doc["type"], report)
        code, report = invoke(capsys, command, str(path), *extra, "--max-size", "5")
        assert code == 4, (doc["type"], report)
        assert report["error"] == {"kind": "resource-cap", "cap": 5,
                                   "message": "carrier size 6 exceeds the cap of 5"}


SPEC_CONST_2 = {
    "type": "full_product", "period": 1,
    "classes": [{"kind": "const", "order": 2}],
    "prefix_overrides": {}, "index_set": {"kind": "infinite"},
}


@pytest.mark.parametrize("key", ["²", "０", "-1"])
def test_non_ascii_digit_override_key_exits_3(capsys, key):
    doc = dict(SPEC_CONST_2, prefix_overrides={key: 3})
    code, report = invoke(capsys, "decide-sc", doc)
    assert code == 3 and report["error"]["kind"] == "schema"
    assert "override key" in report["error"]["message"]


@pytest.mark.parametrize("key", ["²", "０", "-1"])
def test_non_ascii_digit_prefix_key_exits_3(capsys, key):
    element = json.dumps({"modulus": 1, "class_values": [0], "prefix": {key: 1}})
    code, report = invoke(capsys, "limit", SPEC_CONST_2,
                          "--element", element, "--ultrafilter", "principal:0")
    assert code == 3 and report["error"]["kind"] == "schema"
    assert "prefix key" in report["error"]["message"]


def test_census_negative_principal_limit_exits_3(capsys):
    code, report = invoke(capsys, "census", data.path("example_4_5"),
                          "--principal-limit", "-5")
    assert code == 3 and report["error"]["kind"] == "schema"


def test_census_principal_limit_above_truncation_cap_exits_4(capsys):
    code, report = invoke(capsys, "census", data.path("example_4_5"),
                          "--principal-limit", "17")
    assert code == 4 and report["error"]["kind"] == "resource-cap"
    assert report["error"]["cap"] == 16
    assert "--max-truncation" in report["error"]["message"]

    code, report = invoke(capsys, "census", data.path("example_4_5"),
                          "--principal-limit", "17", "--max-truncation", "17")
    assert code == 0 and report["result"]["principal_window"] == 17


def test_non_string_labels_exit_3(capsys):
    doc = {"type": "tables", "size": 2, "zero": 0,
           "oplus": [[0, 1], [1, 1]], "neg": [1, 0], "labels": [0, {"a": 1}]}
    code, report = invoke(capsys, "verify", doc)
    assert code == 3 and report["error"]["kind"] == "schema"
    assert "labels" in report["error"]["message"]


@pytest.mark.parametrize("command, doc, extra, code, message", [
    ("decide-sc", dict(SPEC_CONST_2, index_set={"kind": "finite", "limit": -2}), [],
     3, "index-set limit must be a natural number, got -2"),
    ("limit", dict(SPEC_CONST_2, classes=[{"kind": "const", "order": 3}]),
     ["--element", '{"modulus": 1, "class_values": [0], "prefix": {"0": 7}}', "--ultrafilter", "principal:0"],
     3, "prefix value 7 invalid in the 3-element chain at 0"),
    ("limit", SPEC_CONST_2,
     ["--element", '{"modulus": 1, "class_values": [0], "prefix": {}}', "--ultrafilter", "free:0:0"],
     2, "residue 0 mod 0 is not a residue class"),
    ("decide-sc", [SPEC_CONST_2], [], 3, "algebra document must be a JSON object"),
    ("verify", [SPEC_CONST_2], [], 3, "algebra document must be a JSON object"),
    ("limit", SPEC_CONST_2, ["--element", "[1]", "--ultrafilter", "principal:0"],
     3, "element must be a JSON object"),
    ("verify", {"type": "product", "orders": 5}, [], 3, "field 'orders' must be a list"),
    ("decide-sc", dict(SPEC_CONST_2, period=2), [], 3, "1 classes for period 2"),
    ("decide-sc", dict(SPEC_CONST_2, period="1"), [], 3, "field 'period' must be an integer"),
    ("decide-sc", dict(SPEC_CONST_2, prefix_overrides={"0": "x"}), [],
     3, "override value for 0 must be an integer"),
    ("decide-sc", dict(SPEC_CONST_2, classes=5), [], 3, "field 'classes' must be a list"),
    ("decide-sc", dict(SPEC_CONST_2, classes=[5]), [], 3, "each class must be an object"),
    ("decide-sc", dict(SPEC_CONST_2, prefix_overrides=[]), [], 3, "field 'prefix_overrides' must be an object"),
    ("decide-sc", dict(SPEC_CONST_2, index_set=5), [], 3, "field 'index_set' must be an object"),
    ("limit", SPEC_CONST_2, ["--element", '{"modulus": 1, "class_values": 5}', "--ultrafilter", "principal:0"],
     3, "field 'class_values' must be a list"),
    ("limit", SPEC_CONST_2,
     ["--element", '{"modulus": 1, "class_values": [0], "prefix": []}', "--ultrafilter", "principal:0"],
     3, "field 'prefix' must be an object"),
    # a finite index set without a limit; a type fault (period) behind a structure fault (classes)
    ("decide-sc", dict(SPEC_CONST_2, index_set={"kind": "finite"}), [], 3, "field 'limit' must be an integer"),
    ("decide-sc", dict(SPEC_CONST_2, period="x", classes=5), [], 3, "field 'classes' must be a list"),
])
def test_guarded_refusals_report_exactly(capsys, command, doc, extra, code, message):
    """Each input is refused by one guard, with that guard's own exit code
    and message."""
    got, report = invoke(capsys, command, doc, *extra)
    kind = {2: "domain", 3: "schema"}[code]
    assert (got, report["error"]) == (code, {"kind": kind, "message": message})


def finite_index_set(limit):
    return dict(SPEC_CONST_2, index_set={"kind": "finite", "limit": limit})


@pytest.mark.parametrize("command", ["census", "complete"])
def test_finite_index_set_above_truncation_cap_exits_4(capsys, command):
    code, report = invoke(capsys, command, finite_index_set(200000))
    assert code == 4 and report["error"]["kind"] == "resource-cap"
    assert report["error"]["cap"] == 16
    assert "--max-truncation" in report["error"]["message"]

    code, report = invoke(capsys, command, finite_index_set(16))
    assert code == 0


@pytest.mark.parametrize("flag", ["--max-size", "--max-truncation"])
def test_negative_cap_exits_3(capsys, flag):
    code, report = invoke(capsys, "census", data.path("example_4_5"), flag, "-3")
    assert code == 3 and report["error"]["kind"] == "schema"
    assert flag in report["error"]["message"]


TABLES_23 = {"type": "tables", "size": 2, "zero": 0, "oplus": [[0, 1], [1, 1]], "neg": [1, 0]}


BAD_ENTRIES = [True, 1.0, "1", None]


@pytest.mark.parametrize("bad", BAD_ENTRIES)
def test_table_entries_must_be_integers(capsys, bad):
    oplus = [[0, 1], [1, bad]]
    code, report = invoke(capsys, "verify", dict(TABLES_23, oplus=oplus))
    assert code == 3 and report["error"] == {
        "kind": "schema", "message": "field 'oplus' must contain integers"}
    code, report = invoke(capsys, "verify", dict(TABLES_23, neg=[1, bad]))
    assert code == 3 and report["error"] == {
        "kind": "schema", "message": "field 'neg' must be a list of integers"}


MALFORMED_TABLES = [
    ({"oplus": [[0, 1], 1]}, "field 'oplus' must be a list of rows"),
    ({"oplus": [[0, 1], [1, 1, 1]]}, "field 'oplus' must be a 2x2 matrix"),
    ({"oplus": [[0, 1], [1, True, 1]]}, "field 'oplus' must contain integers"),
    ({"neg": [1]}, "field 'neg' must have 2 entries"),
    ({"oplus": [], "neg": []}, "field 'oplus' must be a 2x2 matrix"),
    ({"size": -1, "oplus": [], "neg": []}, "carrier size must be >= 1, got -1"),
]


@pytest.mark.parametrize("change, message", MALFORMED_TABLES)
def test_malformed_tables_messages(capsys, change, message):
    code, report = invoke(capsys, "verify", dict(TABLES_23, **change))
    assert code == 3 and report["error"] == {"kind": "schema", "message": message}


LIBRARY_ONLY_TABLES = [
    ({"oplus": [[0, 1.7], [1.2, 1]]}, "field 'oplus' must contain integers"),
    ({"oplus": np.array([[0, 1], [1, 1]], dtype=float)}, "field 'oplus' must contain integers"),
    ({"oplus": np.array([[0, 1], [1, 1]], dtype=bool)}, "field 'oplus' must contain integers"),
    ({"oplus": np.array([0, 1, 1, 1])}, "field 'oplus' must be a list of rows"),
    ({"neg": np.array([1.0, 0.0])}, "field 'neg' must be a list of integers"),
    ({"neg": np.array([[1, 0]])}, "field 'neg' must be a list of integers"),
    ({"oplus": np.array([[0, 1, 1], [1, 1, 1]])}, "field 'oplus' must be a 2x2 matrix"),
    ({"neg": np.array([1, 0, 0])}, "field 'neg' must have 2 entries"),
    ({"zero": 0.0}, "field 'zero' must be an integer"),
    ({"size": 2.0}, "field 'size' must be an integer"),
    ({"size": True}, "field 'size' must be an integer"),
    ({"oplus": [[0, 1], [1]]}, "field 'oplus' must be a 2x2 matrix"),
    ({"oplus": ((0, 1), (1, 1))}, "field 'oplus' must be a list of rows"),
    ({"labels": ["a", 1]}, "field 'labels' must be a list of 2 strings"),
]


@pytest.mark.parametrize("change, message", MALFORMED_TABLES + LIBRARY_ONLY_TABLES + [
    ({"oplus": [[0, 1], [1, bad]]}, "field 'oplus' must contain integers") for bad in BAD_ENTRIES] + [
    ({"neg": [1, bad]}, "field 'neg' must be a list of integers") for bad in BAD_ENTRIES])
@pytest.mark.parametrize("constructor", [mv.from_tables, mv.FiniteMVAlgebra])
def test_library_constructors_refuse_malformed_tables_with_the_cli_messages(constructor, change, message):
    """`from_tables` and `FiniteMVAlgebra` admit tables with the CLI's checks
    and messages: no float, bool, string or None entry is cast to an index,
    and ragged rows are a schema error, not numpy's ValueError."""
    doc = dict(TABLES_23, **change)
    with pytest.raises(mv.SchemaError) as info:
        constructor(doc["size"], doc["zero"], doc["oplus"], doc["neg"], doc.get("labels"))
    assert str(info.value) == message


@pytest.mark.parametrize("orders, message", [
    ([2, 2.5], "chain orders must be integers >= 2"),
    ([True, 2], "chain orders must be integers >= 2"),
    (["3"], "chain orders must be integers >= 2"),
    ([2, 1], "chain orders must be integers >= 2"),
    (5, "field 'orders' must be a list"),
    ((2, 3), "field 'orders' must be a list"),
])
def test_chain_product_refuses_malformed_orders_with_the_cli_messages(orders, message):
    with pytest.raises(mv.SchemaError) as info:
        finite.chain_product(orders)
    assert str(info.value) == message


@pytest.mark.parametrize("command", ["verify", "decompose", "ideals"])
@pytest.mark.parametrize("field", ["oplus", "neg"])
@pytest.mark.parametrize("entry", [-1, 2, 65536, 2**31, 2**70])
def test_out_of_range_table_entries_exit_3(capsys, command, field, entry):
    """-1 and n = 2 are just out of range, 65536 just past uint16, 2^31 past
    int32 and 2^70 past int64: each is a schema report, never a traceback."""
    doc = json.loads(json.dumps(TABLES_23))
    if field == "oplus":
        doc["oplus"][1][1] = entry
    else:
        doc["neg"][1] = entry
    code, report = invoke(capsys, command, doc)
    assert code == 3 and report["error"] == {
        "kind": "schema", "message": f"{field} table contains out-of-range indices"}


@pytest.mark.parametrize("ideal", ["[true]", "[0, 1.0]", "[\"0\"]", "{}"])
def test_quotient_ideal_must_be_index_list(capsys, ideal):
    code, report = invoke(capsys, "quotient", PRODUCT_23, "--ideal", ideal)
    assert code == 3 and report["error"] == {
        "kind": "schema", "message": "--ideal must be a JSON list of element indices"}


@pytest.mark.parametrize("argv, message", [
    (["verify", "doc.json", "--max-size", "abc"], "argument --max-size: invalid int value: 'abc'"),
    (["quotient", "doc.json"], "the following arguments are required: --ideal"),
    (["verify", "doc.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["frobnicate", "doc.json"], "argument command: invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
])
def test_argument_errors_are_schema_reports(capsys, argv, message):
    code = run(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 3 and captured.err == ""
    assert report["version"] == "1" and report["command"] == (argv[0] if argv else None)
    assert report["error"]["kind"] == "schema" and report["error"]["message"].startswith(message)
    assert "result" not in report


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        run(["verify", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mvkit verify")


@pytest.mark.parametrize("command, flags, message", [
    ("quotient", ["--ideal"], "--ideal must be a JSON list of element indices: "),
    ("limit", ["--ultrafilter", "principal:0", "--element"], "--element must be JSON: "),
])
def test_deeply_nested_json_flag_exits_3(capsys, command, flags, message):
    doc = PRODUCT_23 if command == "quotient" else data.load("example_4_6")
    code, report = invoke(capsys, command, doc, *flags, "[" * 100_000)
    assert code == 3 and report["error"]["kind"] == "schema"
    assert report["error"]["message"].startswith(message)
