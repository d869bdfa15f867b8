"""The docs tier stays true: protocol conformance + link integrity.

``docs/protocol.md`` is the *normative* wire-format specification; these
tests parse its ``<!-- conformance: name -->``-tagged tables and assert
the declared byte layouts and code tables against the implementation in
``repro.frontend.framing``. If a test here fails, the document and the
code have diverged — fix the code, or amend the spec and bump
``PROTOCOL_VERSION`` (protocol.md §2).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.doccheck import check_paths, github_slug, heading_slugs
from repro.analysis.lint.framework import rule_table
from repro.frontend import framing

REPO_ROOT = Path(__file__).resolve().parents[1]
PROTOCOL = REPO_ROOT / "docs" / "protocol.md"
ARCHITECTURE = REPO_ROOT / "docs" / "architecture.md"

_TAG = re.compile(r"<!--\s*conformance:\s*([\w-]+)\s*-->")


def _conformance_tables() -> dict[str, list[dict[str, str]]]:
    """Parse every tagged table into a list of {column: cell} rows."""
    tables: dict[str, list[dict[str, str]]] = {}
    lines = PROTOCOL.read_text(encoding="utf-8").splitlines()
    index = 0
    while index < len(lines):
        match = _TAG.search(lines[index])
        if not match:
            index += 1
            continue
        name = match.group(1)
        index += 1
        while index < len(lines) and not lines[index].strip().startswith("|"):
            index += 1
        assert index < len(lines), f"conformance tag {name!r} has no table"
        header = [c.strip() for c in lines[index].strip().strip("|").split("|")]
        index += 2  # skip the |---| separator row
        rows = []
        while index < len(lines) and lines[index].strip().startswith("|"):
            cells = [
                c.strip().strip("`")
                for c in lines[index].strip().strip("|").split("|")
            ]
            rows.append(dict(zip(header, cells)))
            index += 1
        tables[name] = rows
    return tables


TABLES = _conformance_tables()

#: layout-table tag -> implemented struct (fixed prefix of the body)
LAYOUTS = {
    "frame-header": framing.FRAME_HEADER,
    "hello-body": framing.HELLO_BODY,
    "welcome-body": framing.WELCOME_BODY,
    "request-body": framing.REQUEST_BODY,
    "assignment-body": framing.ASSIGNMENT_BODY,
    "rejection-body": framing.REJECTION_BODY,
    "result-body": framing.RESULT_BODY,
    "result-ack-body": framing.RESULT_ACK_BODY,
    "overloaded-body": framing.OVERLOADED_BODY,
    "goodbye-body": framing.GOODBYE_BODY,
    "error-body": framing.ERROR_BODY,
    "blob-header": framing.BLOB_HEADER,
    "sparse-header": framing.SPARSE_HEADER,
}


class TestProtocolConformance:
    def test_every_layout_is_documented(self):
        for tag in LAYOUTS:
            assert tag in TABLES, f"protocol.md lacks a {tag!r} table"

    @pytest.mark.parametrize("tag", sorted(LAYOUTS))
    def test_declared_sizes_match_struct(self, tag):
        struct_obj = LAYOUTS[tag]
        rows = TABLES[tag]
        declared = sum(int(row["Size"]) for row in rows)
        assert declared == struct_obj.size, (
            f"{tag}: doc declares {declared} bytes, "
            f"struct packs {struct_obj.size}"
        )

    @pytest.mark.parametrize("tag", sorted(LAYOUTS))
    def test_offsets_are_contiguous(self, tag):
        offset = 0
        for row in TABLES[tag]:
            assert int(row["Offset"]) == offset, (
                f"{tag}: field {row['Field']} declared at {row['Offset']}, "
                f"previous fields end at {offset}"
            )
            offset += int(row["Size"])

    def test_constants(self):
        declared = {row["Constant"]: int(row["Value"], 0) for row in TABLES["constants"]}
        assert declared["MAGIC"] == framing.MAGIC
        assert declared["PROTOCOL_VERSION"] == framing.PROTOCOL_VERSION
        assert declared["DEFAULT_MAX_FRAME_BYTES"] == framing.DEFAULT_MAX_FRAME_BYTES

    def test_frame_type_codes(self):
        declared = {row["Name"]: int(row["Code"], 0) for row in TABLES["frame-types"]}
        implemented = {t.name: int(t) for t in framing.FrameType}
        assert declared == implemented

    def test_error_codes(self):
        declared = {row["Name"]: int(row["Code"], 0) for row in TABLES["error-codes"]}
        implemented = {e.name: int(e) for e in framing.ErrorCode}
        assert declared == implemented

    def test_overload_scopes(self):
        declared = {row["Name"]: int(row["Code"], 0) for row in TABLES["overload-scopes"]}
        implemented = {s.name: int(s) for s in framing.OverloadScope}
        assert declared == implemented

    def test_goodbye_reasons(self):
        declared = {row["Name"]: int(row["Code"], 0) for row in TABLES["goodbye-reasons"]}
        implemented = {r.name: int(r) for r in framing.GoodbyeReason}
        assert declared == implemented

    def test_rejection_codes(self):
        declared = {row["Name"]: int(row["Code"], 0) for row in TABLES["rejection-codes"]}
        implemented = {
            reason.name: code for reason, code in framing.REJECTION_CODE.items()
        }
        assert declared == implemented

    def test_dtype_codes(self):
        declared = {row["Name"]: int(row["Code"], 0) for row in TABLES["dtype-codes"]}
        implemented = dict(framing.DTYPE_CODE)
        implemented["sparse"] = framing.SPARSE_CODE
        assert declared == implemented

    def test_header_plus_body_roundtrip_matches_declared_total(self):
        """A concrete frame's bytes match header size + declared body."""
        frame = framing.pack_result_ack(seq=7, applied=True)
        header = sum(int(r["Size"]) for r in TABLES["frame-header"])
        body = sum(int(r["Size"]) for r in TABLES["result-ack-body"])
        assert len(frame) == header + body


class TestDocLinks:
    def test_readme_and_docs_links_resolve(self):
        findings = check_paths([REPO_ROOT / "README.md", REPO_ROOT / "docs"])
        assert not findings, "\n".join(str(f) for f in findings)

    def test_github_slugging(self):
        assert github_slug("1. Overview") == "1-overview"
        assert github_slug("Enforced invariants (repro-lint)") == (
            "enforced-invariants-repro-lint"
        )
        assert github_slug("§8 Graceful drain") == "8-graceful-drain"

    def test_duplicate_headings_get_suffixes(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("# Same\n\n# Same\n", encoding="utf-8")
        assert heading_slugs(doc) == {"same", "same-1"}

    def test_broken_link_is_reported(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("see [x](missing.md) and [y](#nope)\n# Real\n")
        findings = check_paths([doc])
        assert {f.target for f in findings} == {"missing.md", "#nope"}

    def test_code_fences_are_ignored(self, tmp_path):
        doc = tmp_path / "d.md"
        doc.write_text("```\n[x](missing.md)\n```\n")
        assert check_paths([doc]) == []


class TestLintRuleTable:
    def test_architecture_rule_table_lists_every_registered_rule(self):
        """docs/architecture.md §4 names exactly the rules repro-lint runs."""
        text = ARCHITECTURE.read_text(encoding="utf-8")
        section = text.split("## 4. ", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\|\s*(RPR\d{3})\s*\|", section, re.MULTILINE)
        assert len(documented) == len(set(documented))
        assert sorted(documented) == [code for code, _ in rule_table()]
