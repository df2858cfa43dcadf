import logging
import random

import pytest

from iconclassify.errors import (
    DuplicateCodeError,
    MalformedCodeError,
    MalformedLineError,
    MissingAncestorError,
)
from iconclassify.taxonomy import (
    DatabaseKind,
    IconclassCode,
    common_depth,
    iter_jsonl,
    load_taxonomy,
    parent_chain,
    parse_code,
    render_basic_doc,
    render_doc,
    render_hierarchical_doc,
    truncate_code,
)

from conftest import random_code_text


# ---------------------------------------------------------------- parsing

def test_parse_six_rung_ladder():
    code = parse_code("73D231")
    assert code.segments == ("7", "73", "73D", "73D2", "73D23", "73D231")
    assert code.levels == 6
    assert code.top == "7"


def test_parse_named_qualifier_is_one_level():
    code = parse_code("11H(PAUL)4")
    assert code.segments == ("1", "11", "11H", "11H(PAUL)", "11H(PAUL)4")


def test_parse_key_expands_per_character():
    code = parse_code("73D231(+34)")
    assert code.segments == (
        "7", "73", "73D", "73D2", "73D23", "73D231", "73D231(+3)", "73D231(+34)",
    )


def test_parse_qualifier_then_key():
    code = parse_code("11H(PAUL)(+3)")
    assert code.segments[-3:] == ("11H", "11H(PAUL)", "11H(PAUL)(+3)")


def test_parse_strips_whitespace():
    assert parse_code("  73D2\n").raw == "73D2"


def test_parse_single_level():
    assert parse_code("7").segments == ("7",)


@pytest.mark.parametrize("bad", [
    "",
    "   ",
    "D73",          # must start with a digit
    "73d2",         # lowercase outside parentheses
    "73 D2",        # embedded whitespace
    "73D2()",       # empty qualifier
    "73D2(+)",      # empty key
    "73D2(",        # unbalanced open
    "73D2)",        # unbalanced close
    "73D2(A(B))",   # nested parenthesis
    "73-D2",        # punctuation outside parentheses
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(MalformedCodeError):
        parse_code(bad)


def test_every_segment_reparses_to_its_own_ladder():
    code = parse_code("11H(PAUL)(+35)")
    for i, seg in enumerate(code.segments):
        again = parse_code(seg)
        assert again.raw == seg
        assert again.segments == code.segments[: i + 1]


# ---------------------------------------------------------- chain operations

def test_parent_chain_of_ladder():
    chain = parent_chain(parse_code("73D231"))
    assert [c.raw for c in chain] == ["7", "73", "73D", "73D2", "73D23", "73D231"]
    assert all(isinstance(c, IconclassCode) for c in chain)


def test_parent_chain_of_root_is_itself():
    chain = parent_chain(parse_code("7"))
    assert [c.raw for c in chain] == ["7"]


def test_common_depth_partial_overlap():
    assert common_depth(parse_code("71H14"), parse_code("71H1442")) == 5


def test_common_depth_identity_and_disjoint():
    code = parse_code("73D231")
    assert common_depth(code, code) == 6
    assert common_depth(parse_code("11A"), parse_code("73D231")) == 0


def test_common_depth_counts_whole_qualifier():
    # differing qualifiers diverge at the qualifier level, not inside it
    a = parse_code("11H(PAUL)")
    b = parse_code("11H(PETER)")
    assert common_depth(a, b) == 3


def test_truncate_examples():
    code = parse_code("71H1442")
    assert truncate_code(code, 0) is code
    assert truncate_code(code, 2).raw == "71H14"
    assert truncate_code(code, 99).raw == "7"  # floor at one level
    with pytest.raises(ValueError):
        truncate_code(code, -1)


def _increment_join(code: IconclassCode) -> str:
    """Rebuild the raw notation from per-level increments. A key segment's
    stem drops the closing parenthesis, which the next increment supplies."""
    def is_key(seg: str) -> bool:
        if not seg.endswith(")"):
            return False
        open_at = seg.rindex("(")
        return seg[open_at : open_at + 2] == "(+"

    def stem(seg: str) -> str:
        return seg[:-1] if is_key(seg) else seg

    segs = code.segments
    out = []
    prev = ""
    for i, seg in enumerate(segs):
        target = seg if i == len(segs) - 1 else stem(seg)
        assert target.startswith(prev)
        out.append(target[len(prev):])
        prev = stem(seg)
    return "".join(out)


def test_parser_properties_random_codes():
    rng = random.Random(20240817)
    for _ in range(400):
        raw = random_code_text(rng, qualifier_p=0.35, key_p=0.35)
        code = parse_code(raw)
        assert code.raw == raw
        assert code.segments[-1] == raw
        # chain length equals level count; every element reparses to itself
        chain = parent_chain(code)
        assert len(chain) == code.levels
        for i, elem in enumerate(chain):
            assert parse_code(elem.raw).segments == code.segments[: i + 1]
        # joining per-level increments reproduces the raw notation
        assert _increment_join(code) == raw
        # truncation composes and floors
        k = rng.randint(0, code.levels + 2)
        cut = truncate_code(code, k)
        assert cut.levels == max(1, code.levels - k)
        assert truncate_code(cut, 0).raw == cut.raw


def test_common_depth_properties_random_pairs():
    rng = random.Random(7)
    for _ in range(300):
        a = parse_code(random_code_text(rng, qualifier_p=0.2, key_p=0.2))
        b = parse_code(random_code_text(rng, qualifier_p=0.2, key_p=0.2))
        d = common_depth(a, b)
        assert d == common_depth(b, a)
        assert 0 <= d <= min(a.levels, b.levels)
        if d:
            assert a.segments[d - 1] == b.segments[d - 1]
        if d < min(a.levels, b.levels):
            assert a.segments[d] != b.segments[d]


# ---------------------------------------------------------------- loading

def test_load_three_line_fixture_filters_to_two():
    lines = ["7\tBible", "73\tNew Testament", "25F\tanimals"]
    tax = load_taxonomy(lines)
    assert len(tax) == 2
    assert "7" in tax and "73" in tax and "25F" not in tax
    assert tax.stats.kept == 2
    assert tax.stats.filtered == 1
    assert tax.stats.lines == 3


def test_load_without_filter_keeps_everything():
    tax = load_taxonomy(["7\tBible", "25F\tanimals"], prefix_filter=None)
    assert len(tax) == 2


def test_load_jsonl_records():
    lines = ['{"code": "73D", "txt": "Passion of Christ"}']
    tax = load_taxonomy(lines)
    entry = tax.get("73D")
    assert entry is not None
    assert entry.text == "Passion of Christ"


def test_load_rejects_duplicates():
    with pytest.raises(DuplicateCodeError):
        load_taxonomy(["7\tBible", "7\tBible again"])


def test_load_reports_line_numbers():
    with pytest.raises(MalformedLineError) as err:
        load_taxonomy(["7\tBible", "", "not a record"])
    assert err.value.line_no == 3


def test_load_rejects_empty_description():
    with pytest.raises(MalformedLineError):
        load_taxonomy(["7\t   "])


def test_load_empty_source_warns(caplog):
    with caplog.at_level(logging.WARNING):
        tax = load_taxonomy([])
    assert len(tax) == 0
    assert any("empty" in rec.message for rec in caplog.records)


def test_load_trims_description_whitespace():
    tax = load_taxonomy(["7\t  Bible  "])
    assert tax.get("7").text == "Bible"


def test_load_from_file(fixtures_dir):
    tax = load_taxonomy(fixtures_dir / "taxonomy.tsv")
    assert len(tax) == 50
    assert tax.stats.filtered == 2


def test_iter_jsonl_skips_blank_lines_but_counts_them(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n   \n{"b": 2}\r\n{"c": 3}')
    assert list(iter_jsonl(path)) == [(1, {"a": 1}), (4, {"b": 2}), (5, {"c": 3})]


@pytest.mark.parametrize("bad, reason", [
    ('[1, 2]', "expected a JSON object"),
    ('"text"', "expected a JSON object"),
    ('{"cut": ', "invalid JSON"),
    ('not json', "invalid JSON"),
])
def test_iter_jsonl_rejects_a_line_that_is_not_an_object(tmp_path, bad, reason):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n' + bad + '\n{"b": 2}\n')
    with pytest.raises(MalformedLineError) as info:
        list(iter_jsonl(path))
    assert info.value.line_no == 3
    assert str(info.value).startswith(f"line 3: {path}: {reason}")


def test_iter_jsonl_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"a": 1}\n{"b": "\xff"}\n')
    with pytest.raises(MalformedLineError, match="line 2: .*not UTF-8"):
        list(iter_jsonl(path))


# --------------------------------------------------------------- rendering

def test_basic_rendering_is_own_description(fixtures_dir):
    tax = load_taxonomy(fixtures_dir / "taxonomy.tsv")
    entry = tax.get("71B32")
    assert render_basic_doc(entry) == "the building of the ark, and the embarkation (Genesis 7:5-9)"


def test_hierarchical_rendering_joins_ancestors(fixtures_dir):
    tax = load_taxonomy(fixtures_dir / "taxonomy.tsv")
    entry = tax.get("71B32")
    assert render_hierarchical_doc(entry, tax) == (
        "Bible; Old Testament; Genesis from the descendants of Cain and Seth to Abraham; "
        "story of Noah; the building of the ark, and the embarkation (Genesis 7:5-9)"
    )


def test_hierarchical_rendering_of_root_is_own_text(fixtures_dir):
    tax = load_taxonomy(fixtures_dir / "taxonomy.tsv")
    assert render_hierarchical_doc(tax.get("7"), tax) == "Bible"


def test_hierarchical_rendering_single_parent():
    tax = load_taxonomy(["7\tBible", "73\tNew Testament"])
    assert render_hierarchical_doc(tax.get("73"), tax) == "Bible; New Testament"


def test_hierarchical_rendering_missing_ancestors():
    tax = load_taxonomy(["7\tBible", "73D\tPassion of Christ"])
    with pytest.raises(MissingAncestorError) as err:
        render_hierarchical_doc(tax.get("73D"), tax)
    assert err.value.missing == ["73"]


def test_hierarchical_ends_with_basic_everywhere(fixtures_dir):
    tax = load_taxonomy(fixtures_dir / "taxonomy.tsv")
    for entry in tax:
        basic = render_doc(entry, tax, DatabaseKind.BASIC)
        full = render_doc(entry, tax, DatabaseKind.HIERARCHICAL)
        assert full.endswith(basic)
        assert full.count("; ") >= entry.code.levels - 1
