import hashlib
import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridparse import EmptyCategory, Location, MorphSegment, Phrase, generate
from hybridparse.corpus_io import (
    FeatureNotationError,
    TreebankDocument,
    TreebankFormatError,
    dumps_treebank,
    format_feature_line,
    parse_feature_line,
    parse_location,
    read_feature_notation,
    read_treebank,
    sentences_from_notation,
    write_treebank,
)
from hybridparse.graph import HybridGraph
from hybridparse.vocab import FEATURE_VALUES

from conftest import FIXTURES


def test_parse_location_examples():
    assert parse_location("(6:76)") == Location(6, 76)
    assert parse_location("(1:1:1)") == Location(1, 1, 1)
    assert parse_location("(4:68:1)") == Location(4, 68, 1)
    assert parse_location("(4:68:1:2)") == Location(4, 68, 1, 2)
    with pytest.raises(ValueError):
        parse_location("4:68")
    with pytest.raises(ValueError):
        parse_location("(4:x)")


def test_parse_feature_line_prefixed_preposition():
    segs = parse_feature_line(
        "[bi+ POS:N ACT PCPL (IV) LEM:muSorix ROOT:Srx M GEN PRON:2MP]",
        Location(70, 8, 3),
    )
    assert [s.pos for s in segs] == ["P", "N", "PRON"]
    prefix, stem, suffix = segs
    assert prefix.form == "bi"
    assert prefix.feature("SegType") == "prefix"
    assert stem.feature("Derivation") == "ACT PCPL"
    assert stem.feature("Form") == "IV"
    assert stem.lemma == "muSorix" and stem.root == "Srx"
    assert stem.feature("Gender") == "M" and stem.feature("Case") == "GEN"
    assert suffix.feature("Person") == "2"
    assert suffix.feature("Gender") == "M"
    assert suffix.feature("Number") == "P"
    assert suffix.feature("PronType") == "object"


def test_parse_feature_line_verb_with_two_prefixes():
    segs = parse_feature_line(
        "[w:CONJ+ l:EMPH+ POS:V PERF LEM:hadaY ROOT:hdy 1P PRON:3MP]",
        Location(4, 68, 1),
    )
    assert [s.pos for s in segs] == ["CONJ", "EMPH", "V", "PRON"]
    verb = segs[2]
    assert verb.feature("Aspect") == "PERF"
    assert verb.feature("Person") == "1" and verb.feature("Number") == "P"
    assert segs[3].feature("Person") == "3"
    assert [s.location.segment for s in segs] == [1, 2, 3, 4]


def test_parse_feature_line_bare_preposition():
    segs = parse_feature_line("[POS:P LEM:fiY]", Location(74, 42, 3))
    assert len(segs) == 1
    assert segs[0].pos == "P" and segs[0].lemma == "fiY"


def test_parse_feature_line_errors():
    with pytest.raises(FeatureNotationError) as exc:
        parse_feature_line("[POS:N WIBBLE]", Location(1, 1, 1))
    assert "WIBBLE" in str(exc.value)
    with pytest.raises(FeatureNotationError):
        parse_feature_line("[GEN POS:N]", Location(1, 1, 1))  # feature before segment
    with pytest.raises(FeatureNotationError):
        parse_feature_line("no brackets", Location(1, 1, 1))


def test_an_error_after_a_two_tag_value_reports_its_own_offset():
    """The offset of a tag is searched past both tags of the value before
    it, so a repeated second tag is not found inside that value."""
    with pytest.raises(FeatureNotationError) as exc:
        parse_feature_line("[POS:N ACT PCPL PCPL]", Location(1, 1, 1))
    assert str(exc.value) == "PCPL must follow ACT or PASS (tag 'PCPL' at offset 16)"


@pytest.mark.parametrize("line, message", [
    ("[POS:N NOM GEN]", "repeated feature key 'Case' (tag 'GEN' at offset 11)"),
    ("[POS:N LEM:a LEM:b]", "repeated feature key 'Lemma' (tag 'LEM:b' at offset 13)"),
    # A value of two tags is reported at its first tag.
    ("[POS:N PASS PCPL ACT PCPL]", "repeated feature key 'Derivation' (tag 'ACT' at offset 17)"),
    # A pronoun's tag sets its phi features, so a phi tag after it repeats them.
    ("[PRON:3MS 3MS]", "repeated feature key 'Person' (tag '3MS' at offset 10)"),
    # Each segment holds its own features: the second stem may set Case again.
    ("[POS:N NOM POS:N NOM NOM]", "repeated feature key 'Case' (tag 'NOM' at offset 21)"),
])
def test_a_repeated_feature_key_is_reported_at_its_second_tag(line, message):
    """The treebank reader rejects a repeated FEATS key; the notation
    reader rejects a key that a segment's tags set twice, naming it at the
    second tag, rather than keeping the last value."""
    with pytest.raises(FeatureNotationError) as exc:
        parse_feature_line(line, Location(1, 1, 1))
    assert str(exc.value) == message


def test_feature_line_roundtrip():
    line = "[bi+ POS:N ACT PCPL (IV) LEM:muSorix ROOT:Srx M GEN PRON:2MP]"
    segs = parse_feature_line(line, Location(70, 8, 3))
    assert format_feature_line(segs) == line


@settings(max_examples=20, deadline=None)
@given(
    st.tuples(
        st.integers(0, 10_000),
        st.sampled_from(("pure", "+phrases,+ellipsis,+disconnected", "+nonprojective")),
    )
)
@example((3, "+phrases,+ellipsis,+disconnected"))
@example("[POS:V MOOD:X]")
@example("[POS:V MOOD:]")
@example("[POS:N ACT PCPL PASS]")
def test_feature_line_roundtrip_keeps_every_tag(source):
    """Reading back what the writer wrote gives each segment of a token its
    POS, features, lemma and root, a prefix's included. The tokens are
    those of a generated corpus, given as (seed, profile), or the one token
    of a given line."""
    def tags(segments):
        return [(s.pos, s.features, s.lemma, s.root) for s in segments]

    if isinstance(source, str):
        token_lists = [parse_feature_line(source, Location(1, 1, 1))]
    else:
        seed, profile = source
        token_lists = []
        for graph in generate(seed, 6, profile).graphs:
            tokens: dict = {}
            for segment in graph.segments:
                tokens.setdefault(segment.location[:3], []).append(segment)
            token_lists.extend(tokens.values())
    for segments in token_lists:
        line = format_feature_line(segments)
        assert tags(parse_feature_line(line, segments[0].location)) == tags(segments), line


def test_read_table_8_2_rows():
    graph = read_treebank((FIXTURES / "table_8_2.conllx").read_text("utf-8")).graphs[0]
    assert len(graph.terminals) == 5
    assert isinstance(graph.terminals[1], EmptyCategory)
    assert graph.terminals[1].pos == "PRON"
    ns = next(iter(graph.phrases))
    assert (ns.start, ns.end, ns.tag) == (2, 4, "NS")
    relations = sorted(e.relation for e in graph.edges)
    assert relations == ["obj", "poss", "pred", "subj"]
    # the NS phrase is the object of the verb
    obj = next(e for e in graph.edges if e.relation == "obj")
    assert isinstance(obj.dependent, Phrase) and obj.head == 0


def test_read_headless_marks():
    text = (
        "1\tT\t_\tqaAla\tV\t_\t–\t_\n"
        "2\tT\t_\tman\tCOND\t_\t-\t_\n"
        "3\tT\t_\thuwa\tPRON\t_\t0\t_\n\n"
    )
    doc = read_treebank(text)
    assert len(doc.graphs[0].edges) == 0
    assert dumps_treebank(doc).count("\t_\t_\n") == 3


def test_empty_stream():
    assert len(read_treebank("")) == 0


def test_malformed_row_reports_line():
    with pytest.raises(TreebankFormatError) as exc:
        read_treebank("1\tT\tqaAla\n")
    assert exc.value.line == 1
    with pytest.raises(TreebankFormatError) as exc:
        read_treebank("1\tT\t_\tqaAla\tV\t_\t9\tsubj\n\n")
    assert "dangling" in str(exc.value)


def test_extent_out_of_bounds():
    text = "1\tT\t_\tqaAla\tV\t_\t_\t_\n2\tP\t1-4\t_\tNS\t_\t_\t_\n\n"
    with pytest.raises(TreebankFormatError):
        read_treebank(text)


def test_unknown_relation_rejected():
    text = (
        "1\tT\t_\ta\tN\t_\t2\tfrobnicate\n"
        "2\tT\t_\tb\tV\t_\t_\t_\n\n"
    )
    with pytest.raises(TreebankFormatError):
        read_treebank(text)


def test_cyclic_treebank_reports_the_first_sorted_cycle():
    text = (
        "1\tT\t_\ta\tN\t_\t2\tsubj\n"
        "2\tT\t_\tb\tN\t_\t1\tobj\n"
        "3\tT\t_\tc\tN\t_\t2\tadj\n\n"
    )
    with pytest.raises(TreebankFormatError) as exc:
        read_treebank(text)
    assert str(exc.value) == "line 4: invalid graph: acyclicity: cycle through 0"


def test_roundtrip_byte_identity_on_synth():
    doc = generate(13, 40, "+phrases,+ellipsis,+disconnected")
    text = dumps_treebank(doc)
    doc2 = read_treebank(text)
    assert dumps_treebank(doc2) == text
    assert list(doc.graphs) == list(doc2.graphs)


def test_read_write_read_idempotent():
    # hand-written, non-canonical spacing of metadata
    text = (
        "# location = (9:9)\n"
        "# a comment\n"
        "1\tT\t_\tqaAla\tV\tloc=9:9:1:1|SegType=stem\t–\t_\n"
        "2\tE\t_\thuwa\tPRON\t_\t1\tsubj\n"
        "\n"
    )
    once = dumps_treebank(read_treebank(text))
    twice = dumps_treebank(read_treebank(once))
    assert once == twice


def test_comments_preserved():
    doc = generate(3, 2, "pure")
    doc.metadata[0].comments.append("checked by hand")
    text = dumps_treebank(doc)
    assert "# checked by hand" in text
    again = read_treebank(text)
    assert again.metadata[0].comments == ["checked by hand"]


def test_write_to_stream():
    doc = generate(1, 1, "pure")
    buf = io.StringIO()
    write_treebank(doc, buf)
    assert buf.getvalue().endswith("\n\n")


def _segment(form="kitAb", lemma="kitAb", root="ktb") -> MorphSegment:
    return MorphSegment(Location(1, 1, 1), form, "N", (("SegType", "stem"),), lemma, root)


def _document(terminal) -> TreebankDocument:
    return TreebankDocument([HybridGraph((terminal,), frozenset(), frozenset())])


@pytest.mark.parametrize("terminal, message", [
    (_segment(lemma=""), "cannot write Lemma='' losslessly"),
    (_segment(root=""), "cannot write Root='' losslessly"),
    (_segment(lemma="a|b"), "cannot write Lemma='a|b' losslessly"),
    (_segment(root="k|t=b"), "cannot write Root='k|t=b' losslessly"),
    (_segment(form="a\tb"), "cannot write form='a\\tb' losslessly"),
    (_segment(form="a\nb"), "cannot write form='a\\nb' losslessly"),
    (_segment(form="a\rb"), "cannot write form='a\\rb' losslessly"),
    (_segment(lemma="a\tb"), "cannot write Lemma='a\\tb' losslessly"),
    (_segment(lemma="a\nb"), "cannot write Lemma='a\\nb' losslessly"),
    (_segment(root="a\tb"), "cannot write Root='a\\tb' losslessly"),
    (_segment(root="a\nb"), "cannot write Root='a\\nb' losslessly"),
    (EmptyCategory("PRON", "hu\twa"), "cannot write form='hu\\twa' losslessly"),
], ids=["empty-lemma", "empty-root", "lemma-bar", "root-bar", "form-tab", "form-newline",
        "form-return", "lemma-tab", "lemma-newline", "root-tab", "root-newline",
        "empty-category-tab"])
def test_the_writer_refuses_a_segment_it_cannot_read_back(terminal, message):
    """Written as text, each of these terminals would read back changed (an
    empty lemma or root as None; "k|t=b" as the root "k" and a feature t)
    or not at all (a "|" without "=", a tab or a line break in a row). The
    unaltered segment reads back equal."""
    with pytest.raises(TreebankFormatError) as exc:
        dumps_treebank(_document(terminal))
    assert str(exc.value) == message
    doc = _document(_segment())
    assert read_treebank(dumps_treebank(doc)).graphs == doc.graphs


def test_feature_notation_file():
    text = (
        "(4:68:1) [w:CONJ+ l:EMPH+ POS:V PERF LEM:hadaY ROOT:hdy 1P PRON:3MP]\n"
        "(4:68:2) [POS:N LEM:Sira`T ROOT:SrT M INDEF ACC]\n"
        "(4:69:1) [POS:P LEM:fiY]\n"
    )
    entries = read_feature_notation(text)
    assert len(entries) == 3
    sentences = sentences_from_notation(entries)
    assert len(sentences) == 2
    assert len(sentences[0]) == 5  # four segments + noun
    assert sentences[0][0].location == Location(4, 68, 1, 1)


def test_feature_notation_error_line():
    with pytest.raises(TreebankFormatError) as exc:
        read_feature_notation("(1:1:1) [POS:N]\nbroken line\n")
    assert exc.value.line == 2


# Tags the notation reader accepts, and tags it must reject, drawn at random
# into lines of zero to seven tags by ``_notation_lines``.
NOTATION_TAGS = (
    "w:CONJ+", "f:REM+", "l:EMPH+", "Al+", "bi+", "ka+", "sa+", "ya+", "ha+", ":N+",
    "qq+", "x:ZZ+", "+", "POS:N", "POS:V", "POS:PN", "POS:ZZ", "PRON:3MP", "PRON:1S",
    "+PRON:2FS", "PRON:D", "PRON:", "PRON:4Q", "+VOC", "+n:EMPH", "LEM:hadaY", "LEM:",
    "ROOT:hdy", "SP:kaAn", "MOOD:SUBJ", "MOOD:PERF", "MOOD:", "ACT", "PASS", "PCPL",
    "VN", "(IV)", "(XIII)", "NOM", "GEN", "JUS", "IND", "IMPF", "IMPV", "INDEF",
    "1P", "3MS", "F", "D", "WIBBLE", "MS3",
)

# sha256 of ``_notation_outcomes`` over 20,000 lines of seed 26, computed
# once the reader rejected an empty lemma or root. Of the outcomes pinned when
# it rejected a repeated feature key, 575 changed: 153 lines read before, 90
# failed on a later tag, and 332 failed on the same tag with another message
# (331 "feature tag before any segment", one a repeated Lemma key).
NOTATION_SHA256 = "010e97bc8a293d8b571bcf8563a50736b761e9578be709aa4baf49eb3d0064dc"


def _notation_lines(seed: int, count: int) -> list:
    """Random bracketed lines of tags from ``NOTATION_TAGS``; one in fifty
    lacks a bracket."""
    rng = random.Random(seed)
    lines = []
    for _ in range(count):
        line = "[" + " ".join(rng.choice(NOTATION_TAGS) for _ in range(rng.randint(0, 7))) + "]"
        if rng.random() < 0.02:
            line = line[1:] if rng.random() < 0.5 else line[:-1]
        lines.append(line)
    return lines


def _notation_outcomes(lines) -> str:
    """One line per input: the segments read, or the error's type and message."""
    out = []
    for line in lines:
        try:
            out.append(repr(parse_feature_line(line, Location(1, 2, 3))))
        except FeatureNotationError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(out)


def test_notation_reader_is_pinned():
    text = _notation_outcomes(_notation_lines(26, 20_000))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == NOTATION_SHA256


def _segment(pos="N", lemma=None, root=None, **features) -> MorphSegment:
    features.setdefault("SegType", "stem")
    return MorphSegment(Location(1, 1, 1), "w", pos, features, lemma, root)


@pytest.mark.parametrize(
    "segment, message",
    [
        # A bare value outside the inventory reads back as an unknown tag.
        (_segment(Case="XYZ"), "cannot write Case='XYZ' losslessly"),
        # MOOD:x of an Aspect value reads back as Aspect.
        (_segment("V", Mood="PERF"), "cannot write Mood='PERF' losslessly"),
        # A bare value of another key reads back under that key.
        (_segment(Case="ACT"), "cannot write Case='ACT' losslessly"),
        (_segment(Person="4"), "cannot write Person='4' losslessly"),
        (_segment("V", Form="XIII"), "cannot write Form='XIII' losslessly"),
        # A tag of two tokens, and features the notation has no tag for.
        (_segment(SP="kaAn laysa"), "cannot write SP='kaAn laysa' losslessly"),
        (_segment(Ref="1"), "cannot write Ref='1' losslessly"),
        (_segment("PRON", PronType="subject"), "cannot write PronType='subject' losslessly"),
        (_segment(SegType="clitic"), "cannot write SegType='clitic' losslessly"),
        (_segment(lemma="two words"), "cannot write Lemma='two words' losslessly"),
        (_segment(root=""), "cannot write Root='' losslessly"),
        # A prefix carries only its lemma and root, a suffix neither.
        (_segment("CONJ", SegType="prefix", Case="NOM"), "cannot write Case='NOM' losslessly"),
        (
            _segment("PRON", lemma="hu", SegType="suffix", PronType="object", Person="3"),
            "cannot write Lemma='hu' losslessly",
        ),
        (
            _segment("PRON", SegType="suffix", PronType="object"),
            "cannot write a pronoun suffix without Person, Gender or Number",
        ),
    ],
)
def test_the_writer_refuses_a_value_it_cannot_write_back(segment, message):
    with pytest.raises(FeatureNotationError) as exc:
        format_feature_line([segment])
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "segments, line",
    [
        ([_segment(Case="GEN")], "[POS:N GEN]"),
        ([_segment("V", Mood="X")], "[POS:V MOOD:X]"),
        ([_segment("V", Mood="")], "[POS:V MOOD:]"),
        ([_segment("V", Form="IV", SP="")], "[POS:V (IV) SP:]"),
        ([_segment("PRON", SegType="suffix", PronType="object", Person="3")], "[PRON:3]"),
        ([_segment("PRON", SegType="suffix", Number="P")], "[PRON:P]"),
        ([_segment("CONJ", lemma="wa", SegType="prefix")], "[w:CONJ+ LEM:wa]"),
    ],
)
def test_the_writer_writes_what_reads_back(segments, line):
    assert format_feature_line(segments) == line


def _read(line: str):
    """The (POS, features) of each segment of ``line``, or the error."""
    try:
        return [(s.pos, dict(s.features)) for s in parse_feature_line(line, Location(1, 1, 1))]
    except FeatureNotationError as exc:
        return str(exc)


@pytest.mark.parametrize("first, at", [("ACT", 16), ("PASS", 17)])
def test_a_two_tag_value_before_each_kind_of_tag(first, at):
    """A two-tag value followed by a new segment, a phi tag, a case, a
    second PCPL or an unknown tag; the offset of a rejected tag is past
    both tags of the value."""
    value = f"{first} PCPL"
    noun = {"SegType": "stem", "Derivation": value}
    pronoun = {
        "SegType": "suffix", "PronType": "object", "Person": "3", "Gender": "M", "Number": "S",
    }
    assert _read(f"[POS:N {value} POS:V]") == [("N", noun), ("V", {"SegType": "stem"})]
    assert _read(f"[POS:N {value} +PRON:3MS]") == [("N", noun), ("PRON", pronoun)]
    assert _read(f"[POS:N {value} 3FS]") == [
        ("N", {**noun, "Person": "3", "Gender": "F", "Number": "S"})
    ]
    assert _read(f"[POS:N {value} GEN]") == [("N", {**noun, "Case": "GEN"})]
    assert _read(f"[POS:N {value} ACT]") == [("N", {**noun, "Voice": "ACT"})]
    assert _read(f"[POS:N {value} PCPL]") == (
        f"PCPL must follow ACT or PASS (tag 'PCPL' at offset {at})"
    )
    assert _read(f"[POS:N {value} XYZ]") == f"unknown tag (tag 'XYZ' at offset {at})"


@pytest.mark.parametrize(
    "line, message",
    [
        ("[POS:N LEM:]", "empty lemma (tag 'LEM:' at offset 7)"),
        ("[POS:N ROOT:]", "empty root (tag 'ROOT:' at offset 7)"),
        ("[POS:N LEM:kitaAb ROOT:]", "empty root (tag 'ROOT:' at offset 18)"),
        ("[w:CONJ+ LEM: POS:V]", "empty lemma (tag 'LEM:' at offset 9)"),
        # The value is checked before the tag's place in the line.
        ("[ROOT:]", "empty root (tag 'ROOT:' at offset 1)"),
    ],
)
def test_the_reader_rejects_an_empty_lemma_or_root(line, message):
    """The writer refuses an empty lemma or root, so the reader does too."""
    assert _read(line) == message


@pytest.mark.parametrize("line", ["[POS:V MOOD:]", "[POS:V (IV) SP:]"])
def test_an_empty_mood_or_sp_value_round_trips(line):
    assert format_feature_line(parse_feature_line(line, Location(1, 1, 1))) == line



# Each key's values the notation can carry, and others it cannot.
_WRITABLE = {
    **{key: values for key, values in FEATURE_VALUES.items() if values},
    "Form": ("IV", "X"), "SP": ("kaAn", ""), "Mood": ("IND", "X", ""), "Ref": ("1",),
}
_UNWRITABLE = ("XYZ", "PERF", "ACT", "GEN", "3", "IV", "a b", "")


def _feature(key: str):
    return st.tuples(
        st.just(key),
        st.integers(0, 7).flatmap(
            lambda r: st.sampled_from(_UNWRITABLE if r == 0 else _WRITABLE[key])
        ),
    )


@settings(max_examples=500, deadline=None)
@given(
    st.lists(
        st.builds(
            lambda pos, features, lemma, root, form: MorphSegment(
                Location(1, 1, 1), form, pos, features, lemma, root
            ),
            st.sampled_from(["N", "V", "PRON", "CONJ", "P", "VOC", "EMPH"]),
            st.lists(st.sampled_from(sorted(_WRITABLE)), unique=True, max_size=4).flatmap(
                lambda keys: st.tuples(*map(_feature, keys))
            ),
            st.sampled_from([None, None, "wa", "", "a b"]),
            st.sampled_from([None, None, "ktb", ""]),
            st.sampled_from(["w", "bi", "ya"]),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_the_writer_writes_back_every_tag_or_refuses(segments):
    """Whatever the segments, the line written reads back with each
    segment's POS, features, lemma and root, or the writer raises
    FeatureNotationError. The reader gives a stem SegType=stem, and a
    pronoun suffix PronType=object, when the segment has none."""
    try:
        line = format_feature_line(segments)
    except FeatureNotationError:
        return

    def written(s):
        implied = {"SegType": "stem"}
        if s.feature("SegType") == "suffix" and s.pos == "PRON":
            implied["PronType"] = "object"
        return (s.pos, {**implied, **dict(s.features)}, s.lemma, s.root)

    back = parse_feature_line(line, Location(1, 1, 1))
    assert [(s.pos, dict(s.features), s.lemma, s.root) for s in back] == list(
        map(written, segments)
    ), line
