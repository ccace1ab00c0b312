"""Treebank serialization and the bracketed morphology notation.

Extended CoNLL-X, tab separated, one node per line:

    ID  TYPE  EXTENT  FORM  POSTAG  FEATS  HEAD  DEPREL

TYPE is T (segment), E (empty category) or P (phrase). EXTENT is "i-j"
for P rows, FEATS packs key=value pairs joined by "|" (including the
segment location as loc=c:v:t:s), HEAD is a node id or "_". A blank line
ends a graph; "#" lines carry per-graph metadata and comments.

Feature-notation input is one bracketed tag line per token, preceded by
the token's location:

    (4:68:1) [w:CONJ+ l:EMPH+ POS:V PERF LEM:hadaY ROOT:hdy 1P PRON:3MP]

A segment starts at an ``X+`` prefix, ``POS:``, ``PRON:`` or a suffix tag
(``+VOC``, ``+n:EMPH``); every other tag adds to the segment before it. The
values are those of ``vocab.FEATURE_VALUES``: a bare tag, or two as in ``ACT
PCPL``, is a value of Derivation, Voice, Aspect, Mood, State or Case, and
person, gender and number run together in one tag (``1P``). ``MOOD:x`` sets
Aspect when x is an Aspect value, else Mood. The writer uses the same tables,
and raises ``FeatureNotationError`` for a feature, lemma or root that its
tags would drop or that would read back as something else.
"""

from __future__ import annotations

import io
import re
from typing import Iterable, List, Optional, TextIO, Union

from .graph import (
    Edge,
    EmptyCategory,
    HybridGraph,
    Location,
    MorphSegment,
    Phrase,
    _Record,
)
from .vocab import DEFAULT_TAGS, FEATURE_ORDER, FEATURE_VALUES, TagSet


class TreebankFormatError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class FeatureNotationError(Exception):
    def __init__(self, message: str, tag: str = "", offset: Optional[int] = None):
        self.tag = tag
        self.offset = offset
        if offset is not None:
            message = f"{message} (tag {tag!r} at offset {offset})"
        super().__init__(message)


LOCATION_RE = re.compile(r"^\((\d+):(\d+)(?::(\d+))?(?::(\d+))?\)$")


def parse_location(text: str) -> Location:
    match = LOCATION_RE.match(text.strip())
    if not match:
        raise ValueError(f"malformed location {text!r}")
    chapter, verse, token, segment = match.groups()
    return Location(
        int(chapter), int(verse), int(token) if token else 1, int(segment) if segment else 1
    )


class GraphMetadata(_Record):
    _fields = ("location", "comments")

    def __init__(self, location: str = "", comments: Optional[list] = None):
        self.location = location
        self.comments = [] if comments is None else comments


class TreebankDocument(_Record):
    _fields = ("graphs", "metadata")

    def __init__(
        self,
        graphs: Optional[List[HybridGraph]] = None,
        metadata: Optional[List[GraphMetadata]] = None,
    ):
        self.graphs = [] if graphs is None else graphs
        self.metadata = [] if metadata is None else metadata

    def __len__(self):
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)


# ---------------------------------------------------------------------------
# Extended CoNLL-X
# ---------------------------------------------------------------------------

HEADLESS_MARKS = {"_", "-", "–", "0"}


def _parse_feats(text: str, line_no: int) -> tuple:
    features = []
    lemma = root = None
    location = None
    is_reference = False
    if text != "_":
        seen = set()
        for item in text.split("|"):
            if "=" not in item:
                raise TreebankFormatError(f"malformed FEATS item {item!r}", line_no)
            key, value = item.split("=", 1)
            if key in seen:
                raise TreebankFormatError(f"repeated FEATS key {key!r}", line_no)
            seen.add(key)
            if key == "loc":
                try:
                    location = parse_location(f"({value})")
                except ValueError as exc:
                    raise TreebankFormatError(str(exc), line_no)
            elif key == "Lemma":
                lemma = value
            elif key == "Root":
                root = value
            elif key == "Ref":
                is_reference = value == "yes"
            else:
                features.append((key, value))
    return tuple(features), lemma, root, location, is_reference


def _writable(name: str, value: str, item: bool = False) -> str:
    """``value``, if ``read_treebank`` reads it back as written: with no tab
    or line break (a file read with universal newlines ends a line at a
    carriage return) and, as a FEATS item's value (``item``), not empty,
    which reads back as absent, and with no "|"."""
    if "\t" in value or "\n" in value or "\r" in value or item and (not value or "|" in value):
        raise TreebankFormatError(f"cannot write {name}={value!r} losslessly")
    return value


def _feats_column(segment: MorphSegment) -> str:
    loc = segment.location
    items = [f"loc={loc.chapter}:{loc.verse}:{loc.token}:{loc.segment}"]
    feat_map = segment.feature_map
    for key in FEATURE_ORDER:
        if key in feat_map:
            items.append(f"{key}={feat_map[key]}")
    for key in sorted(feat_map):
        if key not in FEATURE_ORDER:
            items.append(f"{key}={feat_map[key]}")
    if segment.lemma is not None:
        items.append(f"Lemma={_writable('Lemma', segment.lemma, True)}")
    if segment.root is not None:
        items.append(f"Root={_writable('Root', segment.root, True)}")
    if segment.is_reference:
        items.append("Ref=yes")
    return "|".join(items)


def read_treebank(stream: Union[TextIO, str], tags: TagSet = DEFAULT_TAGS) -> TreebankDocument:
    """Parse an extended CoNLL-X stream into validated hybrid graphs."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    doc = TreebankDocument()
    rows: list = []
    meta = GraphMetadata()

    def flush(line_no: int):
        nonlocal rows, meta
        if rows:
            doc.graphs.append(_rows_to_graph(rows, tags, line_no))
            doc.metadata.append(meta)
        rows = []
        meta = GraphMetadata()

    line_no = 0
    for line_no, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush(line_no)
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("location"):
                _, _, value = body.partition("=")
                meta.location = value.strip()
            else:
                meta.comments.append(body)
            continue
        cols = line.split("\t")
        if len(cols) != 8:
            raise TreebankFormatError(
                f"expected 8 tab-separated columns, found {len(cols)}", line_no
            )
        rows.append((line_no, cols))
    flush(line_no + 1)
    return doc


def _rows_to_graph(rows: list, tags: TagSet, end_line: int) -> HybridGraph:
    terminals: list = []
    phrases: dict = {}
    links: list = []
    id_to_node: dict = {}
    graph_loc: Optional[Location] = None
    for line_no, cols in rows:
        node_id, node_type, extent, form, postag, feats, head, deprel = cols
        try:
            nid = int(node_id)
        except ValueError:
            raise TreebankFormatError(f"bad node id {node_id!r}", line_no)
        if node_type == "T":
            features, lemma, root, loc, is_ref = _parse_feats(feats, line_no)
            if loc is None:
                graph_loc = graph_loc or Location(1, 1)
                loc = Location(graph_loc.chapter, graph_loc.verse, len(terminals) + 1)
            else:
                graph_loc = graph_loc or loc
            if not tags.is_pos(postag):
                raise TreebankFormatError(f"unknown POS tag {postag!r}", line_no)
            terminals.append(
                MorphSegment(loc, form, postag, features, lemma, root, is_ref)
            )
            id_to_node[nid] = len(terminals) - 1
        elif node_type == "E":
            if not tags.is_pos(postag):
                raise TreebankFormatError(f"unknown POS tag {postag!r}", line_no)
            if form in ("", "_"):
                raise TreebankFormatError("empty category requires a form", line_no)
            terminals.append(EmptyCategory(postag, form))
            id_to_node[nid] = len(terminals) - 1
        elif node_type == "P":
            match = re.match(r"^(\d+)-(\d+)$", extent)
            if not match:
                raise TreebankFormatError(f"bad extent {extent!r}", line_no)
            if not tags.is_phrase_tag(postag):
                raise TreebankFormatError(f"unknown phrase tag {postag!r}", line_no)
            start, end = int(match.group(1)), int(match.group(2))
            phrases[nid] = (start, end, postag, line_no)
            id_to_node[nid] = None  # resolved after terminals are known
        else:
            raise TreebankFormatError(f"unknown node type {node_type!r}", line_no)
        if head not in HEADLESS_MARKS:
            links.append((line_no, nid, head, deprel))
    # Resolve phrase spans: extents are 1-based terminal ids.
    n_terms = len(terminals)
    for nid, (start, end, tag, line_no) in phrases.items():
        if not (1 <= start <= end <= n_terms):
            raise TreebankFormatError(f"extent {start}-{end} out of bounds", line_no)
        id_to_node[nid] = Phrase(start - 1, end - 1, tag)
    edges = []
    for line_no, nid, head, deprel in links:
        try:
            head_id = int(head)
        except ValueError:
            raise TreebankFormatError(f"bad head reference {head!r}", line_no)
        if head_id not in id_to_node:
            raise TreebankFormatError(f"dangling head reference {head}", line_no)
        if deprel in HEADLESS_MARKS or not deprel:
            raise TreebankFormatError("edge requires a relation label", line_no)
        try:
            edges.append(Edge(id_to_node[nid], id_to_node[head_id], deprel))
        except ValueError as exc:
            raise TreebankFormatError(str(exc), line_no)
    graph = HybridGraph(tuple(terminals), frozenset(id_to_node[n] for n in phrases), frozenset(edges))
    violations = graph.validate(tags)
    if violations:
        raise TreebankFormatError(f"invalid graph: {violations[0]}", end_line)
    return graph


def write_treebank(doc: TreebankDocument, stream: TextIO) -> None:
    """Canonical serialization: stable row order, "_" for absent values. A
    form, lemma or root that would not read back as written raises
    TreebankFormatError."""
    metadata = list(doc.metadata) + [GraphMetadata()] * (len(doc.graphs) - len(doc.metadata))
    for graph, meta in zip(doc.graphs, metadata):
        if meta.location:
            stream.write(f"# location = {meta.location}\n")
        for comment in meta.comments:
            stream.write(f"# {comment}\n")
        node_ids: dict = {i: i + 1 for i in range(len(graph.terminals))}
        for k, phrase in enumerate(sorted(graph.phrases)):
            node_ids[phrase] = len(graph.terminals) + 1 + k
        head_rel: dict = {}
        for edge in graph.edges:
            head_rel[edge.dependent] = (node_ids[edge.head], edge.relation)
        for i, term in enumerate(graph.terminals):
            head, rel = head_rel.get(i, ("_", "_"))
            if isinstance(term, MorphSegment):
                stream.write(
                    f"{node_ids[i]}\tT\t_\t{_writable('form', term.form or '_')}\t{term.pos}\t"
                    f"{_feats_column(term)}\t{head}\t{rel}\n"
                )
            else:
                stream.write(
                    f"{node_ids[i]}\tE\t_\t{_writable('form', term.form)}\t{term.pos}\t_\t{head}\t{rel}\n"
                )
        for phrase in sorted(graph.phrases):
            head, rel = head_rel.get(phrase, ("_", "_"))
            stream.write(
                f"{node_ids[phrase]}\tP\t{phrase.start + 1}-{phrase.end + 1}\t_\t"
                f"{phrase.tag}\t_\t{head}\t{rel}\n"
            )
        stream.write("\n")


def dumps_treebank(doc: TreebankDocument) -> str:
    buf = io.StringIO()
    write_treebank(doc, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Feature notation (square-bracket morphology)
# ---------------------------------------------------------------------------

# Prefixes that belong to a single part-of-speech, keyed by their X+ tag.
SINGLE_POS_PREFIXES = {
    "Al": "DET", "bi": "P", "ka": "P", "ta": "P", "sa": "FUT", "ya": "VOC", "ha": "VOC",
}

# Suffixes written as one fixed tag: POS -> (tag, form).
_SUFFIXES = {"VOC": ("+VOC", "m~a"), "EMPH": ("+n:EMPH", "n")}

# Person, gender and number, written together in one tag ("3MP").
PHI_KEYS = ("Person", "Gender", "Number")
PHI_RE = re.compile("^" + "".join(f"([{''.join(FEATURE_VALUES[k])}])?" for k in PHI_KEYS) + "$")
FORM_RE = re.compile(r"^\((I|II|III|IV|V|VI|VII|VIII|IX|X|XI|XII)\)$")

# A bare value (one tag, or two as in "ACT PCPL") -> its key.
_BARE_VALUES = {
    value: key
    for key in ("Derivation", "Voice", "Aspect", "Mood", "State", "Case")
    for value in FEATURE_VALUES[key]
}

# KEY of a "KEY:value" tag -> the feature it sets. The lemma and the root
# go under their FEATS column names until the segment is built.
_KEYED = {"LEM": "Lemma", "ROOT": "Root", "SP": "SP"}

# Surface forms of the pronoun suffixes, by their PRON: tag's phi features.
_PRONOUN_SUFFIX_FORMS = {
    "1S": "Y", "1P": "naA", "2MS": "ka", "2FS": "ki", "2MD": "kumaA", "2FD": "kumaA",
    "2MP": "kumo", "2FP": "kun~a", "3MS": "hu", "3FS": "haA", "3MD": "humaA",
    "3FD": "humaA", "3MP": "humo", "3FP": "hun~a",
}


def _phi(tag: str) -> Optional[dict]:
    """Person, gender and number of a non-empty phi tag ("3MP"), or None."""
    match = PHI_RE.match(tag)
    if not (match and tag):
        return None
    return {key: value for key, value in zip(PHI_KEYS, match.groups()) if value}


def _segment(tag: str, tags: TagSet) -> Optional[tuple]:
    """The (POS, form, features) of the segment that ``tag`` starts: an
    ``X+`` prefix, ``POS:``, a pronoun ``PRON:``/``+PRON:`` or a suffix of
    ``_SUFFIXES``. None for any other tag; ValueError for a bad one."""
    if tag.endswith("+") and not tag.startswith("+"):
        form, colon, pos = tag[:-1].partition(":")
        if not colon:
            pos = SINGLE_POS_PREFIXES.get(form)
            if pos is None:
                raise ValueError("unknown prefix tag")
        if not tags.is_pos(pos):
            raise ValueError("unknown prefix POS")
        return pos, form, {"SegType": "prefix"}
    if tag.startswith("POS:"):
        if not tags.is_pos(tag[4:]):
            raise ValueError("unknown POS tag")
        return tag[4:], "", {"SegType": "stem"}
    if tag.startswith(("PRON:", "+PRON:")):
        phi = tag.split(":", 1)[1]
        features = _phi(phi)
        if features is None:
            raise ValueError("bad pronoun phi features")
        form = _PRONOUN_SUFFIX_FORMS.get(phi, phi.lower())
        return "PRON", form, {"SegType": "suffix", "PronType": "object", **features}
    for pos, (suffix, form) in _SUFFIXES.items():
        if tag == suffix:
            return pos, form, {"SegType": "suffix"}
    return None


def _features(tag: str) -> dict:
    """The features that a tag other than a segment's first sets: a
    ``KEY:value`` tag, ``MOOD:x`` (Aspect when x is an Aspect value, else
    Mood), a one-tag bare value, a verb form "(IV)" or phi features.
    ValueError for any other tag."""
    key, colon, value = tag.partition(":")
    if colon and key in _KEYED:
        if not value and key != "SP":
            # The writer refuses an empty lemma or root (_check_lossless).
            raise ValueError(f"empty {_KEYED[key].lower()}")
        return {_KEYED[key]: value}
    if colon and key == "MOOD":
        return {"Aspect" if value in FEATURE_VALUES["Aspect"] else "Mood": value}
    if tag in _BARE_VALUES:
        return {_BARE_VALUES[tag]: tag}
    if FORM_RE.match(tag):
        return {"Form": tag[1:-1]}
    phi = _phi(tag)
    if phi is None:
        firsts = [pair.split()[0] for pair in _BARE_VALUES if pair.endswith(" " + tag)]
        raise ValueError(f"{tag} must follow {' or '.join(firsts)}" if firsts else "unknown tag")
    return phi


def parse_feature_line(text: str, location: Location, tags: TagSet = DEFAULT_TAGS) -> list:
    """Parse one bracketed annotation into its morphological segments."""
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise FeatureNotationError("annotation must be bracket-delimited")
    tokens = stripped[1:-1].split()
    if not tokens:
        raise FeatureNotationError("empty annotation")
    segments: list = []  # (POS, form, features) per segment
    offset = index = 0
    while index < len(tokens):
        tag = tokens[index]
        offset = stripped.index(tag, offset)
        pair = " ".join(tokens[index : index + 2])
        width = 1  # the tags read
        try:
            segment = _segment(tag, tags)
            if segment is not None:
                segments.append(segment)
            else:
                if pair in _BARE_VALUES:  # a value of two tags
                    features, width = {_BARE_VALUES[pair]: pair}, 2
                else:
                    features = _features(tag)
                if not segments:
                    raise ValueError("feature tag before any segment")
                held = segments[-1][2]
                for key in features:
                    if key in held:
                        raise ValueError(f"repeated feature key {key!r}")
                held.update(features)
        except ValueError as exc:
            raise FeatureNotationError(str(exc), tag, offset) from None
        for read in tokens[index : index + width]:
            offset = stripped.index(read, offset) + len(read)
        index += width
    built = []
    for ordinal, (pos, form, features) in enumerate(segments, start=1):
        lemma, root = features.pop("Lemma", None), features.pop("Root", None)
        loc = location._replace(segment=ordinal)
        built.append(MorphSegment(loc, form or lemma or "_", pos, features, lemma, root))
    return built


def _mood_tag(mood: Optional[str]) -> Optional[str]:
    """A Mood's tag: bare when ``FEATURE_VALUES`` lists it, else ``MOOD:x``."""
    if mood is None or mood in FEATURE_VALUES["Mood"]:
        return mood
    return f"MOOD:{mood}"


# The keys a stem's tags carry besides SegType, and those of them written as
# a bare value, which the reader maps back to its key by the value alone.
_STEM_KEYS = (
    "Derivation", "Voice", "Form", "Aspect", "Mood", "SP", "Person", "Gender", "Number",
    "State", "Case",
)
_BARE_KEYS = ("Derivation", "Voice", "Aspect", "State", "Case", *PHI_KEYS)
_TOKEN = re.compile(r"\S*")


def _reads_back(key: str, value) -> bool:
    """Whether the tag a stem or pronoun writes for the feature reads back
    as it: a bare value or phi letter from ``FEATURE_VALUES``, a verb form
    that ``FORM_RE`` reads, or a ``KEY:value`` tag of one token, where
    ``MOOD:x`` of an Aspect value reads back as Aspect."""
    if type(value) is not str:
        return False
    if key in _BARE_KEYS:
        return value in FEATURE_VALUES[key]
    if key == "Form":
        return FORM_RE.match(f"({value})") is not None
    if key == "Mood" and value in FEATURE_VALUES["Aspect"]:
        return False
    return _TOKEN.fullmatch(value) is not None


def _check_lossless(seg: MorphSegment, fixed: dict, carried: tuple, lexical: bool) -> None:
    """Raise FeatureNotationError naming the first feature, lemma or root of
    ``seg`` that its tags would drop or read back as something else. The
    tags give the ``fixed`` features their values and carry the keys of
    ``carried``, and, when ``lexical``, a lemma and a root of one token."""
    for key, value in seg.features:
        if key in fixed:
            kept = value == fixed[key]
        else:
            kept = key in carried and _reads_back(key, value)
        if not kept:
            raise FeatureNotationError(f"cannot write {key}={value!r} losslessly")
    for key, value in (("Lemma", seg.lemma), ("Root", seg.root)):
        if value is not None and not (
            lexical and type(value) is str and value and _TOKEN.fullmatch(value)
        ):
            raise FeatureNotationError(f"cannot write {key}={value!r} losslessly")


def format_feature_line(segments: Iterable[MorphSegment]) -> str:
    """Serialize segments back to the bracketed notation (lossy inverse of
    surface forms, lossless for tags). A Mood outside ``FEATURE_VALUES``,
    the empty one included, is written ``MOOD:x``. A feature, lemma or root
    that would be dropped or read back as something else raises
    FeatureNotationError."""
    parts: list = []
    for seg in segments:
        feats = seg.feature_map
        seg_type = feats.get("SegType", "stem")
        phi = "".join(feats.get(key, "") for key in PHI_KEYS)
        lexical = [seg.lemma and f"LEM:{seg.lemma}", seg.root and f"ROOT:{seg.root}"]
        if seg_type == "prefix":
            single = SINGLE_POS_PREFIXES.get(seg.form) == seg.pos
            tags = [f"{seg.form}+" if single else f"{seg.form}:{seg.pos}+", *lexical]
            _check_lossless(seg, {"SegType": "prefix"}, (), True)
        elif seg_type == "suffix" and seg.pos == "PRON":
            if not phi:
                raise FeatureNotationError(
                    "cannot write a pronoun suffix without Person, Gender or Number"
                )
            tags = [f"PRON:{phi}"]
            _check_lossless(seg, {"SegType": "suffix", "PronType": "object"}, PHI_KEYS, False)
        elif seg_type == "suffix" and seg.pos in _SUFFIXES:
            tags = [_SUFFIXES[seg.pos][0]]
            _check_lossless(seg, {"SegType": "suffix"}, (), False)
        else:
            tags = [
                f"POS:{seg.pos}",
                feats.get("Derivation"),
                feats.get("Voice"),
                feats.get("Form") and f"({feats['Form']})",
                feats.get("Aspect"),
                _mood_tag(feats.get("Mood")),
                *lexical,
                "SP" in feats and f"SP:{feats['SP']}",
                phi,
                feats.get("State"),
                feats.get("Case"),
            ]
            _check_lossless(seg, {"SegType": "stem"}, _STEM_KEYS, True)
        parts.extend(tag for tag in tags if tag)
    return "[" + " ".join(parts) + "]"


def read_feature_notation(
    stream: Union[TextIO, str], tags: TagSet = DEFAULT_TAGS
) -> list:
    """Read a feature-notation file: list of (location, segments) per token."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    out = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = re.match(r"^(\(\d+:\d+(?::\d+){0,2}\))\s+(\[.*\])$", line)
        if not match:
            raise TreebankFormatError("expected '(c:v:t) [tags...]'", line_no)
        try:
            location = parse_location(match.group(1))
            segments = parse_feature_line(match.group(2), location, tags)
        except (ValueError, FeatureNotationError) as exc:
            raise TreebankFormatError(str(exc), line_no)
        out.append((location, segments))
    return out


def sentences_from_notation(entries: list) -> list:
    """Group (location, segments) token entries into per-verse sentences."""
    sentences: list = []
    key = None
    for location, segments in entries:
        verse = (location.chapter, location.verse)
        if verse != key:
            sentences.append([])
            key = verse
        sentences[-1].extend(segments)
    return sentences
