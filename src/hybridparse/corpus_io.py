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
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, TextIO, Union

from .graph import (
    Edge,
    EmptyCategory,
    HybridGraph,
    Location,
    MorphSegment,
    Phrase,
)
from .vocab import DEFAULT_TAGS, FEATURE_ORDER, TagSet


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


@dataclass
class GraphMetadata:
    location: str = ""
    comments: list = field(default_factory=list)


@dataclass
class TreebankDocument:
    graphs: List[HybridGraph] = field(default_factory=list)
    metadata: List[GraphMetadata] = field(default_factory=list)

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
    if segment.lemma:
        items.append(f"Lemma={segment.lemma}")
    if segment.root:
        items.append(f"Root={segment.root}")
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
    """Canonical serialization: stable row order, "_" for absent values."""
    metadata = list(doc.metadata) + [GraphMetadata()] * (len(doc.graphs) - len(doc.metadata))
    for graph, meta in zip(doc.graphs, metadata):
        if meta.location:
            stream.write(f"# location = {meta.location}\n")
        for comment in meta.comments:
            stream.write(f"# {comment}\n")
        node_ids: dict = {}
        for i in range(len(graph.terminals)):
            node_ids[i] = i + 1
        for k, phrase in enumerate(sorted(graph.phrases)):
            node_ids[phrase] = len(graph.terminals) + 1 + k
        head_rel: dict = {}
        for edge in graph.edges:
            head_rel[edge.dependent] = (node_ids[edge.head], edge.relation)
        for i, term in enumerate(graph.terminals):
            head, rel = head_rel.get(i, ("_", "_"))
            if isinstance(term, MorphSegment):
                stream.write(
                    f"{node_ids[i]}\tT\t_\t{term.form or '_'}\t{term.pos}\t"
                    f"{_feats_column(term)}\t{head}\t{rel}\n"
                )
            else:
                stream.write(
                    f"{node_ids[i]}\tE\t_\t{term.form}\t{term.pos}\t_\t{head}\t{rel}\n"
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
    "Al": "DET",
    "bi": "P",
    "ka": "P",
    "ta": "P",
    "sa": "FUT",
    "ya": "VOC",
    "ha": "VOC",
}

PHI_RE = re.compile(r"^([123])?([MF])?([SDP])?$")
FORM_RE = re.compile(r"^\((I|II|III|IV|V|VI|VII|VIII|IX|X|XI|XII)\)$")

_PLAIN_VALUE_FEATURES = {
    "NOM": ("Case", "NOM"),
    "ACC": ("Case", "ACC"),
    "GEN": ("Case", "GEN"),
    "IND": ("Mood", "IND"),
    "SUBJ": ("Mood", "SUBJ"),
    "JUS": ("Mood", "JUS"),
    "PERF": ("Aspect", "PERF"),
    "IMPF": ("Aspect", "IMPF"),
    "IMPV": ("Aspect", "IMPV"),
    "DEF": ("State", "DEF"),
    "INDEF": ("State", "INDEF"),
    "VN": ("Derivation", "VN"),
}

_PRONOUN_SUFFIX_FORMS = {
    ("1", "", "S"): "Y",
    ("1", "", "P"): "naA",
    ("2", "M", "S"): "ka",
    ("2", "F", "S"): "ki",
    ("2", "M", "D"): "kumaA",
    ("2", "F", "D"): "kumaA",
    ("2", "M", "P"): "kumo",
    ("2", "F", "P"): "kun~a",
    ("3", "M", "S"): "hu",
    ("3", "F", "S"): "haA",
    ("3", "M", "D"): "humaA",
    ("3", "F", "D"): "humaA",
    ("3", "M", "P"): "humo",
    ("3", "F", "P"): "hun~a",
}


class _SegmentBuilder:
    def __init__(self, seg_type: str, pos: str, form: str = ""):
        self.seg_type = seg_type
        self.pos = pos
        self.form = form
        self.features: dict = {"SegType": seg_type}
        self.lemma: Optional[str] = None
        self.root: Optional[str] = None

    def build(self, location: Location, ordinal: int) -> MorphSegment:
        loc = Location(location.chapter, location.verse, location.token, ordinal)
        form = self.form or self.lemma or "_"
        return MorphSegment(
            loc, form, self.pos, tuple(sorted(self.features.items())), self.lemma, self.root
        )


def parse_feature_line(text: str, location: Location, tags: TagSet = DEFAULT_TAGS) -> list:
    """Parse one bracketed annotation into its morphological segments."""
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise FeatureNotationError("annotation must be bracket-delimited")
    body = stripped[1:-1].strip()
    if not body:
        raise FeatureNotationError("empty annotation")
    tokens = body.split()
    segments: list = []
    current: Optional[_SegmentBuilder] = None
    offset = 0
    index = 0
    while index < len(tokens):
        tag = tokens[index]
        offset = stripped.index(tag, offset)
        nxt = tokens[index + 1] if index + 1 < len(tokens) else None

        def need_segment():
            if current is None:
                raise FeatureNotationError(
                    "feature tag before any segment", tag, offset
                )
            return current

        if tag.endswith("+") and not tag.startswith("+"):
            base = tag[:-1]
            if ":" in base:
                form, pos = base.split(":", 1)
            elif base in SINGLE_POS_PREFIXES:
                form, pos = base, SINGLE_POS_PREFIXES[base]
            else:
                raise FeatureNotationError("unknown prefix tag", tag, offset)
            if not tags.is_pos(pos):
                raise FeatureNotationError("unknown prefix POS", tag, offset)
            current = _SegmentBuilder("prefix", pos, form)
            segments.append(current)
        elif tag.startswith("POS:"):
            pos = tag[4:]
            if not tags.is_pos(pos):
                raise FeatureNotationError("unknown POS tag", tag, offset)
            current = _SegmentBuilder("stem", pos)
            segments.append(current)
        elif tag.startswith("PRON:") or tag.startswith("+PRON:"):
            phi = tag.split(":", 1)[1]
            match = PHI_RE.match(phi)
            if not match or not phi:
                raise FeatureNotationError("bad pronoun phi features", tag, offset)
            person, gender, number = match.groups()
            builder = _SegmentBuilder("suffix", "PRON")
            if person:
                builder.features["Person"] = person
            if gender:
                builder.features["Gender"] = gender
            if number:
                builder.features["Number"] = number
            builder.features["PronType"] = "object"
            builder.form = _PRONOUN_SUFFIX_FORMS.get(
                (person or "", gender or "", number or ""), phi.lower() or "hu"
            )
            current = builder
            segments.append(current)
        elif tag == "+VOC":
            current = _SegmentBuilder("suffix", "VOC", "m~a")
            segments.append(current)
        elif tag == "+n:EMPH":
            current = _SegmentBuilder("suffix", "EMPH", "n")
            segments.append(current)
        elif tag.startswith("LEM:"):
            need_segment().lemma = tag[4:]
        elif tag.startswith("ROOT:"):
            need_segment().root = tag[5:]
        elif tag.startswith("SP:"):
            need_segment().features["SP"] = tag[3:]
        elif tag.startswith("MOOD:"):
            value = tag[5:]
            key = "Aspect" if value in ("PERF", "IMPF", "IMPV") else "Mood"
            need_segment().features[key] = value
        elif tag in ("ACT", "PASS"):
            if nxt == "PCPL":
                need_segment().features["Derivation"] = f"{tag} PCPL"
                index += 1
            else:
                need_segment().features["Voice"] = tag
        elif tag == "PCPL":
            raise FeatureNotationError("PCPL must follow ACT or PASS", tag, offset)
        elif FORM_RE.match(tag):
            need_segment().features["Form"] = tag[1:-1]
        elif tag in _PLAIN_VALUE_FEATURES:
            key, value = _PLAIN_VALUE_FEATURES[tag]
            need_segment().features[key] = value
        elif PHI_RE.match(tag) and tag:
            person, gender, number = PHI_RE.match(tag).groups()
            builder = need_segment()
            if person:
                builder.features["Person"] = person
            if gender:
                builder.features["Gender"] = gender
            if number:
                builder.features["Number"] = number
        else:
            raise FeatureNotationError("unknown tag", tag, offset)
        offset += len(tag)
        index += 1
    if not segments:
        raise FeatureNotationError("no segments found")
    built = []
    for ordinal, builder in enumerate(segments, start=1):
        built.append(builder.build(location, ordinal))
    # A pronoun directly suffixed to a verb stem is an object clitic; the
    # subject reading must be annotated explicitly.
    return built


def format_feature_line(segments: Iterable[MorphSegment]) -> str:
    """Serialize segments back to the bracketed notation (lossy inverse of
    surface forms, lossless for tags)."""
    parts: list = []
    for seg in segments:
        feats = seg.feature_map
        seg_type = feats.get("SegType", "stem")
        if seg_type == "prefix":
            if seg.form in SINGLE_POS_PREFIXES and SINGLE_POS_PREFIXES[seg.form] == seg.pos:
                parts.append(f"{seg.form}+")
            else:
                parts.append(f"{seg.form}:{seg.pos}+")
            continue
        if seg_type == "suffix" and seg.pos == "PRON":
            phi = feats.get("Person", "") + feats.get("Gender", "") + feats.get("Number", "")
            parts.append(f"PRON:{phi}")
            continue
        if seg_type == "suffix" and seg.pos == "VOC":
            parts.append("+VOC")
            continue
        if seg_type == "suffix" and seg.pos == "EMPH":
            parts.append("+n:EMPH")
            continue
        parts.append(f"POS:{seg.pos}")
        if "Derivation" in feats:
            parts.append(feats["Derivation"])
        elif "Voice" in feats:
            parts.append(feats["Voice"])
        if "Form" in feats:
            parts.append(f"({feats['Form']})")
        if "Aspect" in feats:
            parts.append(feats["Aspect"])
        if "Mood" in feats:
            parts.append(feats["Mood"])
        if seg.lemma:
            parts.append(f"LEM:{seg.lemma}")
        if seg.root:
            parts.append(f"ROOT:{seg.root}")
        if "SP" in feats:
            parts.append(f"SP:{feats['SP']}")
        phi = feats.get("Person", "") + feats.get("Gender", "") + feats.get("Number", "")
        if phi:
            parts.append(phi)
        for key in ("State", "Case"):
            if key in feats:
                parts.append(feats[key])
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
