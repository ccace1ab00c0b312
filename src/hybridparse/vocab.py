"""Closed tag vocabularies: POS tags, dependency relations, phrase tags.

The inventories are loaded from data files so that the parsing engine can
be reused with a different tagset (a custom ``TagSet`` may be passed to
the readers and the oracle). Unknown labels are rejected at ingestion.
Enriched labels, the relations of pure dependency graphs that carry
folded phrase and ellipsis structure, are parsed here too.
"""

from __future__ import annotations

from collections import namedtuple
from importlib import resources
from typing import Mapping, Optional

# Each feature key's closed values. The bracketed notation (``corpus_io``)
# reads and writes its bare tags, and person, gender and number, from these.
FEATURE_VALUES = {
    "SegType": ("prefix", "stem", "suffix"),
    "Person": ("1", "2", "3"),
    "Gender": ("M", "F"),
    "Number": ("S", "D", "P"),
    "Case": ("NOM", "ACC", "GEN"),
    "Mood": ("IND", "SUBJ", "JUS"),
    "Voice": ("ACT", "PASS"),
    "Aspect": ("PERF", "IMPF", "IMPV"),
    "State": ("DEF", "INDEF"),
    "Derivation": ("ACT PCPL", "PASS PCPL", "VN"),
    "SP": ("kaAn", "kaAd", "<in~"),
    "PronType": ("subject", "object"),
    # Verb form (roman numeral) and the reference-node marker take free
    # values; they are listed so writers keep a stable column order.
    "Form": None,
    "Ref": None,
}

# Canonical key order for serializing feature mappings.
FEATURE_ORDER = tuple(FEATURE_VALUES)

# Verbs in these special groups take subjx/predx instead of subj/obj.
COPULA_GROUP = "kaAn"


def _read_table(name: str) -> list[tuple[str, ...]]:
    text = resources.files("hybridparse.data").joinpath(name).read_text("utf-8")
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append(tuple(line.split("\t")))
    return rows


class TagSet:
    """One closed vocabulary triple plus the dropped-pronoun form table.
    Immutable; equality and the hash are the triple's, and the ``repr``
    shows all four fields."""

    __slots__ = ("pos_tags", "relations", "phrase_tags", "pronoun_forms")

    def __init__(self, pos_tags, relations, phrase_tags, pronoun_forms=None):
        init = object.__setattr__
        init(self, "pos_tags", pos_tags)
        init(self, "relations", relations)
        init(self, "phrase_tags", phrase_tags)
        init(self, "pronoun_forms", {} if pronoun_forms is None else pronoun_forms)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _triple(self) -> tuple:
        return (self.pos_tags, self.relations, self.phrase_tags)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._triple() == other._triple()
        return NotImplemented

    def __hash__(self):
        return hash(self._triple())

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(pos_tags={self.pos_tags!r}, "
            f"relations={self.relations!r}, phrase_tags={self.phrase_tags!r}, "
            f"pronoun_forms={self.pronoun_forms!r})"
        )

    def __reduce__(self):
        return type(self), (*self._triple(), self.pronoun_forms)

    def is_pos(self, tag: str) -> bool:
        return tag in self.pos_tags

    def is_relation(self, label: str) -> bool:
        return label in self.relations

    def is_phrase_tag(self, tag: str) -> bool:
        return tag in self.phrase_tags

    def with_relations(self, *extra: str) -> "TagSet":
        """A copy with additional relation labels (for foreign treebanks)."""
        return TagSet(
            self.pos_tags,
            self.relations | frozenset(extra),
            self.phrase_tags,
            self.pronoun_forms,
        )

    def pronoun_form(self, features: Mapping[str, str]) -> str:
        """Surface form of the independent pronoun for the phi features
        (Person, Gender, Number) in a feature mapping, such as a verb's.

        Missing values default to third person, masculine, singular; the
        first-person dual cell is empty in the inventory and maps to the
        plural.
        """
        person = features.get("Person") or "3"
        number = features.get("Number") or "S"
        gender = features.get("Gender") if person != "1" else "-"
        gender = gender or "M"
        key = (person, gender, number)
        if key not in self.pronoun_forms:
            key = (person, "-", number)
        return self.pronoun_forms.get(key, "huwa")


def _load_default() -> TagSet:
    pos = frozenset(row[0] for row in _read_table("pos_tags.txt"))
    rel = frozenset(row[0] for row in _read_table("relations.txt"))
    phr = frozenset(row[0] for row in _read_table("phrase_tags.txt"))
    pron = {}
    for person, gender, number, form in _read_table("pronouns.txt"):
        pron[(person, gender, number)] = form
    return TagSet(pos, rel, phr, pron)


DEFAULT_TAGS = _load_default()


class EnrichedLabel(
    namedtuple(
        "EnrichedLabel",
        "base dependent_expansion head_expansion bridge",
        defaults=(False, False, None),
    )
):
    """Parsed form of an enriched dependency label; ``bridge`` is None or
    (relation1, pos, relation2).

    Expansion flags and the ellipsis bridge are mutually exclusive; inside
    a bridge, the first component may itself carry a dependent-expansion
    flag (e.g. ``+link|N|circ``).
    """

    __slots__ = ()

    def __str__(self) -> str:
        if self.bridge:
            return "|".join(self.bridge)
        out = self.base
        if self.dependent_expansion:
            out = "+" + out
        if self.head_expansion:
            out = out + "+"
        return out


def parse_label(label: str, tags: TagSet = DEFAULT_TAGS) -> Optional[EnrichedLabel]:
    """Parse an enriched label; None for a plain relation; ValueError if bad."""
    parsed, error = read_label(label, tags)
    if error is not None:
        raise ValueError(error)
    return parsed


# Entries at which a process-wide memo of values from a small closed set is
# cleared: the label memo here and the feature-set memo of ``graph``.
MEMO_MAX = 4096

# (label, relations, POS tags) -> (parsed label or None, error message or
# None). Labels come from a small closed set, so the memo is cleared only
# should a stream of distinct malformed labels ever fill it.
_LABELS: dict = {}


def read_label(label: str, tags: TagSet = DEFAULT_TAGS) -> tuple:
    """``(parse_label(label, tags), None)``, or ``(None, message)`` where it
    raises; never raises itself. Each distinct label is parsed once per
    relation and POS inventory, which are all that parsing reads, compared
    by value."""
    key = (label, tags.relations, tags.pos_tags)
    out = _LABELS.get(key)
    if out is None:
        if len(_LABELS) >= MEMO_MAX:
            _LABELS.clear()
        out = _LABELS[key] = _parse(label, tags)
    return out


def _parse(label: str, tags: TagSet) -> tuple:
    if tags.is_relation(label):
        return None, None
    if "|" in label:
        parts = label.split("|")
        if len(parts) != 3:
            return None, f"malformed bridge label {label!r}"
        rel1, pos, rel2 = parts
        inner, error = read_label(rel1, tags)
        if inner is not None and (inner.head_expansion or inner.bridge):
            error = f"unsupported bridge component {rel1!r} in {label!r}"
        if error is not None:
            return None, error
        outer, error = read_label(rel2, tags)
        if outer is not None and (outer.dependent_expansion or outer.bridge):
            error = f"unsupported bridge component {rel2!r} in {label!r}"
        if error is not None:
            return None, error
        if not tags.is_pos(pos):
            return None, f"unknown POS {pos!r} in bridge label {label!r}"
        return EnrichedLabel(rel1, bridge=(rel1, pos, rel2)), None
    dep_flag = label.startswith("+")
    head_flag = label.endswith("+")
    base = label.strip("+")
    if (dep_flag or head_flag) and tags.is_relation(base):
        return EnrichedLabel(base, dep_flag, head_flag), None
    return None, f"unknown relation label {label!r}"
