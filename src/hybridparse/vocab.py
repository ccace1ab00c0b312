"""Closed tag vocabularies: POS tags, dependency relations, phrase tags.

The inventories are loaded from data files so that the parsing engine can
be reused with a different tagset (a custom ``TagSet`` may be passed to
the readers and the oracle). Unknown labels are rejected at ingestion.
Enriched labels, the relations of pure dependency graphs that carry
folded phrase and ellipsis structure, are parsed here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping, Optional

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


@dataclass(frozen=True)
class TagSet:
    """One closed vocabulary triple plus the dropped-pronoun form table."""

    pos_tags: frozenset[str]
    relations: frozenset[str]
    phrase_tags: frozenset[str]
    pronoun_forms: dict = field(default_factory=dict, compare=False)

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


@dataclass(frozen=True)
class EnrichedLabel:
    """Parsed form of an enriched dependency label.

    Expansion flags and the ellipsis bridge are mutually exclusive; inside
    a bridge, the first component may itself carry a dependent-expansion
    flag (e.g. ``+link|N|circ``).
    """

    base: str
    dependent_expansion: bool = False
    head_expansion: bool = False
    bridge: Optional[tuple] = None  # (relation1, pos, relation2)

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
    if tags.is_relation(label):
        return None
    if "|" in label:
        parts = label.split("|")
        if len(parts) != 3:
            raise ValueError(f"malformed bridge label {label!r}")
        rel1, pos, rel2 = parts
        inner = parse_label(rel1, tags)
        if inner is not None and (inner.head_expansion or inner.bridge):
            raise ValueError(f"unsupported bridge component {rel1!r} in {label!r}")
        outer = parse_label(rel2, tags)
        if outer is not None and (outer.dependent_expansion or outer.bridge):
            raise ValueError(f"unsupported bridge component {rel2!r} in {label!r}")
        if not tags.is_pos(pos):
            raise ValueError(f"unknown POS {pos!r} in bridge label {label!r}")
        return EnrichedLabel(rel1, bridge=(rel1, pos, rel2))
    dep_flag = label.startswith("+")
    head_flag = label.endswith("+")
    base = label.strip("+")
    if (dep_flag or head_flag) and tags.is_relation(base):
        return EnrichedLabel(base, dep_flag, head_flag)
    raise ValueError(f"unknown relation label {label!r}")
