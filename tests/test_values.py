"""The classes that were dataclasses, against reference dataclasses kept here
as they were defined: the named-tuple values, the slotted ``TagSet`` and
``HybridGraph``, and the plain mutable records. Also: importing the package
loads no dataclass machinery."""

import copy
import pickle
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridparse.convert import ConversionReport
from hybridparse.corpus_io import GraphMetadata, TreebankDocument
from hybridparse.engine import ParseReport
from hybridparse.features import FEATURE_SETS, FeatureSetSpec
from hybridparse.graph import (
    Edge,
    EmptyCategory,
    HybridGraph,
    Location,
    MorphSegment,
    Phrase,
    Violation,
)
from hybridparse.learning import HYPERPARAMETERS, Model
from hybridparse.metrics import EvalReport
from hybridparse.oracle import OracleOutcome
from hybridparse.synth import Profile, _Builder
from hybridparse.transitions import (
    AddPhrase,
    InsertEmpty,
    InsertPronoun,
    LeftArc,
    Reduce,
    RightArc,
    Shift,
    parse_transition,
)
from hybridparse.vocab import DEFAULT_TAGS, EnrichedLabel, TagSet


def _reference(frozen=True):
    """A dataclass as the class was defined before; its repr names the class
    it stands for (``RefShift`` prints as ``Shift``)."""

    def wrap(cls):
        cls.__qualname__ = cls.__name__.removeprefix("Ref")
        return dataclass(frozen=frozen)(cls)

    return wrap


# -- the frozen classes as they were -------------------------------------------


@_reference()
class RefShift:
    def __str__(self):
        return "SHIFT"


@_reference()
class RefReduce:
    n: int

    def __str__(self):
        return f"REDUCE({self.n})"


@_reference()
class RefLeftArc:
    relation: str

    def __str__(self):
        return f"LEFT({self.relation})"


@_reference()
class RefRightArc:
    relation: str

    def __str__(self):
        return f"RIGHT({self.relation})"


@_reference()
class RefInsertEmpty:
    pos: str

    def __str__(self):
        return f"EMPTY({self.pos})"


@_reference()
class RefInsertPronoun:
    def __str__(self):
        return "PRON"


@_reference()
class RefAddPhrase:
    tag: str

    def __str__(self):
        return f"PHRASE({self.tag})"


@_reference()
class RefViolation:
    rule: str
    subject: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.subject}"


@_reference()
class RefEnrichedLabel:
    base: str
    dependent_expansion: bool = False
    head_expansion: bool = False
    bridge: Optional[tuple] = None

    def __str__(self) -> str:
        if self.bridge:
            return "|".join(self.bridge)
        out = self.base
        if self.dependent_expansion:
            out = "+" + out
        if self.head_expansion:
            out = out + "+"
        return out


@_reference()
class RefEvalReport:
    true_positives: int
    gold_count: int
    predicted_count: int


@_reference()
class RefFeatureSetSpec:
    name: str

    def __post_init__(self):
        if self.name not in FEATURE_SETS:
            raise ValueError(f"unknown feature set {self.name!r}")


@_reference()
class RefProfile:
    phrases: bool = False
    ellipsis: bool = False
    nonprojective: bool = False
    disconnected: bool = False


@_reference()
class RefTagSet:
    pos_tags: frozenset
    relations: frozenset
    phrase_tags: frozenset
    pronoun_forms: dict = field(default_factory=dict, compare=False)


@_reference()
class RefHybridGraph:
    terminals: tuple = ()
    phrases: frozenset = frozenset()
    edges: frozenset = frozenset()
    _head_index: dict = field(init=False, compare=False, repr=False, default=None)
    _dep_index: dict = field(init=False, compare=False, repr=False, default=None)
    _masks: dict = field(init=False, compare=False, repr=False, default=None)
    _starts: dict = field(init=False, compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "terminals", tuple(self.terminals))
        object.__setattr__(self, "phrases", frozenset(self.phrases))
        object.__setattr__(self, "edges", frozenset(self.edges))


TRANSITIONS = (Shift, Reduce, LeftArc, RightArc, InsertEmpty, InsertPronoun, AddPhrase)
FROZEN = TRANSITIONS + (
    Violation, EnrichedLabel, EvalReport, FeatureSetSpec, Profile, TagSet, HybridGraph
)
REFERENCES = {
    cls.__name__: globals()["Ref" + cls.__name__] for cls in FROZEN
}
CLASSES = {cls.__name__: cls for cls in FROZEN}

# Fields as plain data, some that a constructor rejects and some unhashable.
_label = st.sampled_from(["subj", "obj", "N", "S", "pos", ""])
_maybe_unhashable = st.one_of(_label, _label.map(lambda s: [s]))
_segment = st.builds(
    MorphSegment,
    st.builds(Location, st.integers(1, 2), st.integers(1, 2)),
    st.sampled_from(["w", "ka"]),
    st.sampled_from(["N", "V"]),
    st.sampled_from([(), (("Case", "NOM"),)]),
)
_terminal = st.one_of(_segment, st.builds(EmptyCategory, st.just("PRON"), st.just("huwa")))
_phrase = st.builds(Phrase, st.integers(0, 1), st.integers(1, 2), st.sampled_from(["S", "NP"]))
_ref = st.one_of(st.integers(0, 2), _phrase)
_edge = st.tuples(_ref, _ref, _label).filter(lambda f: f[0] != f[1]).map(lambda f: Edge(*f))
_flag = st.one_of(st.booleans(), st.integers(0, 1))
_tags = st.frozensets(_label, max_size=3)
FIELDS = {
    "Shift": st.just(()),
    "Reduce": st.tuples(st.one_of(st.integers(-1, 3), st.just([1]))),
    "LeftArc": st.tuples(_maybe_unhashable),
    "RightArc": st.tuples(_maybe_unhashable),
    "InsertEmpty": st.tuples(_maybe_unhashable),
    "InsertPronoun": st.just(()),
    "AddPhrase": st.tuples(_maybe_unhashable),
    "Violation": st.tuples(_label, _maybe_unhashable),
    "EnrichedLabel": st.one_of(
        st.tuples(_label),
        st.tuples(_label, st.booleans(), st.booleans()),
        st.tuples(_label, st.just(False), st.just(False), st.tuples(_label, _label, _label)),
    ),
    "EvalReport": st.tuples(*[st.integers(0, 3)] * 3),
    "FeatureSetSpec": st.tuples(
        st.one_of(st.sampled_from(FEATURE_SETS + ("tree", "")), st.just(["pos"]))
    ),
    "Profile": st.lists(_flag, max_size=4).map(tuple),
    "TagSet": st.tuples(
        _tags, _tags, st.one_of(_tags, _tags.map(set)),
        st.dictionaries(st.tuples(_label, _label, _label), _label, max_size=2),
    ),
    "HybridGraph": st.one_of(
        st.tuples(
            st.lists(_terminal, max_size=3),
            st.lists(_phrase, max_size=2),
            st.lists(_edge, max_size=3),
        ),
        st.tuples(st.just(5)),
        st.tuples(st.just(()), st.just([[1]])),
    ),
}
kinds_and_fields = st.sampled_from(sorted(FIELDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), FIELDS[kind])
)
transition_fields = st.sampled_from([c.__name__ for c in TRANSITIONS]).flatmap(
    lambda kind: st.tuples(st.just(kind), FIELDS[kind])
)


def _outcome(build) -> tuple:
    """("built", repr, str, hash or its error) of the value ``build()``
    returns, or ("raised", type, message) of what it raises."""
    try:
        value = build()
    except (TypeError, ValueError) as error:
        return "raised", type(error), str(error)
    try:
        hashed = hash(value)
    except TypeError as error:
        hashed = str(error)
    return "built", repr(value), str(value), hashed


@settings(max_examples=400, deadline=None)
@given(kinds_and_fields)
def test_values_build_and_fail_as_the_dataclasses_did(drawn):
    """Each class has its dataclass's repr, str and hash, or raises the same
    exception type with the same message; an argument too many raises
    TypeError for both."""
    kind, given_fields = drawn
    cls, reference = CLASSES[kind], REFERENCES[kind]
    assert _outcome(lambda: cls(*given_fields)) == _outcome(lambda: reference(*given_fields))
    with pytest.raises(TypeError):
        cls(*given_fields, *[None] * (8 - len(given_fields)))
    with pytest.raises(TypeError):
        reference(*given_fields, *[None] * (8 - len(given_fields)))


def _both(many) -> tuple:
    """The values and the references of the drawn fields the references
    accept."""
    values, references = [], []
    for kind, given_fields in many:
        try:
            references.append(REFERENCES[kind](*given_fields))
        except (TypeError, ValueError):
            continue
        values.append(CLASSES[kind](*given_fields))
    return values, references


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(transition_fields, min_size=2, max_size=8),
        st.sampled_from(sorted(FIELDS)).flatmap(
            lambda kind: st.lists(st.tuples(st.just(kind), FIELDS[kind]), min_size=2, max_size=6)
        ),
    )
)
def test_values_compare_as_the_dataclasses_did(many):
    """Equality is the dataclasses' among the values of one class, and among
    the transitions of every kind: ``Shift()`` is not ``InsertPronoun()``,
    nor ``LeftArc(r)`` ``RightArc(r)``. A transition equals no plain tuple."""
    values, references = _both(many)
    for a, ra in zip(values, references):
        for b, rb in zip(values, references):
            assert (a == b, a != b) == (ra == rb, ra != rb), (a, b)
        if isinstance(a, TRANSITIONS):
            assert a != tuple(a) and not a == tuple(a) and tuple(a) != a
            assert bool(a) is bool(ra) is True


def test_transitions_of_one_field_differ_by_kind():
    assert Shift() != InsertPronoun() and not Shift() == InsertPronoun()
    assert LeftArc("subj") != RightArc("subj") != InsertEmpty("subj") != AddPhrase("subj")
    assert len({LeftArc("subj"), RightArc("subj"), InsertEmpty("subj"), AddPhrase("subj")}) == 4
    assert len({Shift(), InsertPronoun(), Shift()}) == 2


def test_a_feature_set_spec_equals_only_a_feature_set_spec():
    spec, insert = FeatureSetSpec("pos"), InsertEmpty("pos")
    assert spec != insert and insert != spec
    assert not spec == insert and not insert == spec
    assert len({spec, insert}) == len({insert, spec}) == 2
    assert spec != ("pos",) and ("pos",) != spec and spec == FeatureSetSpec("pos")


@settings(max_examples=200, deadline=None)
@given(kinds_and_fields)
def test_values_cannot_be_assigned(drawn):
    """Setting or deleting a field, or setting a new attribute, raises
    AttributeError, as on the frozen dataclasses."""
    values, references = _both([drawn])
    for value in values + references:
        for name in [f.name for f in fields(REFERENCES[drawn[0]])] + ["other"]:
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)


def _rebuilds(value) -> list:
    return [
        lambda: copy.copy(value),
        lambda: copy.deepcopy(value),
    ] + [
        lambda protocol=protocol: pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]


@settings(max_examples=200, deadline=None)
@given(kinds_and_fields)
def test_copies_and_pickles_round_trip(drawn):
    """A copy or an unpickled value is equal and of the same class. Its repr
    is the same too, but for the sets of a tag set or a graph, which a copy
    may iterate in another order."""
    values, _ = _both([drawn])
    for value in values:
        for rebuild in _rebuilds(value):
            again = rebuild()
            assert type(again) is type(value) and again == value
            if isinstance(value, TagSet):
                assert again.pronoun_forms == value.pronoun_forms
            elif not isinstance(value, HybridGraph):
                assert repr(again) == repr(value)


def test_a_feature_set_spec_is_checked_when_copied_or_unpickled():
    unchecked = tuple.__new__(FeatureSetSpec, ("tree",))
    for rebuild in _rebuilds(unchecked) + [lambda: unchecked._replace()]:
        with pytest.raises(ValueError, match=r"^unknown feature set 'tree'$"):
            rebuild()


def test_graph_copies_rebuild_their_indices():
    graph = HybridGraph(
        (MorphSegment(Location(1, 1, 1), "w", "N"), MorphSegment(Location(1, 1, 2), "v", "V")),
        (),
        [Edge(0, 1, "subj")],
    )
    graph.yield_masks()
    for rebuild in _rebuilds(graph):
        again = rebuild()
        assert again == graph and hash(again) == hash(graph)
        assert again.yield_masks() == graph.yield_masks()
        assert again.head_of(0) == graph.head_of(0)


@settings(max_examples=300, deadline=None)
@given(transition_fields.filter(lambda drawn: all(type(f) is not list for f in drawn[1])))
def test_parse_transition_inverts_str(drawn):
    kind, given_fields = drawn
    if kind == "Reduce":
        given_fields = (abs(given_fields[0]),)
    t = CLASSES[kind](*given_fields)
    assert parse_transition(str(t)) == t and type(parse_transition(str(t))) is type(t)


@given(st.text(max_size=6))
def test_parse_transition_inverts_str_for_any_label(label):
    for cls in (LeftArc, RightArc, InsertEmpty, AddPhrase):
        assert parse_transition(str(cls(label))) == cls(label)


# -- the mutable records as they were -------------------------------------------


@_reference(frozen=False)
class RefParseReport:
    trace: list = field(default_factory=list)
    budget_exhausted: bool = False
    predictive_steps: int = 0
    illegal_top_steps: int = 0
    fallback_ranks: Counter = field(default_factory=Counter)
    forced_steps: int = 0
    reconstruction_errors: list = field(default_factory=list)


@_reference(frozen=False)
class RefConversionReport:
    converted_phrases: int = 0
    converted_empty_categories: int = 0
    dropped_pronouns: int = 0
    loss_details: list = field(default_factory=list)
    reconstruction_errors: list = field(default_factory=list)


@_reference(frozen=False)
class RefOracleOutcome:
    sequence: list
    reachable: bool
    uncovered_edges: frozenset = frozenset()
    graph: Optional[HybridGraph] = None


@_reference(frozen=False)
class RefGraphMetadata:
    location: str = ""
    comments: list = field(default_factory=list)


@_reference(frozen=False)
class RefTreebankDocument:
    graphs: list = field(default_factory=list)
    metadata: list = field(default_factory=list)


@_reference(frozen=False)
class RefModel:
    feature_set: FeatureSetSpec
    transition_vocabulary: list
    classifiers: dict
    hyperparameters: dict = field(default_factory=lambda: dict(HYPERPARAMETERS))
    relation_vocab: list = field(default_factory=list)
    corpus_fingerprint: str = ""
    counts: dict = field(default_factory=dict)


RECORDS = {
    cls.__name__: (cls, globals()["Ref" + cls.__name__])
    for cls in (
        ParseReport, ConversionReport, OracleOutcome, GraphMetadata, TreebankDocument, Model
    )
}
_small = st.one_of(st.integers(0, 2), st.booleans(), st.lists(st.integers(0, 2), max_size=2))
RECORD_FIELDS = {
    "ParseReport": st.lists(_small, max_size=7),
    "ConversionReport": st.lists(_small, max_size=5),
    "OracleOutcome": st.tuples(
        st.lists(st.sampled_from([Shift(), Reduce(1), LeftArc("subj")]), max_size=3),
        st.booleans(),
    ),
    "GraphMetadata": st.tuples(st.sampled_from(["", "(1:1)"]), st.lists(_label, max_size=2)),
    "TreebankDocument": st.lists(st.lists(st.integers(0, 2), max_size=2), max_size=2),
    "Model": st.tuples(
        st.sampled_from(FEATURE_SETS).map(FeatureSetSpec),
        st.lists(_label, max_size=2),
        st.just({}),
        st.one_of(st.just({}), st.just({"epochs": 1})),
        st.lists(_label, max_size=2),
        _label,
        st.dictionaries(_label, st.integers(0, 2), max_size=2),
    ).flatmap(lambda f: st.integers(3, 7).map(lambda n: f[:n])),
}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(RECORDS)).flatmap(
        lambda kind: st.tuples(st.just(kind), st.lists(RECORD_FIELDS[kind], min_size=1, max_size=4))
    )
)
def test_records_keep_their_dataclass_fields_defaults_equality_and_repr(drawn):
    """The records have their dataclasses' fields in order and defaults,
    ``==`` over those fields, the repr, and no hash; defaults are fresh per
    record, and copies and pickles round-trip."""
    kind, many = drawn
    cls, reference = RECORDS[kind]
    records = [cls(*map(copy.deepcopy, f)) for f in many]
    references = [reference(*map(copy.deepcopy, f)) for f in many]
    assert cls._fields == tuple(f.name for f in fields(reference))
    for a, ra in zip(records, references):
        assert repr(a) == repr(ra)
        with pytest.raises(TypeError, match=f"^unhashable type: '{kind}'$"):
            hash(a)
        for b, rb in zip(records, references):
            assert (a == b, a != b) == (ra == rb, ra != rb)
        for rebuild in _rebuilds(a):
            assert rebuild() == a
    if kind not in ("OracleOutcome", "Model"):
        assert repr(cls()) == repr(reference())
        assert all(
            getattr(cls(), name) is not getattr(cls(), name)
            for name in cls._fields
            if isinstance(getattr(cls(), name), (list, dict))
        )


def test_a_model_binds_on_construction():
    model = Model(FeatureSetSpec("pos"), [], {})
    assert model.parsed_labels == {} and model.vocabulary.names == []
    assert model.hyperparameters == HYPERPARAMETERS
    assert model.hyperparameters is not Model(FeatureSetSpec("pos"), [], {}).hyperparameters


@_reference(frozen=False)
class RefBuilder:
    rng: random.Random
    phrases_on: bool
    ellipsis_on: bool
    tags: TagSet
    terminals: list = None
    edges: list = None
    phrase_nodes: list = None

    def __post_init__(self):
        self.terminals = []
        self.edges = []
        self.phrase_nodes = []


def test_the_synth_builder_keeps_its_fields():
    rng = random.Random(0)
    reference = RefBuilder(rng, True, False, DEFAULT_TAGS)
    assert vars(_Builder(rng, True, False, DEFAULT_TAGS)) == {
        f.name: getattr(reference, f.name) for f in fields(reference)
    }


# -- import ----------------------------------------------------------------------


def test_importing_the_package_loads_no_dataclass_machinery():
    """A fresh interpreter, without site hooks, imports the package without
    ``dataclasses`` (and its ``inspect``), ``hashlib``, ``fractions`` or
    ``json``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hybridparse; "
        "print([m for m in ('dataclasses', 'inspect', 'hashlib', 'fractions', 'json') "
        "if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
