"""The frozen records: construction, value equality, immutability and repr.

Each record is built by hand from the fields of the GL_2, q = 11, ell = 5
case.  The reprs are pinned strings, the ones the records printed when they
were dataclasses.  The value classes whose constructors take other
arguments than their fields (a family's (n, q, ell), a matrix's dense rows)
are checked for the same semantics, against the reprs they printed before
they were records.
"""

import copy
import pickle

import pytest

import llc_params
from llc_params import cli
from llc_params.abgroups import FinGenAbGroup
from llc_params.blocks import (
    ApplicabilityFlag,
    BlockDescriptor,
    CategoricalSummary,
    MatchReport,
    categorical_summary,
)
from llc_params.cocycles import CocycleSpace, ComponentDescriptor, cocycle_space, frob_fixed_scheme
from llc_params.errors import FrozenRecord, InvalidArgument
from llc_params.glparams import FBAR, GLFamily, ParamMatrices, TrselpGL
from llc_params.lattice import IntMatrix
from llc_params.rootdata import RunRows, WeylTwist, coxeter_twist, preset
from llc_params.sweep import GridCheck

Z120, Z5 = FinGenAbGroup(0, (120,)), FinGenAbGroup(0, (5,))
FLAG = {"code": "q-above-coxeter-number", "holds": True, "detail": "q = 11, Coxeter number = 2"}
COMPONENT = {
    "orbit_torus_rank": 1,
    "stabilizer": FinGenAbGroup(1, ()),
    "mu": Z5,
    "elliptic": True,
    "product_form": "torus_quotient",
    "fixed_scheme": Z120,
}
BLOCK = {
    "torsion": Z5,
    "free_rank": 1,
    "finite_torus_order": 120,
    "k": 1,
    "applicability": (ApplicabilityFlag(**FLAG),),
}
MATCH = {
    "component": ComponentDescriptor(**COMPONENT),
    "block": BlockDescriptor(**BLOCK),
    "isomorphic": True,
    "free_ranks_agree": True,
    "context_mismatch": False,
}
FLAG_REPR = (
    "ApplicabilityFlag(code='q-above-coxeter-number', holds=True, "
    "detail='q = 11, Coxeter number = 2')"
)
COMPONENT_REPR = (
    "ComponentDescriptor(orbit_torus_rank=1, stabilizer=FinGenAbGroup(free_rank=1, "
    "invariant_factors=()), mu=FinGenAbGroup(free_rank=0, invariant_factors=(5,)), "
    "elliptic=True, product_form='torus_quotient', "
    "fixed_scheme=FinGenAbGroup(free_rank=0, invariant_factors=(120,)))"
)
BLOCK_REPR = (
    "BlockDescriptor(torsion=FinGenAbGroup(free_rank=0, invariant_factors=(5,)), "
    f"free_rank=1, finite_torus_order=120, k=1, applicability=({FLAG_REPR},))"
)
MATCH_REPR = (
    f"MatchReport(component={COMPONENT_REPR}, block={BLOCK_REPR}, isomorphic=True, "
    "free_ranks_agree=True, context_mismatch=False)"
)

# (record class, its fields by keyword, its pinned repr)
RECORDS = [
    (
        WeylTwist,
        {"kind": "gl", "cycles": ((2, 1),), "sign": 1},
        "WeylTwist(kind='gl', cycles=((2, 1),), sign=1)",
    ),
    (
        CocycleSpace,
        {
            "free_torus_rank": 2,
            "fixed_scheme": Z120,
            "component_count": 24,
            "component_shape": FinGenAbGroup(2, (5,)),
        },
        "CocycleSpace(free_torus_rank=2, fixed_scheme=FinGenAbGroup(free_rank=0, "
        "invariant_factors=(120,)), component_count=24, "
        "component_shape=FinGenAbGroup(free_rank=2, invariant_factors=(5,)))",
    ),
    (ComponentDescriptor, COMPONENT, COMPONENT_REPR),
    (ApplicabilityFlag, FLAG, FLAG_REPR),
    (BlockDescriptor, BLOCK, BLOCK_REPR),
    (MatchReport, MATCH, MATCH_REPR),
    (
        CategoricalSummary,
        {"n": 2, "q": 11, "ell": 5, "match": MatchReport(**MATCH)},
        f"CategoricalSummary(n=2, q=11, ell=5, match={MATCH_REPR})",
    ),
    (
        GridCheck,
        {"check_id": "golden", "label": "GL_2 at q = 11", "passed": True, "detail": "3 ells"},
        "GridCheck(check_id='golden', label='GL_2 at q = 11', passed=True, detail='3 ells')",
    ),
    (RunRows, {"rows": (((0, 1), (1, 2)),)}, "RunRows(rows=(((0, 1), (1, 2)),))"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records_with_equal_hashes(cls, fields, text):
    a, b = cls(*fields.values()), cls(*fields.values())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_keyword_construction_matches_positional(cls, fields, text):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_another_class_with_the_same_fields_is_unequal(cls, fields, text):
    twin = type("Twin", (cls,), {"__slots__": ()})
    record = cls(**fields)
    assert record != twin(**fields) and twin(**fields) != record
    assert record != tuple(fields.values())


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_assignment_and_deletion_are_refused(cls, fields, text):
    record = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**fields)


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_the_fields_are_listed_in_order(cls, fields, text):
    assert cls.__match_args__ == tuple(fields)


def test_a_class_pattern_reads_the_fields_by_position():
    match WeylTwist("gl", ((2, 1),), -1):
        case WeylTwist(kind, cycles, sign):
            assert (kind, cycles, sign) == ("gl", ((2, 1),), -1)
        case _:
            pytest.fail("the pattern did not match")


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_repr_is_the_pinned_string(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls,fields,text", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal(cls, fields, text):
    record = cls(**fields)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_construction_needs_each_field_exactly_once():
    flag = ("code", True, "detail")
    for args, kwargs in (
        (flag[:2], {}),  # missing
        ((*flag, 1), {}),  # one too many
        (flag, {"code": "again"}),  # twice
        (flag[:2], {"details": "typo"}),  # unknown
    ):
        with pytest.raises(TypeError):
            ApplicabilityFlag(*args, **kwargs)


def test_the_builders_give_the_hand_built_records():
    summary = categorical_summary(2, 11, 5)
    assert summary == CategoricalSummary(2, 11, 5, MatchReport(**MATCH))
    space = cocycle_space(frob_fixed_scheme(coxeter_twist(preset("GL", 2)), 11), 2, 5)
    assert space == CocycleSpace(2, Z120, 24, FinGenAbGroup(2, (5,)))


def test_a_twist_refuses_a_bad_record_by_keyword_too():
    with pytest.raises(InvalidArgument):
        WeylTwist(kind="gl", cycles=((1, 0),), sign=1)


def test_a_command_defaults_its_unechoed_options():
    command = cli.COMMANDS["grid"]
    assert isinstance(command, FrozenRecord)
    assert command.unechoed == ()
    assert cli.COMMANDS["enumerate"].unechoed == ("limit", "offset")


# (a function that builds fresh equal values, an unequal value of the class,
# the pinned repr) for the value classes whose constructors take other
# arguments than their fields
VALUES = [
    (lambda: GLFamily(2, 11, 5), GLFamily(3, 11, 5), "GLFamily(n=2, q=11, ell=5)"),
    (
        lambda: TrselpGL(GLFamily(2, 11, 5), FBAR, a=25, b=7),  # a is taken mod 24
        TrselpGL(GLFamily(2, 11, 5), FBAR, a=1, b=8),
        "TrselpGL(n=2, q=11, ell=5, coeff='fbar', a=1, b=7)",
    ),
    (lambda: ParamMatrices(120, [1, 131], -1), ParamMatrices(7, [1], 0),
     "ParamMatrices(n=2, modulus=120)"),
    (lambda: IntMatrix([[2, 0], [6, 8]]), IntMatrix([[2, 0], [6, 9]]),
     "IntMatrix([[2, 0], [6, 8]])"),
    (lambda: IntMatrix([], cols=3), IntMatrix([], cols=2), "IntMatrix([], cols=3)"),
    (lambda: FinGenAbGroup(1, (4, 2, 3)), FinGenAbGroup(0, (2, 12)),
     "FinGenAbGroup(free_rank=1, invariant_factors=(2, 12))"),
]
VALUE_IDS = ["GLFamily", "TrselpGL", "ParamMatrices", "IntMatrix", "IntMatrix-empty",
             "FinGenAbGroup"]


@pytest.mark.parametrize("build,other,text", VALUES, ids=VALUE_IDS)
def test_a_value_refuses_assignment_and_stays_in_its_set(build, other, text):
    value = build()
    held = {value}
    for name in (*type(value).__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(other, name, 0))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value in held and value == build()


@pytest.mark.parametrize("build,other,text", VALUES, ids=VALUE_IDS)
def test_equal_values_hash_alike(build, other, text):
    a, b = build(), build()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other and a != text
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("build,other,text", VALUES, ids=VALUE_IDS)
def test_value_repr_is_the_pinned_string(build, other, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build,other,text", VALUES, ids=VALUE_IDS)
def test_value_copies_and_pickles_are_equal(build, other, text):
    value = build()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


@pytest.mark.parametrize("build,other,text", VALUES, ids=VALUE_IDS)
def test_a_wrapped_constructor_sees_each_construction(build, other, text, monkeypatch):
    """A value class validates in its own __init__, so a pass-through wrapper
    on cls.__init__ (perfbench/tracer.py times constructors so) sees one
    call per public construction and builds the same value."""
    expected = build()
    cls, calls = type(expected), []
    assert "__init__" in vars(cls)
    init = cls.__init__

    def wrapped(*args, **kwargs):
        calls.append(args)
        return init(*args, **kwargs)

    monkeypatch.setattr(cls, "__init__", wrapped)
    value = build()
    assert len(calls) == 1 and value == expected and repr(value) == text


def test_every_value_class_of_the_package_hashes_and_refuses_assignment():
    """A class of the public API that compares by value hashes and is frozen.

    A new value class needs a sample here, so none can slip in mutable."""
    samples = [build() for build, _, _ in VALUES] + [cls(**fields) for cls, fields, _ in RECORDS]
    samples.append(preset("GL", 2))
    by_class = {type(value): value for value in samples}
    value_classes = {
        obj for name in llc_params.__all__
        if isinstance(obj := getattr(llc_params, name), type) and obj.__eq__ is not object.__eq__
    }
    assert FinGenAbGroup in value_classes and value_classes <= by_class.keys()
    for cls in value_classes:
        value = by_class[cls]
        assert cls.__hash__ is not None, cls
        slots = [name for base in cls.__mro__ for name in vars(base).get("__slots__", ())]
        for name in (*slots, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)


def test_every_record_class_refuses_a_wrong_number_of_fields():
    """_make and _fill take exactly one value per field.

    A store that dropped the extra values, or left the last fields unset,
    would mint a record that equals nothing it should."""
    samples = [build() for build, _, _ in VALUES] + [cls(**fields) for cls, fields, _ in RECORDS]
    samples.append(preset("GL", 2))
    by_class = {type(value): value for value in samples}
    record_classes = {
        obj for name in llc_params.__all__
        if isinstance(obj := getattr(llc_params, name), type) and issubclass(obj, FrozenRecord)
    }
    assert {GLFamily, TrselpGL, ParamMatrices, IntMatrix} <= record_classes <= by_class.keys()
    for cls in record_classes:
        record = copy.copy(by_class[cls])
        values = record._values(record) if len(cls.__match_args__) > 1 else (record._values(record),)
        assert cls._make(*values) == record, cls
        for wrong in (values[:-1], (*values, values[-1])):
            with pytest.raises(TypeError):
                cls._make(*wrong)
            with pytest.raises(TypeError):
                record._fill(*wrong)
            assert record == by_class[cls], cls
