"""The frozen records: construction, value equality, immutability and repr.

Each record is built by hand from the fields of the GL_2, q = 11, ell = 5
case.  The reprs are pinned strings, the ones the records printed when they
were dataclasses.
"""

import copy
import pickle

import pytest

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
from llc_params.rootdata import WeylTwist, coxeter_twist, preset
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
        {"kind": "gl", "perm": (1, 0), "sign": 1},
        "WeylTwist(kind='gl', perm=(1, 0), sign=1)",
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
    match WeylTwist("gl", (1, 0), -1):
        case WeylTwist(kind, perm, sign):
            assert (kind, perm, sign) == ("gl", (1, 0), -1)
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
        WeylTwist(kind="gl", perm=(0, 0), sign=1)


def test_a_command_defaults_its_unechoed_options():
    command = cli.COMMANDS["grid"]
    assert isinstance(command, FrozenRecord)
    assert command.unechoed == ()
    assert cli.COMMANDS["enumerate"].unechoed == ("limit", "offset")
