"""The ten records: construction, equality, hashing, repr, immutability, copies."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from chshkit import (
    Angle,
    CounterfactualDataset,
    GammaResult,
    OutcomeSequence,
    ResortPolicy,
    ResortReport,
    RngSpec,
    SettingsQuad,
    SubRunDataset,
    SubRunPairs,
)
from helpers import seq

QUAD = SettingsQuad(Angle(0.25), Angle(0.5), Angle(1.0), Angle(2.0))
QUAD_REPR = ("SettingsQuad(a=Angle(radians=0.25), d=Angle(radians=0.5), "
             "b=Angle(radians=1.0), c=Angle(radians=2.0))")
PAIRS = SubRunPairs(seq(1, -1, 1), seq(-1, -1, 1))
PAIRS_REPR = "SubRunPairs(a=OutcomeSequence([+1,-1,+1], n=3), b=OutcomeSequence([-1,-1,+1], n=3))"
SEQ_REPR = "OutcomeSequence([+1,-1,+1], n=3)"


def _seqs():
    return seq(1, -1, 1), seq(-1, -1, 1), seq(1, 1, 1), seq(-1, 1, -1)


# Each record as (built positionally, the same built by keyword, a different
# value of the same record, its repr, whether it hashes).  Keyword and
# different values leave out whatever has a default.
RECORDS = {
    "Angle": (Angle(0.5), Angle(radians=0.5), Angle(0.25), "Angle(radians=0.5)", True),
    "SettingsQuad": (
        QUAD,
        SettingsQuad(a=Angle(0.25), d=Angle(0.5), b=Angle(1.0), c=Angle(2.0)),
        SettingsQuad(Angle(0.25), Angle(0.5), Angle(2.0), Angle(1.0)),
        QUAD_REPR,
        True,
    ),
    "OutcomeSequence": (
        seq(1, -1, 1),
        OutcomeSequence(values=np.array([1, -1, 1], dtype=np.int8)),
        seq(1, 1, 1),
        SEQ_REPR,
        False,
    ),
    "SubRunPairs": (
        PAIRS,
        SubRunPairs(a=seq(1, -1, 1), b=seq(-1, -1, 1)),
        SubRunPairs(seq(-1, -1, 1), seq(1, -1, 1)),
        PAIRS_REPR,
        False,
    ),
    "CounterfactualDataset": (
        CounterfactualDataset(*_seqs(), QUAD),
        CounterfactualDataset(*_seqs(), settings=QUAD),
        CounterfactualDataset(*_seqs()),
        "CounterfactualDataset(a_seq=OutcomeSequence([+1,-1,+1], n=3), "
        "d_seq=OutcomeSequence([-1,-1,+1], n=3), b_seq=OutcomeSequence([+1,+1,+1], n=3), "
        f"c_seq=OutcomeSequence([-1,+1,-1], n=3), settings={QUAD_REPR})",
        False,
    ),
    "SubRunDataset": (
        SubRunDataset(PAIRS, PAIRS, PAIRS, PAIRS, QUAD),
        SubRunDataset(ab=PAIRS, ac=PAIRS, db=PAIRS, dc=PAIRS, settings=QUAD),
        SubRunDataset(PAIRS, PAIRS, PAIRS, PAIRS),
        f"SubRunDataset(ab={PAIRS_REPR}, ac={PAIRS_REPR}, db={PAIRS_REPR}, "
        f"dc={PAIRS_REPR}, settings={QUAD_REPR})",
        False,
    ),
    "GammaResult": (
        GammaResult((1, 2, 3, 4), (1, 0, -3, 2)),
        GammaResult(n_used=(1, 2, 3, 4), product_sums=(1, 0, -3, 2)),
        GammaResult((1, 2, 3, 4), (1, 0, -3, 4)),
        "GammaResult(n_used=(1, 2, 3, 4), product_sums=(1, 0, -3, 2))",
        True,
    ),
    "ResortPolicy": (
        ResortPolicy(RngSpec(7)),
        ResortPolicy(rng=RngSpec(7)),
        ResortPolicy(),
        "ResortPolicy(rng=RngSpec(seed=7, stream=0))",
        True,
    ),
    "ResortReport": (
        ResortReport((0, 1, 0), 3, 0.5, None),
        ResortReport(count_deficits=(0, 1, 0), hamming_b=3, gamma_subruns=0.5,
                     gamma_resorted=None),
        ResortReport((0, 0, 0), 0, 0.5, 0.5),
        "ResortReport(count_deficits=(0, 1, 0), hamming_b=3, gamma_subruns=0.5, "
        "gamma_resorted=None)",
        True,
    ),
    "RngSpec": (RngSpec(7, 0), RngSpec(seed=7, stream=0), RngSpec(7, 1),
                "RngSpec(seed=7, stream=0)", True),
}

NAMES = sorted(RECORDS)

FIELDS = {
    "Angle": ("radians",),
    "SettingsQuad": ("a", "d", "b", "c"),
    "OutcomeSequence": ("values",),
    "SubRunPairs": ("a", "b"),
    "CounterfactualDataset": ("a_seq", "d_seq", "b_seq", "c_seq", "settings"),
    "SubRunDataset": ("ab", "ac", "db", "dc", "settings"),
    "GammaResult": ("n_used", "product_sums"),
    "ResortPolicy": ("rng",),
    "ResortReport": ("count_deficits", "hamming_b", "gamma_subruns", "gamma_resorted"),
    "RngSpec": ("seed", "stream"),
}


def test_equal_fields_in_different_records_differ():
    assert GammaResult(7, 0) != RngSpec(7, 0)
    assert SubRunPairs(*_seqs()[:2]) != GammaResult(*_seqs()[:2])


def test_defaults():
    assert RngSpec(7) == RngSpec(7, 0)
    assert ResortPolicy().rng is None
    assert CounterfactualDataset(*_seqs()).settings is None
    assert SubRunDataset(PAIRS, PAIRS, PAIRS, PAIRS).settings is None


@pytest.mark.parametrize("name", NAMES)
class TestRecord:
    def test_positional_and_keyword_construction_agree(self, name):
        built, by_keyword, other, _, _ = RECORDS[name]
        assert type(built).__name__ == name
        assert built == by_keyword
        assert not built != by_keyword
        assert built != other
        assert not built == other

    def test_equality_across_classes_is_false(self, name):
        built = RECORDS[name][0]
        for other_name in NAMES:
            if other_name != name:
                assert built != RECORDS[other_name][0]
        assert built != object()
        assert built.__eq__(object()) is NotImplemented

    def test_hash(self, name):
        built, by_keyword, _, _, hashable = RECORDS[name]
        if hashable:
            assert hash(built) == hash(by_keyword)
            assert hash(built) == hash(tuple(getattr(built, field) for field in FIELDS[name]))
            assert len({built, by_keyword}) == 1
        else:
            with pytest.raises(TypeError):
                hash(built)

    def test_repr(self, name):
        built, _, _, text, _ = RECORDS[name]
        assert repr(built) == text

    def test_assignment_and_deletion_raise(self, name):
        built = RECORDS[name][0]
        before = repr(built)
        for field in FIELDS[name]:
            with pytest.raises(AttributeError):
                setattr(built, field, None)
            with pytest.raises(AttributeError):
                delattr(built, field)
        with pytest.raises(AttributeError):
            built.extra = None
        assert repr(built) == before

    def test_copy_and_pickle_round_trip_equal(self, name):
        built = RECORDS[name][0]
        assert copy.copy(built) == built
        assert copy.deepcopy(built) == built
        assert pickle.loads(pickle.dumps(built)) == built
        assert type(pickle.loads(pickle.dumps(built))) is type(built)


def _frozen_arrays(record) -> list[bool]:
    """Whether each outcome array a record holds is read-only."""
    if isinstance(record, OutcomeSequence):
        return [not record.values.flags.writeable]
    if isinstance(record, SubRunPairs):
        return _frozen_arrays(record.a) + _frozen_arrays(record.b)
    parts = record.sequences if isinstance(record, CounterfactualDataset) else record.lists
    return [frozen for part in parts for frozen in _frozen_arrays(part)]


@pytest.mark.parametrize("name", ["OutcomeSequence", "SubRunPairs", "CounterfactualDataset",
                                  "SubRunDataset"])
@pytest.mark.parametrize("duplicate", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy,
                                       copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_copied_outcomes_stay_read_only(name, duplicate):
    original = RECORDS[name][0]
    duplicated = duplicate(original)
    assert duplicated == original
    assert all(_frozen_arrays(duplicated))
    assert all(_frozen_arrays(original))


def test_traced_methods_are_functions_of_their_own_class():
    # perfbench wraps these in the class __dict__ to count sequences and generators.
    assert inspect.isfunction(vars(OutcomeSequence)["__init__"])
    assert inspect.isfunction(vars(RngSpec)["generator"])
