"""Inclusion-coefficient algebra: known values and set-theoretic
properties; the value classes that carry the analysis's parameters."""

import copy
import pickle
from collections.abc import Hashable
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racegroups.core import Mu, Params, inclusion, strongly_related, weakly_related
from racegroups.longterm import LongTermLabels
from racegroups.pipeline import RunConfig

MU_7_10 = Mu(7, 10)

athlete_sets = st.sets(st.integers(min_value=0, max_value=60), min_size=1, max_size=40)
mus = st.tuples(st.integers(2, 40), st.integers(2, 40)).filter(
    lambda pq: pq[1] < 2 * pq[0] <= 2 * pq[1]
).map(lambda pq: Mu(*pq))


class TestMu:
    def test_valid_range_enforced(self):
        Mu(7, 10)
        Mu(1, 1)
        Mu(51, 100)
        with pytest.raises(ValueError):
            Mu(1, 2)  # exactly 1/2 is excluded
        with pytest.raises(ValueError):
            Mu(11, 10)
        with pytest.raises(ValueError):
            Mu(0, 1)
        with pytest.raises(ValueError):
            Mu(7, -10)

    def test_parse_ratio_and_decimal(self):
        assert Mu.parse("7/10") == Mu(7, 10)
        assert Mu.parse("0.7") == Mu(7, 10)
        assert Mu.parse("0.51") == Mu(51, 100)
        assert Mu.parse(" 17/20 ") == Mu(17, 20)
        assert Mu.parse("1") == Mu(1, 1)
        with pytest.raises(ValueError):
            Mu.parse("0.5")
        with pytest.raises(ValueError):
            Mu.parse("seven tenths")
        with pytest.raises(ValueError):
            Mu.parse("7/0")

    def test_normalized_for_equality(self):
        assert Mu(14, 20) == Mu(7, 10)

    def test_covers_is_exact_at_boundary(self):
        # 7/10 of 20 is exactly 14: integer comparison must not wobble
        assert MU_7_10.covers(14, 20)
        assert not MU_7_10.covers(13, 20)


class TestParams:
    def test_validation(self):
        Params(epsilon=0, m=1, mu=MU_7_10)
        with pytest.raises(ValueError):
            Params(epsilon=-1, m=1, mu=MU_7_10)
        with pytest.raises(ValueError):
            Params(epsilon=0, m=0, mu=MU_7_10)


class TestIntegerFields:
    """Every field a threshold test reads is an int, never a float or a
    bool, and mu is a Mu; the wrong type is refused at construction."""

    @pytest.mark.parametrize(
        "build, field, value",
        [
            (lambda: Params(epsilon=2000.0, m=7, mu=MU_7_10), "epsilon", "2000.0"),
            (lambda: Params(epsilon=2000, m=7.5, mu=MU_7_10), "m", "7.5"),
            (lambda: Params(epsilon=True, m=True, mu=Mu(1, 1)), "epsilon", "True"),
            (lambda: Params(epsilon=2000, m=True, mu=Mu(1, 1)), "m", "True"),
            (lambda: Params(epsilon=2000, m=7, mu=(7, 10)), "mu", "(7, 10)"),
            (lambda: Mu(0.7, 1), "num", "0.7"),
            (lambda: Mu(7, 10.0), "den", "10.0"),
            (lambda: Mu(True, True), "num", "True"),
            (
                lambda: RunConfig(
                    params=Params(2000, 7, MU_7_10), course={0: 0.5, 1: 1000.25}
                ),
                "course distance at control point 0",
                "0.5",
            ),
            (
                lambda: RunConfig(params=Params(2000, 7, MU_7_10), course={0.0: 0, 1: 5}),
                "course control point",
                "0.0",
            ),
        ],
        ids=[
            "float-epsilon",
            "float-m",
            "bool-epsilon-and-m",
            "bool-m",
            "tuple-mu",
            "float-num",
            "float-den",
            "bool-mu",
            "float-distances",
            "float-cp",
        ],
    )
    def test_wrong_type_refused(self, build, field, value):
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value).startswith(f"{field} must be ")
        assert str(info.value).endswith(f"got {value}")

    def test_out_of_range_keeps_its_value_error(self):
        with pytest.raises(ValueError, match="epsilon must be >= 0 ms, got -1"):
            Params(epsilon=-1, m=7, mu=MU_7_10)
        with pytest.raises(ValueError, match=r"mu must be > 1/2, got 1/2"):
            Mu(1, 2)
        with pytest.raises(ValueError, match="control point -1 is negative"):
            RunConfig(params=Params(2000, 7, MU_7_10), course={-1: 0, 1: 5})


PARAMS = Params(epsilon=2000, m=7, mu=MU_7_10)
LEVELS = {"surviving": [[0, 1], [1]]}


class TestValueSemantics:
    """Equality, hash, repr, immutability and copying of the value
    classes read as those of frozen dataclasses."""

    def test_mu_by_value(self):
        assert Mu(14, 20) == Mu(7, 10)
        assert hash(Mu(14, 20)) == hash(Mu(7, 10))
        assert Mu(7, 10) != (7, 10)
        assert Mu(7, 10) != Mu(3, 4)

    def test_params_and_config_by_value(self):
        same = Params(epsilon=2000, m=7, mu=Mu(14, 20))
        assert same == PARAMS and hash(same) == hash(PARAMS)
        assert Params(epsilon=2000, m=8, mu=MU_7_10) != PARAMS
        config = RunConfig(params=PARAMS, pace_factor=1.5)
        assert config == RunConfig(params=same) and hash(config) == hash(RunConfig(same))
        assert config != RunConfig(params=PARAMS, mode="online")
        with_course = RunConfig(params=PARAMS, course={0: 0, 1: 5})
        assert with_course == RunConfig(params=same, course={0: 0, 1: 5})
        with pytest.raises(TypeError, match="unhashable"):
            hash(with_course)

    def test_reprs(self):
        assert repr(PARAMS) == "Params(epsilon=2000, m=7, mu=Mu(num=7, den=10))"
        assert repr(RunConfig(params=PARAMS)) == (
            "RunConfig(params=Params(epsilon=2000, m=7, mu=Mu(num=7, den=10)), "
            "mode='finalized', course=None, pace_factor=Fraction(3, 2))"
        )
        assert repr(LongTermLabels(0, LEVELS)) == "LongTermLabels()"
        assert repr(RunConfig(params=PARAMS, course={0: 0, 1: 5})) == (
            "RunConfig(params=Params(epsilon=2000, m=7, mu=Mu(num=7, den=10)), "
            "mode='finalized', course={0: 0, 1: 5}, pace_factor=Fraction(3, 2))"
        )

    def test_course_copied_and_read_only(self):
        course = {0: 0, 1: 5}
        config = RunConfig(params=PARAMS, course=course)
        course[1] = 0
        del course[0]
        assert config.course == {0: 0, 1: 5}
        changes = [
            lambda c: c.__setitem__(1, 0),
            lambda c: c.__delitem__(0),
            lambda c: c.__ior__({1: 0}),
            lambda c: c.clear(),
            lambda c: c.pop(0),
            lambda c: c.popitem(),
            lambda c: c.setdefault(2, 1),
            lambda c: c.update({1: 0}),
        ]
        for change in changes:
            with pytest.raises(TypeError, match="read-only"):
                change(config.course)
        assert config.course == {0: 0, 1: 5}
        for copied in (copy.deepcopy(config), pickle.loads(pickle.dumps(config))):
            with pytest.raises(TypeError, match="read-only"):
                copied.course[1] = 0

    @pytest.mark.parametrize(
        "value, fields",
        [
            (MU_7_10, ("num", "den")),
            (PARAMS, ("epsilon", "m", "mu")),
            (RunConfig(params=PARAMS), ("params", "mode", "course", "pace_factor")),
            (LongTermLabels(0, LEVELS), ("_first", "_levels")),
        ],
        ids=["Mu", "Params", "RunConfig", "LongTermLabels"],
    )
    def test_frozen(self, value, fields):
        for name in fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert hasattr(value, name)

    def test_copy_and_pickle(self):
        for value in (MU_7_10, PARAMS, RunConfig(params=PARAMS, course={0: 0, 1: 5})):
            assert copy.copy(value) == value
            assert copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value
        config = pickle.loads(pickle.dumps(RunConfig(params=PARAMS, pace_factor=1.1)))
        assert config.pace_factor == Fraction(11, 10)

    def test_labels_by_value(self):
        labels = LongTermLabels(0, LEVELS)
        twin = LongTermLabels(0, {"surviving": [[0, 1], [1]]})
        assert not hasattr(labels, "__dict__")
        assert labels == twin
        assert labels != LongTermLabels(1, LEVELS)
        groups = [(0, 0), (0, 1), (1, 0)]
        assert [labels.at("surviving", v) for v in groups] == [0, 1, 1]
        assert LongTermLabels(1, LEVELS).at("surviving", (2, 0)) == 1

    def test_only_labels_unhashable(self):
        labels = LongTermLabels(0, LEVELS)
        assert not isinstance(labels, Hashable)
        with pytest.raises(TypeError, match="unhashable"):
            hash(labels)
        for value in (MU_7_10, PARAMS, RunConfig(params=PARAMS)):
            assert isinstance(value, Hashable)
            assert hash(value) == hash(copy.copy(value))


class TestInclusion:
    def test_identity(self):
        a = {1, 2, 3}
        assert inclusion(a, a) == (3, 3)

    def test_disjoint(self):
        assert inclusion({1, 2, 3, 4, 5}, {9}) == (0, 5)

    def test_half(self):
        assert inclusion({1, 2, 3, 4}, {1, 2, 5}) == (2, 4)

    def test_empty_first_set_rejected(self):
        with pytest.raises(ValueError):
            inclusion(set(), {1})

    @given(a=athlete_sets, b=athlete_sets)
    def test_bounds(self, a, b):
        part, whole = inclusion(a, b)
        assert 0 <= part <= whole == len(a)


class TestWeakRelation:
    def test_subset_always_related(self):
        assert weakly_related({1, 2}, {1, 2, 3, 4}, Mu(1, 1))

    def test_exact_half_never_related(self):
        # mu > 1/2 by construction, so a 50% overlap can never qualify
        assert not weakly_related({1, 2, 3, 4}, {1, 2, 5}, Mu(51, 100))

    def test_nine_of_ten(self):
        a = set(range(1, 11))
        b = set(range(1, 10)) | {11}
        assert weakly_related(a, b, MU_7_10)

    def test_asymmetry_witness(self):
        a = {1, 2, 3, 4}
        b = set(range(1, 13))
        assert weakly_related(a, b, MU_7_10) != weakly_related(b, a, MU_7_10)


class TestStrongRelation:
    def test_identity(self):
        assert strongly_related({1, 2}, {1, 2}, Mu(1, 1))

    def test_nine_of_ten_both_ways(self):
        a = set(range(1, 11))
        b = set(range(1, 10)) | {11}
        assert strongly_related(a, b, MU_7_10)

    def test_small_subset_of_large(self):
        a = {1, 2, 3, 4}
        b = set(range(1, 13))
        assert weakly_related(a, b, MU_7_10)
        assert not strongly_related(a, b, MU_7_10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            strongly_related({1}, set(), MU_7_10)


@st.composite
def disjoint_pair(draw):
    a = draw(athlete_sets)
    b = draw(athlete_sets.map(lambda s: {x + 100 for x in s}))
    return a, b


class TestPropositions:
    @given(a=athlete_sets, pair=disjoint_pair(), mu=mus)
    @settings(max_examples=200)
    def test_at_most_one_disjoint_weak_partner(self, a, pair, mu):
        # mu > 1/2 forces: disjoint b, b2 cannot both hold most of a
        b, b2 = pair
        assert not (weakly_related(a, b, mu) and weakly_related(a, b2, mu))

    @given(
        parts=st.lists(athlete_sets, min_size=1, max_size=4),
        b=athlete_sets,
    )
    @settings(max_examples=200)
    def test_union_intersection_adds_up(self, parts, b):
        disjoint = []
        offset = 0
        for p in parts:  # shift each part into its own range
            disjoint.append({x + offset for x in p})
            offset += 100
        union = set().union(*disjoint)
        assert len(union & b) == sum(len(p & b) for p in disjoint)

    @given(
        parts=st.lists(athlete_sets, min_size=1, max_size=4),
        b=athlete_sets,
        mu=mus,
    )
    @settings(max_examples=200)
    def test_union_preserves_weak_relation(self, parts, b, mu):
        disjoint = []
        offset = 0
        for p in parts:
            disjoint.append({x + offset for x in p})
            offset += 100
        grown = b | {next(iter(d)) for d in disjoint}  # give every part a chance
        if all(weakly_related(d, grown, mu) for d in disjoint):
            assert weakly_related(set().union(*disjoint), grown, mu)

    @given(
        a=athlete_sets,
        family=st.lists(athlete_sets, min_size=2, max_size=5),
        mu=mus,
    )
    @settings(max_examples=200)
    def test_at_most_one_weak_partner_in_a_partition(self, a, family, mu):
        # groups at one control point are disjoint, so a group one
        # step away relates weakly to at most one of them
        disjoint = []
        offset = 0
        for p in family:
            disjoint.append({x + offset for x in p})
            offset += 100
        partners = [d for d in disjoint if weakly_related(a, d, mu)]
        assert len(partners) <= 1

    @given(
        a=athlete_sets,
        family=st.lists(athlete_sets, min_size=2, max_size=5),
        mu=mus,
    )
    @settings(max_examples=200)
    def test_at_most_one_strong_partner_in_a_partition(self, a, family, mu):
        disjoint = []
        offset = 0
        for p in family:
            disjoint.append({x + offset for x in p})
            offset += 100
        strong = [d for d in disjoint if strongly_related(a, d, mu)]
        assert len(strong) <= 1
