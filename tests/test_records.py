"""Value semantics shared by the public immutable records: equality and
hashing by exact class and fields, positional and keyword construction,
refused mutation, ``Name(field=value, ...)`` repr, copy and pickle, and
the exception each constructor check raises."""

import copy
import pickle
import re

import pytest

from binframe import (
    AffineSolutionSet,
    BinMatrix,
    BinVector,
    CanonicalMatrix,
    CirculantGram,
    DimensionError,
    Factorization,
    Frame,
    GramCandidate,
    InvalidInput,
    NonRepeatingPair,
    NotSpanningError,
    OrthogonalCatalog,
    OrthonormalSequence,
    ShapeError,
)

I2 = BinMatrix(2, (1, 2))
J2 = BinMatrix(2, (3, 3))
C3 = CirculantGram(3, BinVector(3, 7), 1)

# (class, field names, field values, other field values)
RECORDS = [
    (BinVector, ("n", "bits"), (4, 7), (4, 11)),
    (BinMatrix, ("cols", "data"), (2, (1, 2)), (2, (2, 1))),
    (AffineSolutionSet, ("n", "particular", "nullbasis"), (2, BinVector(2, 1), (BinVector(2, 2),)), (2, None, ())),
    (Frame, ("analysis",), (I2,), (BinMatrix(2, (2, 1)),)),
    (OrthonormalSequence, ("dim", "vecs"), (3, (BinVector(3, 1),)), (3, (BinVector(3, 7),))),
    (GramCandidate, ("m",), (I2,), (BinMatrix(2, (1, 0)),)),
    (Factorization, ("theta",), (I2,), (J2,)),
    (CanonicalMatrix, ("matrix", "row_perm", "col_perm"), (I2, (0, 1), (0, 1)), (I2, (1, 0), (1, 0))),
    (OrthogonalCatalog, ("k", "classes"), (2, (I2,)), (2, ())),
    (CirculantGram, ("k", "first_row", "rank"), (3, BinVector(3, 7), 1), (3, BinVector(3, 1), 3)),
    (NonRepeatingPair, ("gram", "theta"), (C3, BinMatrix(1, (1, 1, 1))), (C3, BinMatrix(1, (1, 0, 1)))),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls,names,values,other", RECORDS, ids=IDS)
def test_equality_and_hash_by_fields(cls, names, values, other):
    a, b = cls(*values), cls(*values)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert cls(*other) != a
    assert a != values and a != tuple(values)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls,names,values,other", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, other):
    a = cls(*values)
    assert cls(**dict(zip(names, values))) == a
    assert tuple(getattr(a, name) for name in names) == values


@pytest.mark.parametrize("cls,names,values,other", RECORDS, ids=IDS)
def test_assignment_and_deletion_are_refused(cls, names, values, other):
    a = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, name) for name in names) == values


@pytest.mark.parametrize("cls,names,values,other", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, names, values, other):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls,names,values,other", RECORDS, ids=IDS)
def test_copy_and_pickle_round_trip(cls, names, values, other):
    a = cls(*values)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a and hash(b) == hash(a)


@pytest.mark.parametrize("cls,names,values,other", RECORDS, ids=IDS)
def test_a_list_field_is_stored_as_a_tuple(cls, names, values, other):
    """A record built from lists equals, and hashes like, the one built
    from tuples, and emptying the lists afterwards changes nothing."""
    lists = [list(v) if isinstance(v, tuple) else v for v in values]
    a = cls(*lists)
    for v in lists:
        if isinstance(v, list):
            v.clear()
    assert a == cls(*values) and hash(a) == hash(cls(*values))
    assert repr(a) == repr(cls(*values))


@pytest.mark.parametrize("cls,names,values,other", RECORDS, ids=IDS)
def test_an_iterator_field_is_stored_as_a_tuple(cls, names, values, other):
    """A record built from iterators equals the one built from tuples:
    the checks in ``__post_init__`` do not use them up first."""
    a = cls(*[iter(v) if isinstance(v, tuple) else v for v in values])
    assert a == cls(*values) and hash(a) == hash(cls(*values))
    assert repr(a) == repr(cls(*values))


def test_a_matrix_keeps_the_rows_it_checked():
    """A row written into the source list later, here one wider than the
    matrix, does not reach it."""
    rows = [1, 2, 4]
    m = BinMatrix(3, rows)
    rows[0] = 8
    assert m.data == (1, 2, 4) and str(m) == "100\n010\n001"


def test_equality_needs_the_exact_class():
    assert Factorization(I2) != GramCandidate(I2)
    assert GramCandidate(I2) != Factorization(I2)
    assert BinVector(4, 7) != AffineSolutionSet(4, None, ())

    class Tagged(BinVector):
        pass

    assert Tagged(4, 7) != BinVector(4, 7) and BinVector(4, 7) != Tagged(4, 7)


def test_class_patterns_match_fields_positionally():
    assert all(cls.__match_args__ == names for cls, names, *_ in RECORDS)
    match NonRepeatingPair(C3, J2):
        case NonRepeatingPair(CirculantGram(k, BinVector(_, bits), rank), theta):
            assert (k, bits, rank, theta) == (3, 7, 1, J2)
        case _:
            pytest.fail("positional pattern did not match")


def test_new_attributes_are_refused():
    # frozen dataclasses with slots raised TypeError here on Python 3.11
    for cls, names, values, other in RECORDS:
        with pytest.raises(AttributeError):
            cls(*values).extra = 1


def test_repr_examples():
    assert repr(BinVector(4, 7)) == "BinVector(n=4, bits=7)"
    assert repr(BinMatrix(2, (1, 2))) == "BinMatrix(cols=2, data=(1, 2))"
    assert repr(Factorization(I2)) == "Factorization(theta=BinMatrix(cols=2, data=(1, 2)))"
    theta = Factorization(BinMatrix(1, (1, 1, 1)))
    assert (theta.theta.rows, theta.theta.cols) == (3, 1)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: BinVector(2, 8), ValueError, "bits 0x8 do not fit in dimension 2"),
        (lambda: BinVector(2, -1), ValueError, "bits 0x-1 do not fit in dimension 2"),
        (lambda: BinVector(0, 0), DimensionError, "vector dimension must be positive, got 0"),
        (lambda: BinMatrix(0, (1,)), DimensionError, "column count must be positive, got 0"),
        (lambda: BinMatrix(2, ()), DimensionError, "row count must be positive"),
        (lambda: BinMatrix(2, (1, 4)), ValueError, "row 1 has bits outside 2 columns"),
        (lambda: BinVector.basis(3, 3), DimensionError, "basis index 3 out of range for dimension 3"),
        (lambda: BinVector.from_bits([0, 2]), ValueError, "entries must be 0 or 1, got 2"),
        (lambda: BinMatrix.all_ones(0, 3), DimensionError, "shape (0, 3) must be positive"),
        (lambda: BinMatrix.from_rows([BinVector(3, 1), BinVector(3, 2), BinVector(2, 1)]).transpose(), DimensionError, "vector 2 has dimension 2, expected 3"),
        (lambda: BinMatrix.from_rows(()), DimensionError, "at least one vector is needed"),
        (lambda: BinMatrix.from_rows((BinVector(2, 1), BinVector(3, 1))), DimensionError, "vector 1 has dimension 3, expected 2"),
        (lambda: Frame(BinMatrix(2, (1, 1))), NotSpanningError, "vectors do not span GF(2)^2"),
        (lambda: OrthonormalSequence(0, ()), DimensionError, "ambient dimension must be positive, got 0"),
        (lambda: OrthonormalSequence(2, (BinVector(3, 1),)), DimensionError, "vector 0 has dimension 3, expected 2"),
        (lambda: OrthonormalSequence(2, (BinVector(2, 3),)), InvalidInput, "vector 0 is even, (v,v) = 0 != 1"),
        (lambda: OrthonormalSequence(3, (BinVector(3, 7), BinVector(3, 1))), InvalidInput, "vectors 0 and 1 are not orthogonal"),
        (lambda: GramCandidate(BinMatrix(3, (1, 2))), ShapeError, "Gram candidate must be square, got shape (2, 3)"),
        (lambda: GramCandidate(BinMatrix(2, (2, 0))), InvalidInput, "matrix is not symmetric"),
        (lambda: GramCandidate(BinMatrix(2, (3, 3))), InvalidInput, "matrix is not idempotent"),
    ],
)
def test_constructor_checks_raise_as_before(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "cls,args,kwargs,message",
    [
        (Factorization, (), {}, "Factorization() missing field 'theta'"),
        (Factorization, (I2,), {"m": I2}, "Factorization() got an unexpected field 'm'"),
        (Factorization, (I2,), {"theta": I2}, "Factorization() got multiple values for field 'theta'"),
        (Factorization, (I2, I2), {}, "Factorization() got 2 positional values for fields ('theta',)"),
        (OrthonormalSequence, (3,), {}, "OrthonormalSequence() missing field 'vecs'"),
        (OrthonormalSequence, (3, ()), {"dims": 3}, "OrthonormalSequence() got an unexpected field 'dims'"),
        (OrthonormalSequence, (3,), {"dim": 3, "vecs": ()}, "OrthonormalSequence() got multiple values for field 'dim'"),
    ],
)
def test_binder_refuses_missing_unexpected_and_repeated_fields(cls, args, kwargs, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        cls(*args, **kwargs)


def test_binder_mixes_positional_and_keyword_fields():
    assert CanonicalMatrix(I2, col_perm=(1, 0), row_perm=(0, 1)) == CanonicalMatrix(I2, (0, 1), (1, 0))
    with pytest.raises(InvalidInput):  # the checks run after binding
        OrthonormalSequence(vecs=(BinVector(2, 3),), dim=2)


def test_post_init_runs_on_every_construction(monkeypatch):
    """Keyword construction, copy, deepcopy and pickle all rebuild through
    ``__init__``, so each one runs the record's checks again."""
    calls = []
    check = GramCandidate.__post_init__

    def counted(self):
        calls.append(self.m)
        check(self)

    monkeypatch.setattr(GramCandidate, "__post_init__", counted)
    a = GramCandidate(m=I2)
    for rebuild in (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))):
        assert rebuild(a) == a
    assert calls == [I2] * 4


def test_rebuilding_a_frame_from_a_non_spanning_matrix_is_refused():
    cls, args = Frame(I2).__reduce__()
    assert cls(*args) == Frame(I2)
    with pytest.raises(NotSpanningError, match=r"^vectors do not span GF\(2\)\^2$"):
        cls(BinMatrix(2, (1, 1)))
