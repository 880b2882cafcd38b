"""Tests for the wire type language."""

import pytest

from repro.core.types import (
    BOOL,
    I32,
    UNIT,
    FloatType,
    IntType,
    TaggedType,
    TupleType,
    TypeVar,
    parse_type,
)
from repro.errors import TypeCheckError


class TestTypeConstruction:
    def test_int_width_must_be_positive(self):
        with pytest.raises(TypeCheckError):
            IntType(0)

    def test_float_width_restricted(self):
        with pytest.raises(TypeCheckError):
            FloatType(16)

    def test_concrete_types_have_no_free_vars(self):
        assert I32.is_concrete()
        assert TupleType(I32, BOOL).is_concrete()

    def test_type_var_is_not_concrete(self):
        assert not TypeVar("T").is_concrete()
        assert not TupleType(TypeVar("T"), BOOL).is_concrete()


class TestSubstitution:
    def test_substitute_into_tuple(self):
        pattern = TupleType(TypeVar("T"), TypeVar("U"))
        result = pattern.substitute({"T": I32, "U": BOOL})
        assert result == TupleType(I32, BOOL)

    def test_substitute_into_tagged(self):
        pattern = TaggedType(TypeVar("T"))
        assert pattern.substitute({"T": I32}) == TaggedType(I32)

    def test_unbound_var_left_alone(self):
        assert TypeVar("T").substitute({}) == TypeVar("T")


class TestParseType:
    @pytest.mark.parametrize(
        "typ",
        [UNIT, BOOL, I32, IntType(8), FloatType(64), TupleType(I32, BOOL),
         TaggedType(I32), TaggedType(TupleType(I32, BOOL), 4), TypeVar("T"),
         TupleType(TupleType(BOOL, BOOL), I32)],
    )
    def test_round_trip(self, typ):
        assert parse_type(str(typ)) == typ

    def test_garbage_rejected(self):
        with pytest.raises(TypeCheckError):
            parse_type("notatype!!")
