"""The value contract of every class that holds data: equal instances
compare equal, the immutable classes refuse attribute assignment and
deletion, and the hashable ones hash equal instances alike.  The cached
properties are computed once per instance."""

from fractions import Fraction

import pytest

from fewvar.algebra import SparsePolynomial
from fewvar.circuit import (AuditReport, ClassReport, FactorPoly,
                            FewVarCircuit, HomogDecomposition, HomogPiece)
from fewvar.measure import (BadMonomialReport, DerivedMeasure, MeasureParams,
                            MeasureReport, RatioReport, SurvivalReport)
from fewvar.nw import NWInstance, NWParams, NWReport
from fewvar.pit import (Blackbox, Design, DesignReport, PitParams, PitResult,
                        SZResult)


def poly(i):
    return SparsePolynomial(1, {((0, 1),): 3 + i})


def factor(i):
    return FactorPoly((0,), poly(i))


def nw_params(i):
    return NWParams(Fraction(0), 2 + i, Fraction(1, 2), Fraction(4), 37, 74,
                    1.5, 1.75, 2)


# name -> (instance i, where instances 0 and 1 differ in one field; a field
# name; whether assignment is refused; True when equal instances hash
# alike, False when hashing raises, None where the record was mutable and
# so unhashable before it became a NamedTuple)
CASES = {
    "SparsePolynomial": (poly, "terms", False, False),
    "FactorPoly": (factor, "support", True, False),
    "FewVarCircuit": (lambda i: FewVarCircuit(2, [(1, (factor(i),))], 1, None, 1),
                      "k", False, False),
    "HomogPiece": (lambda i: HomogPiece(1, (factor(i),), (), 0), "l_max", True,
                   False),
    "HomogDecomposition": (lambda i: HomogDecomposition(2, 1 + i, None, ()),
                           "pieces", True, True),
    "ClassReport": (lambda i: ClassReport(True, bool(i), True, True), "k_ok",
                    True, True),
    "AuditReport": (lambda i: AuditReport(1, 5 + i, [], 0.5, 0.25), "checks",
                    False, None),
    "MeasureParams": (lambda i: MeasureParams(1, 2 + i, (((0, 1),),)),
                      "m", True, True),
    "MeasureReport": (lambda i: MeasureReport(3 + i, 4, 5, True), "phi", False,
                      False),
    "BadMonomialReport": (lambda i: BadMonomialReport(1 + i, 2, (frozenset({0}),)),
                          "count", True, True),
    "SurvivalReport": (lambda i: SurvivalReport(10 + i, 0, 0.5, 1, 0.5, 0.4, 0.1,
                                                0.3, 0.5), "trials", False, None),
    "DerivedMeasure": (lambda i: DerivedMeasure(nw_params(i), 1, 1, 30, -2.5),
                       "nw", True, True),
    "RatioReport": (lambda i: RatioReport(10 + i, 0.0, 1, 1, 4, 74, 0.5, 0.25,
                                          0.125, True), "n", True, True),
    "NWParams": (nw_params, "n", True, True),
    "NWInstance": (lambda i: NWInstance(2 + i, 3, 1), "n", True, True),
    "NWReport": (lambda i: NWReport(9 + i, 9, True, True, True, 1, 1, True),
                 "monomial_count", True, True),
    "Design": (lambda i: Design(4 + i, 2, 2, 1), "b", True, True),
    "DesignReport": (lambda i: DesignReport(True, True, 1 + i, True, ()),
                     "max_intersection", True, True),
    "PitParams": (lambda i: PitParams(0.0, 3.0, 2, 1, 2, 1, 2, 1, 4 + i,
                                      ((0, 1), (2, 3)), (0, 1, 2)),
                  "l", True, True),
    "Blackbox": (lambda i: Blackbox(len, 2 + i), "num_vars", True, True),
    "PitResult": (lambda i: PitResult("witness", 3 + i, (1, 2), 5), "tested",
                  False, None),
    "SZResult": (lambda i: SZResult("witness", 3 + i, (1, 2), 5), "trials",
                 False, None),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_contract(name):
    make, field, frozen, hashable = CASES[name]
    a, b, other = make(0), make(0), make(1)
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b
    if hashable:
        assert hash(a) == hash(b)
    elif hashable is False:
        with pytest.raises(TypeError):
            hash(a)


def test_cached_properties_are_computed_once():
    C = CASES["FewVarCircuit"][0](0)
    assert C.integer_form is C.integer_form
    # L = 1; one term of multiplier 1 whose one factor is 3 * x0
    assert C.integer_form == (1, ((1, (((3, ((0, 1),)),),)),))
    inst = NWInstance(2, 3, 1)
    assert inst.columns is inst.columns
    assert inst.columns == ((0, 3), (1, 4), (2, 5))
    assert inst == NWInstance(2, 3, 1)
