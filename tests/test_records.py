"""The value semantics of `rationals.Record` and of the package's record types."""

from fractions import Fraction

import pytest

from conftest import fixture_path
from sarxid import (
    IdentifiabilityReport,
    IdentifiableRegion,
    InjectivityEvidence,
    IsoSolution,
    Lss,
    LssMinimalityCertificate,
    LssMode,
    MinimalityVerdict,
    MultiPoly,
    PolyParametrization,
    RatMatrix,
    SarxModel,
    SarxType,
    procedure1,
)
from sarxid.rationals import FrozenInstanceError, InputError, Record


def one_mode_lss(n=1):
    mode = LssMode(RatMatrix.identity(n), RatMatrix.zeros(n, 1), RatMatrix.zeros(1, n))
    return Lss(n, 1, 1, {"1": mode}, RatMatrix.zeros(n, 1))


def certificate(minimal=True):
    return LssMinimalityCertificate(minimal, 2, 0, 2)


def theta_family():
    t = MultiPoly.variable(("t",), 0)
    return PolyParametrization(1, 1, 1, 1, {"1": (t, t * t)}, ("t",))


# one zero-argument builder per record class of the package; each call builds a new value
RECORDS = {
    IdentifiabilityReport: lambda: IdentifiabilityReport(
        False, True, InjectivityEvidence("no-collision-found"), ("injectivity is unproven",)),
    IdentifiableRegion: lambda: procedure1(
        PolyParametrization.load(fixture_path("example8_first_family.json"))),
    InjectivityEvidence: lambda: InjectivityEvidence("collision", ((0, Fraction(1, 2)), (1, 0))),
    IsoSolution: lambda: IsoSolution("unique-other", RatMatrix([[0, 1], [1, 0]]), 0),
    Lss: one_mode_lss,
    LssMinimalityCertificate: certificate,
    LssMode: lambda: one_mode_lss().modes["1"],
    MinimalityVerdict: lambda: MinimalityVerdict(
        "both", True, ("1", "2"), ("2", "1"), Fraction(-3), certificate()),
    PolyParametrization: theta_family,
    SarxModel: lambda: SarxModel(1, 1, 1, 2, {"1": RatMatrix([["1/2", 0, "-3"]])}),
    SarxType: lambda: SarxType(1, 1, 1, 1, {"1": RatMatrix([[0, 1]])}),
}


def record_classes(base=Record):
    """The subclasses of `base` defined in the package, found recursively.

    Importing `sarxid` imports every module but `cli`, which defines no record.
    """
    found = set()
    for cls in base.__subclasses__():
        if cls.__module__.startswith("sarxid."):
            found.add(cls)
        found |= record_classes(cls)
    return found


def hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_the_registry_covers_every_record_class():
    assert set(RECORDS) == record_classes()


@pytest.mark.parametrize("cls", sorted(RECORDS, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_two_builds_compare_and_hash_equal(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is type(b) is cls and a is not b
    assert a == b and not a != b
    if all(hashable(v) for v in a._values()):
        assert hash(a) == hash(b)


def test_construction_by_position_keyword_and_default():
    a, b, c = RatMatrix.identity(2), RatMatrix.zeros(2, 1), RatMatrix.zeros(1, 2)
    assert LssMode(a, b, c) == LssMode(c=c, a=a, b=b)
    assert LssMode(a, b, c).b is b
    verdict = MinimalityVerdict("exact-rank", True)
    assert verdict == MinimalityVerdict(method="exact-rank", strong_minimal=True, certificate=None)
    assert verdict.condition_a_witness is None and verdict.certificate is None
    assert InjectivityEvidence("no-collision-found").collision is None


def test_missing_or_unknown_field_is_a_type_error():
    a = RatMatrix.identity(1)
    with pytest.raises(TypeError):
        LssMode(a, a)
    with pytest.raises(TypeError):
        LssMode(a, a, a, a)
    with pytest.raises(TypeError):
        IsoSolution(kind="none", witness=None, family_dim=0, rank=1)
    with pytest.raises(TypeError):
        MinimalityVerdict(strong_minimal=True)


@pytest.mark.parametrize("record", [certificate(), one_mode_lss(),
                                    InjectivityEvidence("injective-affine")],
                         ids=lambda r: type(r).__name__)
def test_assignment_and_deletion_raise(record):
    field = record._fields[0]
    with pytest.raises(FrozenInstanceError, match="cannot assign to field"):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(record, field)
    assert getattr(record, field) is not None
    assert issubclass(FrozenInstanceError, AttributeError)


def test_equality_within_and_across_classes():
    assert certificate() == certificate() and not certificate() != certificate()
    assert certificate() != certificate(minimal=False)
    assert one_mode_lss() == one_mode_lss() and one_mode_lss(1) != one_mode_lss(2)
    modes = {"1": RatMatrix([[0, 1]])}
    model, base = SarxModel(1, 1, 1, 1, modes), SarxType(1, 1, 1, 1, modes)
    assert model != base and base != model
    assert InjectivityEvidence("collision") != IsoSolution("collision", None, 0)
    assert certificate() != (True, 2, 0, 2)


def test_equal_records_hash_equal():
    evidence = InjectivityEvidence("collision", ((1, 2), (3, 4)))
    assert hash(evidence) == hash(InjectivityEvidence("collision", ((1, 2), (3, 4))))
    assert hash(certificate()) == hash(certificate())
    assert len({certificate(), certificate(), certificate(minimal=False)}) == 2
    with pytest.raises(TypeError):
        hash(one_mode_lss())  # its modes are a dict


def test_repr_names_the_class_and_its_fields():
    assert repr(certificate()) == (
        "LssMinimalityCertificate(minimal=True, reachable_dim=2, unobservable_dim=0, state_dim=2)"
    )
    assert repr(InjectivityEvidence("collision", ((1,), (2,)))) == (
        "InjectivityEvidence(kind='collision', collision=((1,), (2,)))"
    )


def test_fields_follow_the_base_fields_in_order():
    modes = {"1": RatMatrix([[0, 1]])}
    assert SarxType._fields == SarxModel._fields == ("ny", "nu", "p", "m", "modes")
    assert repr(SarxModel(2, 1, 1, 1, {"1": RatMatrix([[0, 1, 2]])})).startswith(
        "SarxModel(ny=2, nu=1, p=1, m=1, modes="
    )
    assert SarxModel(1, 1, 1, 1, modes).modes is modes
    t = MultiPoly.variable(("t",), 0)
    par = PolyParametrization(1, 1, 1, 1, {"1": (t, t)}, ("t",))
    assert PolyParametrization._fields == SarxType._fields + ("vars",)
    assert (par.ny, par.nu, par.p, par.m, par.vars) == (1, 1, 1, 1, ("t",))


def test_a_subclass_extends_its_base_and_keeps_class_values_as_defaults():
    class Point(Record):
        x: int
        y: int = 0

    class Point3(Point):
        z: int = 0

        def __post_init__(self):
            if self.z < 0:
                raise ValueError("negative z")

    assert Point(1) == Point(1, 0) and Point(1).y == 0
    assert Point3._fields == ("x", "y", "z")
    assert repr(Point3(1, z=2)).endswith(".<locals>.Point3(x=1, y=0, z=2)")  # the qualified name
    assert Point3(1) != Point(1)
    with pytest.raises(ValueError, match="negative z"):
        Point3(1, 2, -1)


def test_post_init_refusals_still_raise_input_error():
    with pytest.raises(InputError, match="positive state dimension"):
        Lss(0, 1, 1, {"1": LssMode(RatMatrix.zeros(0, 0), RatMatrix.zeros(0, 1),
                                   RatMatrix.zeros(1, 0))}, RatMatrix.zeros(0, 1))
    with pytest.raises(InputError, match="has shape"):
        SarxModel(1, 1, 1, 1, {"1": RatMatrix([[0, 1, 2]])})
    t, s = MultiPoly.variable(("t",), 0), MultiPoly.variable(("s",), 0)
    with pytest.raises(InputError, match="different ring"):
        PolyParametrization(1, 1, 1, 1, {"1": (t, s)}, vars=("t",))
