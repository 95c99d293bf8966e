"""The package's frozen records against dataclass twins of the same fields.

Each record class was a `@dataclass(frozen=True)`; it is now a `groups.Record`.  Its
twin here is the dataclass it was: the fields and defaults written out below, and the
record's own `__post_init__`.  Record and twin must agree on the repr, `==`, `hash`,
the errors of a bad call and of assigning or deleting a field, and `replace`.
"""

import ast
import dataclasses
import importlib
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylinderstat
from cylinderstat.charfn import CylinderCF, TorusCF
from cylinderstat.families import Family, TriadVerdict
from cylinderstat.fdiff import ProfileFit
from cylinderstat.groups import CylinderAuto, CylinderPoint, DualPoint, Record, replace
from cylinderstat.independence import (ConditionReport, DualGrid, StatMatrix, StepSubgroups,
                                       SubgroupTag)
from cylinderstat.montecarlo import SampleSet
from cylinderstat.solenoid import AdicInteger, BaseSequence

# Each record's fields as its dataclass declared them: a name, or (name, type, default).
FIELDS = {
    CylinderPoint: ["t", "theta"],
    DualPoint: ["s", "n"],
    CylinderAuto: ["a", ("c", object, 0), ("p", int, 1)],
    CylinderCF: ["sigma", *((name, object, 0) for name in ("kappa", "lam", "tau", "theta",
                                                          "twist"))],
    TorusCF: ["sigma", ("theta", object, 0), ("twist", object, 0)],
    StatMatrix: ["rows"],
    DualGrid: ["points", "n_slots", ("cap", int, 100_000)],
    ConditionReport: ["cubic", "sign_row", "distinct_a", "distinct_b", "cross_det",
                      "corner_det"],
    StepSubgroups: ["col1", "col2", "cross"],
    Family: ["label", "matrix", "cfs", ("omega", object, None)],
    TriadVerdict: ["matrix", "sigma_solution", "only_degenerate"],
    ProfileFit: ["exact_sigma", "n_start", "exact_kappa", "exact_lam"],
    SampleSet: ["t", "theta"],
    BaseSequence: ["entries"],
    AdicInteger: ["digits"],
}


def _twin(cls):
    """The frozen dataclass of cls's fields, with cls's `__post_init__`."""
    namespace = {}
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = vars(cls)["__post_init__"]
    return dataclasses.make_dataclass(cls.__name__, FIELDS[cls], namespace=namespace,
                                      frozen=True)


TWINS = {cls: _twin(cls) for cls in FIELDS}


def _init_names(cls) -> list:
    return [f.name for f in dataclasses.fields(TWINS[cls]) if f.init]


def outcome(fn, *args, **kwargs):
    """("value", repr of fn's result), or the class name and message of its exception."""
    try:
        return "value", repr(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc).__name__, str(exc)


small = st.integers(-3, 3)
exact = st.one_of(small, st.fractions(-3, 3, max_denominator=4))
autos = st.builds(CylinderAuto, exact.filter(bool), exact, st.sampled_from([1, -1]))


@st.composite
def matrices(draw):
    n = draw(st.integers(2, 3))
    return StatMatrix(tuple(tuple(draw(autos) for _ in range(n)) for _ in range(n)))


tags = st.sampled_from(list(SubgroupTag))
short = st.lists(exact, min_size=1, max_size=3).map(tuple)
# Arguments of each record, including some its __post_init__ refuses.
ARGS = {
    CylinderPoint: st.tuples(st.one_of(exact, st.floats(-10, 10)),
                             st.one_of(exact, st.floats(-10, 10))),
    DualPoint: st.tuples(exact, st.one_of(small, st.just(1.5), st.just(True))),
    CylinderAuto: st.tuples(exact, exact, st.sampled_from([1, -1, 2])),
    CylinderCF: st.tuples(*[exact] * 6),
    TorusCF: st.tuples(exact, exact, exact),
    StatMatrix: st.tuples(st.one_of(matrices().map(lambda m: m.rows),
                                    st.lists(st.lists(autos, max_size=3), max_size=3))),
    DualGrid: st.tuples(st.lists(small, min_size=1, max_size=3), st.integers(1, 3),
                        st.integers(1, 30)),
    ConditionReport: st.tuples(exact, st.one_of(st.none(), st.integers(1, 6)),
                               st.booleans(), st.booleans(), exact, exact),
    StepSubgroups: st.tuples(tags, tags, tags),
    Family: st.tuples(st.sampled_from(["line-gaussian", "twisted-pair"]), matrices(),
                      st.lists(st.builds(CylinderCF, exact.map(abs)), max_size=3).map(tuple),
                      st.one_of(st.none(), exact)),
    TriadVerdict: st.tuples(matrices(), st.tuples(small, small, small), st.booleans()),
    ProfileFit: st.tuples(exact, small, short, short),
    SampleSet: st.tuples(st.lists(st.floats(-10, 10), min_size=1, max_size=2),
                         st.lists(st.floats(-10, 10), min_size=1, max_size=2)),
    BaseSequence: st.tuples(st.lists(st.integers(1, 5), max_size=3).map(tuple)),
    AdicInteger: st.tuples(st.lists(st.integers(0, 5), max_size=3).map(tuple)),
}
RECORDS = list(FIELDS)


def test_every_record_has_a_twin():
    """The records the package's modules define are the 15 classes tested here."""
    package = Path(cylinderstat.__file__).parent
    modules = [importlib.import_module(f"cylinderstat.{path.stem}")
               for path in sorted(package.glob("*.py"))]
    records = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record}
    assert records == set(FIELDS) and len(FIELDS) == 15


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_matches_its_dataclass_twin(cls, data):
    twin, args = TWINS[cls], data.draw(ARGS[cls])
    assert outcome(cls, *args) == outcome(twin, *args)
    names = _init_names(cls)
    assert outcome(cls, **dict(zip(names, args))) == outcome(cls, *args)
    try:
        twin_value = twin(*args)
    except (TypeError, ValueError):
        return
    value, again = cls(*args), cls(*args)
    twin_again = twin(*args)
    assert outcome(lambda: value == again) == outcome(lambda: twin_value == twin_again)
    assert outcome(hash, value) == outcome(hash, twin_value)
    assert value != twin_value and not value == twin_value
    assert value != 0 and value != (*args,)
    for name in [f.name for f in dataclasses.fields(twin)] + ["other"]:
        assert outcome(setattr, value, name, 1) == outcome(setattr, twin_value, name, 1)
        assert outcome(delattr, value, name) == outcome(delattr, twin_value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    other = data.draw(ARGS[cls])
    assert (outcome(lambda: value == cls(*other))
            == outcome(lambda: twin_value == twin(*other)))
    # replace: one field from another draw, every field, none, DualGrid's derived
    # attribute, an unknown name.
    k = data.draw(st.integers(0, len(names) - 1))
    for changes in ({names[k]: other[k]}, dict(zip(names, other)), {}, {"total": 1},
                    {"other": 1}):
        assert outcome(replace, value, **changes) == outcome(dataclasses.replace,
                                                             twin_value, **changes)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_bad_calls_raise_the_same_type_error(cls, data):
    """A missing, extra, repeated or unknown argument: the TypeError of the dataclass."""
    twin, args = TWINS[cls], data.draw(ARGS[cls])
    names = _init_names(cls)
    k = data.draw(st.integers(0, len(names)))
    kwargs = data.draw(st.dictionaries(st.sampled_from([*names, "other"]), small,
                                       max_size=3))
    for call_args, call_kwargs in [(args[:k], {}), ((*args, 0), {}), (args[:k], kwargs),
                                   ((*args, 0, 1), kwargs)]:
        assert (outcome(cls, *call_args, **call_kwargs)
                == outcome(twin, *call_args, **call_kwargs))
    required = [name for name in names if name not in cls._defaults]
    assert outcome(cls, *args, 0)[0] == "TypeError"
    assert outcome(cls, *args, other=0)[0] == "TypeError"
    if k < len(required):
        assert outcome(cls, *args[:k])[0] == "TypeError"


def test_equality_needs_the_same_class():
    """Equal field values of two record classes, as of a dataclass and its twin, differ."""
    point, dual = CylinderPoint(1, 2), DualPoint(1, 2)
    assert (point.t, point.theta) == (dual.s, dual.n)
    assert point != dual and not point == dual
    assert TWINS[CylinderPoint](1, 2) != TWINS[DualPoint](1, 2)


def test_derived_attributes_are_not_fields():
    """DualGrid's total and step follow from its fields: set by `__post_init__`, frozen,
    and neither arguments nor part of the repr, `==` or `hash`."""
    grid = DualGrid((1, 2, 3), 3, cap=10)
    assert (grid.total, grid.step) == (27, 4)
    assert repr(grid) == "DualGrid(points=(1, 2, 3), n_slots=3, cap=10)"
    assert hash(grid) == hash(((1, 2, 3), 3, 10))
    with pytest.raises(AttributeError, match="cannot assign to field 'step'"):
        grid.step = 1
    for call in (lambda: DualGrid((1, 2), 2, total=4), lambda: replace(grid, total=1)):
        with pytest.raises(TypeError, match="unexpected keyword argument 'total'"):
            call()
    assert (replace(grid, cap=100).total, replace(grid, cap=100).step) == (27, 1)


def test_cached_property_on_a_frozen_record():
    fit = ProfileFit(Fraction(1, 2), -1, (Fraction(1), 2, 3), (0, 1, 0))
    assert fit.kappa is fit.kappa and list(fit.kappa) == [1.0, 2.0, 3.0]
    assert list(fit.n_values) == [-1, 0, 1]
    with pytest.raises(AttributeError, match="cannot assign to field 'kappa'"):
        fit.kappa = None


def test_replace_refuses_what_is_not_a_record():
    with pytest.raises(TypeError, match="record instances"):
        replace((1, 2), x=1)


def test_no_module_imports_dataclasses_or_generates_code():
    """The package's modules import no `dataclasses` and call no exec, eval or compile."""
    for path in sorted(Path(cylinderstat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), path.name
            if isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "eval", "compile"), path.name
