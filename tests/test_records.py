"""Every record class of the package is an immutable NamedTuple."""

import importlib
import pkgutil

import pytest

import hess2


def _record_classes():
    """The NamedTuple classes each module defines."""
    found = []
    for info in pkgutil.iter_modules(hess2.__path__):
        module = importlib.import_module(f"hess2.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, tuple)
                  and hasattr(obj, "_fields") and obj.__module__ == module.__name__]
    return found


RECORDS = _record_classes()


def test_every_module_with_records_is_covered():
    assert {cls.__module__ for cls in RECORDS} == {
        f"hess2.{m}" for m in ("analysis", "cli", "domain", "fields", "matineq",
                               "multifrontal", "solver", "transforms")}
    # solver.Lattice is a plain class: its cached operators need an instance dict.
    assert len(RECORDS) == 22


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_record_is_immutable(cls):
    # 1.0 is a valid value of every field with no default.
    rec = cls(**{name: cls._field_defaults.get(name, 1.0) for name in cls._fields})
    before = tuple(rec)
    first = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, first, 2.0)
    with pytest.raises(AttributeError):
        rec.not_a_field = 2.0
    new = rec._replace(**{first: 2.0})
    assert type(new) is cls and new is not rec
    assert getattr(new, first) == 2.0 and tuple(new)[1:] == before[1:]
    assert tuple(rec) == before
