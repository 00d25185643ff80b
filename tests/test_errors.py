"""Every dwlab error survives pickling, as it must to come back from a worker process."""

import inspect
import pickle

import pytest

from dwlab import errors

ERRORS = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass) if issubclass(cls, errors.DWLabError)
]


def test_every_error_class_is_listed():
    assert len(ERRORS) == 12 and errors.DWLabError in ERRORS


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_round_trip_keeps_type_and_message(cls):
    exc = cls("theta") if cls is errors.OutOfRegion else cls("theta^2 plug-in -0.0159358 outside (0, 1)")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)


@pytest.mark.parametrize("message", ["", "noise variance must be positive and finite"])
def test_out_of_region_keeps_its_field(message):
    exc = errors.OutOfRegion("sigma2", message)
    back = pickle.loads(pickle.dumps(exc))
    assert (type(back), back.field, str(back)) == (errors.OutOfRegion, "sigma2", str(exc))
