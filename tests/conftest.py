import pytest

from kaczpr import Model, RngStream, make_ensemble, sample_unit_sphere


unit_signal = sample_unit_sphere


@pytest.fixture
def small_ensemble():
    return make_ensemble(24, 4, Model.UNIT_SPHERE, RngStream(100, 0))
