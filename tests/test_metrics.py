import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hgam.errors import ContractError, UndefinedMetricError
from hgam.metrics import (EpisodeLog, charging_efficiency, charging_fairness,
                          compute_all, data_collection_ratio,
                          energy_usage_efficiency, geographical_fairness,
                          jain_index)


def make_log(m0, mT, er0=None, ec=(0.0, 0.0), ed=(0.0, 0.0),
             active=(0,), e_max=50.0, length=700, cause="max_steps"):
    m = len(ec)
    return EpisodeLog(
        poi_m0=np.asarray(m0, dtype=float),
        poi_mT=np.asarray(mT, dtype=float),
        muav_er0=np.full(m, 50.0) if er0 is None else np.asarray(er0, dtype=float),
        muav_ec=np.asarray(ec, dtype=float),
        muav_ed=np.asarray(ed, dtype=float),
        cuav_active_steps=np.asarray(active, dtype=np.int64),
        e_max=e_max,
        length=length,
        terminated_by=cause,
    )


# --- jain -------------------------------------------------------------------

def test_jain_equal_shares():
    assert jain_index([1, 1, 1, 1]) == 1.0


def test_jain_single_nonzero():
    assert jain_index([1, 0, 0, 0]) == pytest.approx(0.25)


def test_jain_two_four():
    assert jain_index([2, 4]) == pytest.approx(0.9)


def test_jain_all_zero_convention():
    assert jain_index([0.0, 0.0, 0.0]) == 1.0


def test_jain_rejects_negative_and_empty():
    with pytest.raises(ContractError):
        jain_index([1.0, -0.1])
    with pytest.raises(ContractError):
        jain_index([])


@settings(max_examples=200)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=30),
       st.floats(1e-3, 1e3))
@example([3.41e-159, 3.41e-159], 0.5)  # squares underflow to subnormals
def test_jain_scale_invariant_and_bounded(xs, scale):
    x = np.asarray(xs)
    # scaling a subnormal, or into one, loses digits (5e-324 * 0.5 == 0):
    # there the index of the scaled values differs and no implementation
    # can be scale invariant
    nonzero = x[x != 0.0]
    tiny = np.finfo(float).tiny
    assume(np.all(nonzero >= tiny) and np.all(nonzero * scale >= tiny))
    j = jain_index(x)
    assert 1.0 / len(xs) - 1e-9 <= j <= 1.0 + 1e-9
    assert jain_index(x * scale) == pytest.approx(j, rel=1e-9)


# --- the five metrics ---------------------------------------------------------

def test_collection_ratio_cases():
    assert data_collection_ratio(make_log([1.0, 0.5], [0.0, 0.0])) == 1.0
    assert data_collection_ratio(make_log([1.0, 0.5], [1.0, 0.5])) == 0.0
    assert data_collection_ratio(make_log([1.0, 0.5], [0.5, 0.5])) == \
        pytest.approx(1.0 / 3.0)


def test_collection_ratio_undefined_without_data():
    with pytest.raises(UndefinedMetricError):
        data_collection_ratio(make_log([0.0], [0.0]))


def test_geographical_fairness_cases():
    assert geographical_fairness(make_log([1.0, 1.0], [0.4, 0.4])) == \
        pytest.approx(1.0)
    assert geographical_fairness(make_log([1.0, 1.0], [1.0, 0.0])) == \
        pytest.approx(0.5)
    # remaining fractions 0.8 and 0.4
    assert geographical_fairness(make_log([1.0, 1.0], [0.8, 0.4])) == \
        pytest.approx(0.9)


def test_geographical_fairness_excludes_empty_pois():
    log = make_log([1.0, 0.0], [0.5, 0.0])
    assert geographical_fairness(log) == 1.0  # only the first PoI counts


def test_energy_usage_cases():
    assert energy_usage_efficiency(make_log([1], [1], ed=(0.0, 0.0))) == 0.0
    log = make_log([1], [1], ec=(0.0,), ed=(25.0,))
    assert energy_usage_efficiency(log) == pytest.approx(0.5)
    log = make_log([1], [1], ec=(10.0, 0.0), ed=(30.0, 20.0))
    assert energy_usage_efficiency(log) == pytest.approx(0.45)


def test_charging_efficiency_cases():
    assert charging_efficiency(make_log([1], [1], active=(350,))) == \
        pytest.approx(0.5)
    assert charging_efficiency(make_log([1], [1], active=(0,))) == 0.0
    assert charging_efficiency(make_log([1], [1], active=(700, 350))) == \
        pytest.approx(0.75)


def test_charging_efficiency_needs_cuav():
    with pytest.raises(UndefinedMetricError):
        charging_efficiency(make_log([1], [1], active=()))


def test_charging_fairness_cases():
    assert charging_fairness(make_log([1], [1], ec=(3.0, 3.0))) == 1.0
    assert charging_fairness(make_log([1], [1], ec=(50.0, 0.0))) == \
        pytest.approx(0.5)
    assert charging_fairness(make_log([1], [1], ec=(30.0, 15.0))) == \
        pytest.approx(0.9)


def test_compute_all_keys_and_products():
    report = compute_all(make_log([1.0, 1.0], [0.8, 0.4], ec=(10.0, 0.0),
                                  ed=(30.0, 20.0), active=(350,)))
    assert set(report) == {"C", "omega", "upsilon", "D", "F", "C_times_omega",
                           "D_times_F", "episode_len", "terminated_by"}
    assert report["C_times_omega"] == pytest.approx(report["C"] * report["omega"])
    assert report["D_times_F"] == pytest.approx(report["D"] * report["F"])
    assert report["episode_len"] == 700
    assert report["terminated_by"] == "max_steps"
    for k in ("C", "omega", "upsilon", "D", "F"):
        assert 0.0 <= report[k] <= 1.0
