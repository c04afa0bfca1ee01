"""Property tests of the config's refusal rules, one per field.

Each of the 14 fields of ``ExperimentConfig`` gets drawn malformed values:
wrong types, out-of-range values, None where the field is not optional,
non-sequences, wrong lengths and bad entries.  Each must raise DomainError
whose message starts with the field's name, and the same value in a config
file must make ``cli.main`` exit 2 before any runner is reached.  Drawn valid
values must be stored unchanged, as Python ints and tuples.
"""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import cryamabe.cli as cli
from cryamabe.config import RN_FLOOR, ExperimentConfig
from cryamabe.errors import DomainError
from cryamabe.spectral import JMAX_VERIFIED

FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
# the fixtures a case uses (tmp_path, capsys, the patched RUNNERS) hold nothing from one example to the next
SHARED_FIXTURES = [HealthCheck.function_scoped_fixture]

# field -> (low, high, optional); high None is unbounded
INTEGERS = {
    "N": (1, 1, False),
    "jmax": (0, JMAX_VERIFIED, False),
    "lmax": (0, JMAX_VERIFIED, True),
    "quad_degree": (1, None, True),
    "seed": (0, None, False),
    "minimax_seeds": (1, None, False),
    "minimax_budget": (1, None, False),
    "flow_seeds": (1, None, False),
}

_NAN, _INF = float("nan"), float("inf")
_WORDS = st.text(max_size=4)
_DICTS = st.dictionaries(_WORDS, st.integers(), max_size=2)
# what the config takes as neither a number nor a sequence: a bool, a str, a dict
_JUNK = st.one_of(st.booleans(), _WORDS, _DICTS)
_NOT_NUMBER = st.one_of(st.none(), _JUNK, st.lists(st.integers(), max_size=3))
_NOT_INTEGER = st.one_of(_NOT_NUMBER, st.floats())  # a float is no integer, 4.0 included
_NOT_SEQUENCE = st.one_of(st.none(), _JUNK, st.integers(), st.floats())


def _integer_bad(low, high, optional):
    kinds = {"not_integer": _NOT_INTEGER.filter(lambda v: v is not None) if optional else _NOT_INTEGER}
    kinds["below"] = st.integers(max_value=low - 1)
    if high is not None:
        kinds["above"] = st.integers(min_value=high + 1)
    return kinds


def _one_bad(good, bad):
    """A copy of the valid list good with one entry drawn from bad."""
    return st.builds(lambda i, v: good[:i] + [v] + good[i + 1 :], st.integers(0, len(good) - 1), bad)


def _beyond(low, high=None):
    """Floats <= low or >= high, and the non-finite ones."""
    above = st.nothing() if high is None else st.floats(min_value=high)
    return st.one_of(st.floats(max_value=low), above, st.sampled_from([_NAN, _INF, -_INF]))


# the last rung, so that only the floor refuses it: R^4 underflows
_BELOW_FLOOR = st.floats(0.0, RN_FLOOR, exclude_min=True, exclude_max=True).map(lambda r: [0.1, 0.01, r])
_ASCENDING = st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=5).map(sorted)

# field -> kind of malformation -> values of that kind; each kind is its own case,
# so every rule meets its own malformed values in every run
BAD = {name: _integer_bad(*rule) for name, rule in INTEGERS.items()}
BAD.update(
    k={"not_number": _NOT_NUMBER, "out_of_range": st.one_of(_beyond(0.0, 2.0), st.integers(max_value=0), st.integers(min_value=2))},
    tol_scale={"not_number": _NOT_NUMBER, "out_of_range": st.one_of(_beyond(0.0), st.integers(max_value=0))},
    out_dir={"not_string": st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.lists(_WORDS, max_size=2), _DICTS)},
    grid_shape={
        "not_sequence": _NOT_SEQUENCE,
        "wrong_length": st.lists(st.integers(8, 16), max_size=5).filter(lambda s: len(s) != 3),
        "bad_axis": _one_bad([16, 16, 16], st.one_of(_NOT_INTEGER, st.integers(max_value=7))),
        "over_budget": st.lists(st.integers(129, 512), min_size=3, max_size=3),  # 129^3 > 2^21 nodes
    },
    grid_half_widths={
        "not_sequence": _NOT_SEQUENCE,
        "wrong_length": st.lists(st.floats(0.5, 8.0), max_size=4).filter(lambda s: len(s) != 2),
        "bad_entry": _one_bad([4.0, 8.0], st.one_of(_NOT_NUMBER, _beyond(0.0))),
    },
    rn_ladder={
        "not_sequence": _NOT_SEQUENCE,
        "too_short": st.lists(st.floats(1e-3, 1.0), max_size=1),
        "bad_rung": _one_bad([0.1, 0.01, 0.001], st.one_of(_NOT_NUMBER, _beyond(0.0))),
        "below_floor": _BELOW_FLOOR,
        "not_decreasing": _ASCENDING,
    },
)
CASES = [(field, kind) for field, kinds in BAD.items() for kind in kinds]

GOOD = {
    name: st.integers(low, low + 50 if high is None else high).flatmap(lambda n: st.sampled_from([n, np.int64(n)]))
    | (st.none() if optional else st.nothing())
    for name, (low, high, optional) in INTEGERS.items()
}
GOOD.update(
    k=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    tol_scale=st.floats(0.0, 1e6, exclude_min=True),
    out_dir=st.text(max_size=8),
    grid_shape=st.lists(st.integers(8, 128), min_size=3, max_size=3),
    grid_half_widths=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=2),
    rn_ladder=st.lists(st.floats(RN_FLOOR, 1.0), min_size=2, max_size=5, unique=True).map(lambda r: sorted(r, reverse=True)),
)


def test_every_field_has_its_strategies():
    assert set(BAD) == set(GOOD) == set(FIELDS) and len(FIELDS) == 14


@pytest.mark.parametrize("field", FIELDS)
def test_null_only_where_optional(field):
    # JSON null reached jmax, seed and the seed counts as None, and runs failed or drew OS entropy
    if INTEGERS.get(field, (0, 0, False))[2]:
        assert getattr(ExperimentConfig(**{field: None}), field) is None
    else:
        with pytest.raises(DomainError, match=f"^{field} "):
            ExperimentConfig(**{field: None})


@pytest.fixture
def unreachable_runners(monkeypatch):
    def reached(cfg, args):
        raise AssertionError("a runner started although the configuration is malformed")

    monkeypatch.setattr(cli, "RUNNERS", {name: reached for name in cli.RUNNERS})


@pytest.mark.parametrize("field,kind", CASES, ids=[f"{field}-{kind}" for field, kind in CASES])
@settings(deadline=None, max_examples=12, suppress_health_check=SHARED_FIXTURES)
@given(data=st.data())
def test_malformed_field_refused(field, kind, data, tmp_path, capsys, unreachable_runners):
    value = data.draw(BAD[field][kind], label=field)
    with pytest.raises(DomainError) as info:
        ExperimentConfig(**{field: value})
    assert str(info.value).startswith(field)
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as fh:
        json.dump({field: value}, fh)
    out = os.path.join(tmp_path, "out")
    assert cli.main(["verify-group", "--config", path, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {field}")
    assert not os.path.exists(out)


@pytest.mark.parametrize("field", FIELDS)
@settings(deadline=None, max_examples=12, suppress_health_check=SHARED_FIXTURES)
@given(data=st.data())
def test_valid_field_stored_unchanged(field, data, tmp_path):
    value = data.draw(GOOD[field], label=field)
    cfg = ExperimentConfig(**{field: value})
    stored = getattr(cfg, field)
    if isinstance(value, list):
        assert stored == tuple(value) and type(stored) is tuple
        assert [type(v) for v in stored] == [type(v) for v in value]
    else:
        assert stored == value and type(stored) is (int if isinstance(value, np.integer) else type(value))
    # the config file holds lists, and the rules alone make them tuples
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as fh:
        fh.write(cfg.to_json())
    assert ExperimentConfig.from_json(path) == cfg


def _ladder_text(rungs):
    return ",".join(map(repr, rungs))


LADDER_FLAGS = {
    "no_number": st.text(alphabet=" ,abx-", max_size=6),  # the empty string included
    "too_short": st.lists(st.floats(1e-3, 1.0), max_size=1).map(_ladder_text),
    "bad_rung": _one_bad([0.1, 0.01, 0.001], _beyond(0.0)).map(_ladder_text),
    "below_floor": _BELOW_FLOOR.map(_ladder_text),
    "not_decreasing": _ASCENDING.map(_ladder_text),
}


@pytest.mark.parametrize("kind", LADDER_FLAGS)
@settings(deadline=None, max_examples=12, suppress_health_check=SHARED_FIXTURES)
@given(data=st.data())
def test_malformed_ladder_flag_refused(kind, data, tmp_path, capsys, unreachable_runners):
    text = data.draw(LADDER_FLAGS[kind], label="--ladder")
    out = os.path.join(tmp_path, "out")
    assert cli.main(["gradient-decay", f"--ladder={text}", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("configuration error: --ladder")
    assert not os.path.exists(out)
