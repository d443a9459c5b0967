"""Generating-function moments and homodyne statistics."""

import cmath
import copy
import dataclasses
import itertools
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su11lso.moments import (
    InterferometerParams,
    MomentTable,
    _exponent_entries,
    _table,
    moment_table,
    q_moment,
    quadrature_stats,
    trig_coefficients,
)
from su11lso import metrology, moments
from su11lso.series import series_exp
from su11lso.sweeps import FIGURE_PRESETS, figure_preset, run_sweep

from exponent_route import numpy_fill_exponent, plan_loop


class TestParams:
    def test_transmittance_range_enforced(self):
        with pytest.raises(ValueError):
            InterferometerParams(g=1, alpha=1, r=0, t1=1.2)
        with pytest.raises(ValueError):
            InterferometerParams(g=1, alpha=1, r=0, t2=-0.1)

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            InterferometerParams(g=-0.5, alpha=1, r=0)
        with pytest.raises(ValueError):
            InterferometerParams(g=0.5, alpha=1, r=-0.1)

    @pytest.mark.parametrize("name", ["g", "alpha", "r", "t1", "t2", "phi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.inf)])
    def test_non_finite_rejected(self, name, value):
        fields = dict(g=1.0, alpha=1.0, r=0.3, t1=1.0, t2=1.0, phi=0.2)
        if name != "alpha":
            value = value.imag if isinstance(value, complex) else value
        fields[name] = value
        with pytest.raises(ValueError, match="finite"):
            InterferometerParams(**fields)

    def test_replace(self):
        p = InterferometerParams(g=1, alpha=1, r=0.3)
        q = p.replace(phi=0.5)
        assert q.phi == 0.5 and q.g == 1 and p.phi == 0.0

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("g", math.nan, "g must be finite, got nan"),
            ("alpha", complex(1.0, math.inf), "alpha must be finite, got (1+infj)"),
            ("r", math.inf, "r must be finite, got inf"),
            ("t1", -math.inf, "t1 must be finite, got -inf"),
            ("t2", math.nan, "t2 must be finite, got nan"),
            ("phi", math.inf, "phi must be finite, got inf"),
            ("g", -0.5, "gain g must be >= 0"),
            ("r", -1e-300, "squeezing r must be >= 0"),
            ("t1", 1.2, "transmittance t1 must lie in [0, 1], got 1.2"),
            ("t2", -0.1, "transmittance t2 must lie in [0, 1], got -0.1"),
        ],
    )
    def test_invalid_field_message(self, name, value, message):
        fields = dict(g=1.0, alpha=1.0, r=0.3, t1=1.0, t2=1.0, phi=0.2)
        fields[name] = value
        with pytest.raises(ValueError) as exc:
            InterferometerParams(**fields)
        assert str(exc.value) == message

    def test_first_failing_check_names_the_error(self):
        # finiteness is checked for every field before any range
        with pytest.raises(ValueError, match=r"^phi must be finite, got nan$"):
            InterferometerParams(g=-1.0, alpha=1.0, r=0.3, t1=2.0, phi=math.nan)
        with pytest.raises(ValueError, match=r"^gain g must be >= 0$"):
            InterferometerParams(g=-1.0, alpha=1.0, r=-0.3, t1=2.0)
        # a field that does not compare fails as it always has
        with pytest.raises(TypeError, match="'<' not supported"):
            InterferometerParams(g=1j, alpha=1.0, r=0.3)

    def test_edge_values_accepted(self):
        for fields in (
            dict(g=-0.0, alpha=-0.0, r=-0.0, t1=0.0, t2=1.0, phi=-1e308),
            dict(g=1e308, alpha=complex(-1e308, 1e308), r=5e-324, t1=1.0, t2=0.0, phi=0.0),
            dict(g=1, alpha=np.complex128(1j), r=np.float64(0.5), t1=1, t2=0.5, phi=2 + 0j),
            dict(g=np.float32(0.5), alpha=np.float64(-1.0), r=np.int64(2), t1=0.5, t2=1, phi=1),
        ):
            p = InterferometerParams(**fields)
            assert [getattr(p, k) for k in fields] == list(fields.values())

    @pytest.mark.parametrize("name", ["g", "alpha", "r", "t1", "t2", "phi"])
    @pytest.mark.parametrize(
        "value, kind",
        [(True, "bool"), (False, "bool"), (np.bool_(True), "bool"), (np.array(0.5), "ndarray"),
         (np.array([0.5]), "ndarray"), (np.array([[0.5]]), "ndarray"),
         (np.array([0.5, 0.6]), "ndarray"), (np.array([]), "ndarray")],
        ids=["True", "False", "np.True_", "0-d", "1-d", "2-d", "two", "empty"],
    )
    def test_bool_and_array_rejected(self, name, value, kind):
        # each would compare as a number: a bool reads as 0 or 1, and a
        # one-element array fails only later, in numpy
        fields = dict(g=1.0, alpha=1.0, r=0.3, t1=1.0, t2=1.0, phi=0.2)
        fields[name] = value
        with pytest.raises(TypeError) as exc:
            InterferometerParams(**fields)
        assert str(exc.value) == f"{name} must be a number, not {kind}"

    def test_value_semantics(self):
        p = InterferometerParams(1.0, 0.5 + 0.5j, 0.3, 0.9, 0.8, 0.2)
        kw = InterferometerParams(g=1.0, alpha=0.5 + 0.5j, r=0.3, t1=0.9, t2=0.8, phi=0.2)
        assert p == kw and hash(p) == hash(kw) and {p: 1}[kw] == 1
        assert p != kw.replace(phi=0.3)
        assert p.replace(phi=0.4) == InterferometerParams(1.0, 0.5 + 0.5j, 0.3, 0.9, 0.8, 0.4)
        with pytest.raises(ValueError, match="t1 must lie"):
            p.replace(t1=1.5)
        copies = [copy.copy(p), copy.deepcopy(p)]
        copies += [pickle.loads(pickle.dumps(p, protocol)) for protocol in range(6)]
        for q in copies:
            assert q == p and hash(q) == hash(p) and q.phi == 0.2
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.g = 2.0
        assert not hasattr(p, "__dict__")


_FIELD_NAMES = ("g", "alpha", "r", "t1", "t2", "phi")
# a generic point and one whose every field is a signed zero or an edge value
_VALUE_POINTS = (
    InterferometerParams(1.25, 0.5 - 0.75j, 0.3, 0.9, 0.8, -0.2),
    InterferometerParams(-0.0, complex(-0.0, -0.0), -0.0, 0.0, 1.0, -0.0),
)


def _field_bits(p):
    return [_hex(complex(getattr(p, name))) for name in _FIELD_NAMES]


class TestParamsValueSemantics:
    """The slotted frozen ``InterferometerParams`` behaves as a value."""

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("p", _VALUE_POINTS, ids=["generic", "signed_zeros"])
    def test_pickle_round_trip(self, p, protocol):
        q = pickle.loads(pickle.dumps(p, protocol))
        assert type(q) is InterferometerParams and q is not p
        assert _field_bits(q) == _field_bits(p)
        assert q == p and hash(q) == hash(p)
        assert not hasattr(q, "__dict__")

    @pytest.mark.parametrize("p", _VALUE_POINTS, ids=["generic", "signed_zeros"])
    def test_copy_and_deepcopy(self, p):
        for q in (copy.copy(p), copy.deepcopy(p)):
            assert _field_bits(q) == _field_bits(p) and q == p and hash(q) == hash(p)
        # deepcopy keeps one instance shared where the original shared it
        first, second = copy.deepcopy([p, p])
        assert first is second

    @pytest.mark.parametrize("name", _FIELD_NAMES)
    def test_replace_changes_one_field_and_validates(self, name):
        p = _VALUE_POINTS[0]
        value = 0.5 + 0.25j if name == "alpha" else 0.5
        q = p.replace(**{name: value})
        assert getattr(q, name) == value and getattr(p, name) != value
        assert all(getattr(q, other) == getattr(p, other) for other in _FIELD_NAMES if other != name)
        assert p.replace() == p
        with pytest.raises(ValueError, match="finite"):
            p.replace(**{name: math.nan})

    def test_equality_and_hashing(self):
        p = _VALUE_POINTS[0]
        # equal values are equal points with equal hashes, whatever their type or zero sign
        same = InterferometerParams(1.25, complex(0.5, -0.75), 0.3, 0.9, 0.8, -0.2)
        assert same == p and hash(same) == hash(p)
        ints = InterferometerParams(g=1, alpha=1, r=0)
        floats = InterferometerParams(g=1.0, alpha=1.0 + 0j, r=0.0)
        assert ints == floats and hash(ints) == hash(floats)
        zeros = _VALUE_POINTS[1]
        plain = InterferometerParams(0.0, 0j, 0.0, 0.0, 1.0, 0.0)
        assert zeros == plain and hash(zeros) == hash(plain)
        assert len({p, same, ints, floats, zeros, plain}) == 3
        for name in _FIELD_NAMES:
            other = p.replace(**{name: 0.5 + 0.25j if name == "alpha" else 0.5})
            assert other != p, name
        assert p != tuple(getattr(p, name) for name in _FIELD_NAMES)


class TestExponentEntries:
    def test_all_couplings_vanish_at_origin(self):
        e = _exponent_entries(0.0, 0j, 0.0)
        assert len(e) == 9 and not any(e)

    def test_squeezed_vacuum_coefficients(self):
        e = _exponent_entries(0.0, 0j, 0.6)
        assert e.p01 == pytest.approx(math.sinh(0.6) ** 2)
        assert e.p00 == pytest.approx(math.cosh(0.6) * math.sinh(0.6))

    def test_two_mode_cross_coupling(self):
        e = _exponent_entries(1.0, 0j, 0.0)
        assert e.l3 == 0
        assert e.p02 == pytest.approx(-math.sinh(1.0) * math.cosh(1.0))


class TestMoments:
    def test_normalization(self):
        p = InterferometerParams(g=0.9, alpha=0.7 - 0.3j, r=0.8)
        assert q_moment(p, (0, 0, 0, 0)) == 1.0

    def test_coherent_state_moments(self):
        alpha = 0.7 + 0.2j
        p = InterferometerParams(g=0, alpha=alpha, r=0)
        assert q_moment(p, (1, 0, 0, 0)) == pytest.approx(alpha.conjugate())
        assert q_moment(p, (1, 1, 0, 0)) == pytest.approx(abs(alpha) ** 2)

    def test_squeezed_vacuum_photon_number(self):
        p = InterferometerParams(g=0, alpha=0, r=0.6)
        assert q_moment(p, (1, 1, 0, 0)).real == pytest.approx(math.sinh(0.6) ** 2)
        # the pair moment fixes the squeezer sign convention
        assert q_moment(p, (0, 2, 0, 0)).real == pytest.approx(
            math.cosh(0.6) * math.sinh(0.6)
        )

    def test_order_above_cap_rejected(self):
        p = InterferometerParams(g=0.5, alpha=1, r=0.2)
        with pytest.raises(ValueError, match="cap"):
            q_moment(p, (3, 2, 0, 0))

    def test_key_forms_give_the_same_moment(self):
        tab = MomentTable(InterferometerParams(g=0.5, alpha=0.7 - 0.3j, r=0.2))
        want = tab.moment((1, 1, 0, 0))
        for key in ([1, 1, 0, 0], np.array([1, 1, 0, 0]), (1.0, 1, 0, 0)):
            assert repr(tab.moment(key)) == repr(want), key

    @pytest.mark.parametrize(
        "key, message",
        [
            ((1, 1, 0), "moment key must be 4 non-negative integers, got (1, 1, 0)"),
            ((-1, 1, 0, 0), "moment key must be 4 non-negative integers, got (-1, 1, 0, 0)"),
            ((2, 2, 1, 0), "moment order (2, 2, 1, 0) exceeds degree cap 4"),
            # entries are integers equal to themselves, not truncated to one
            ((1.5, 0, 0, 0), "moment key must be 4 non-negative integers, got (1.5, 0, 0, 0)"),
            ("1100", "moment key must be 4 non-negative integers, got ('1', '1', '0', '0')"),
        ],
    )
    def test_bad_keys_rejected(self, key, message):
        tab = MomentTable(InterferometerParams(g=0.5, alpha=1, r=0.2))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tab.moment(key)

    def test_table_is_memoized_per_state(self):
        p = InterferometerParams(g=0.5, alpha=1, r=0.2, phi=0.1)
        assert moment_table(p) is moment_table(p.replace(phi=2.2, t1=0.4))

    def test_frozen_value_from_fock_oracle(self):
        # <a'^2 a^2> at g=1, alpha=1, r=0.6: Fock simulation at cutoff
        # (287, 86), tail mass < 1e-13
        p = InterferometerParams(g=1, alpha=1, r=0.6)
        assert q_moment(p, (2, 2, 0, 0)).real == pytest.approx(
            224.2386836611047, rel=1e-11
        )


def _bits(value) -> bytes:
    return np.array([value], dtype=complex).tobytes()


def _bad_key_message(key):
    """The message a table raises for an invalid key, None for a valid one."""
    key = tuple(key)
    if len(key) != 4 or any(k < 0 for k in key):
        return f"moment key must be 4 non-negative integers, got {key!r}"
    if sum(key) > 4:
        return f"moment order {key} exceeds degree cap 4"
    return None


@given(
    g=st.floats(0, 4),
    re_a=st.floats(-10, 10),
    im_a=st.floats(-10, 10),
    r=st.floats(0, 4),
    key=st.lists(st.integers(-2, 5), max_size=6),
)
@example(g=0.0, re_a=0.7, im_a=-0.2, r=0.5, key=[1, 1, 0, 0])
@example(g=0.8, re_a=0.0, im_a=0.0, r=0.5, key=[0, 0, 2, 2])
@example(g=0.8, re_a=-0.0, im_a=0.0, r=0.5, key=[2, 2, 1, 0])
@example(g=0.8, re_a=-0.0, im_a=-0.0, r=0.5, key=[1, 1, 0])
@example(g=0.8, re_a=0.7, im_a=-0.2, r=0.0, key=[-1, 1, 0, 0])
@example(g=0.0, re_a=-0.0, im_a=0.0, r=0.0, key=[0, 0, 0, 0])
@settings(max_examples=60, deadline=None)
def test_compact_table_keeps_every_bit(g, re_a, im_a, r, key):
    """Each of the 70 moments is a Python complex with the bits of the
    recurrence run on the numpy exponent; any key a table rejects, it rejects
    with the message a dict-backed table gave."""
    p = InterferometerParams(g=g, alpha=complex(re_a, im_a), r=r)
    tab = MomentTable(p)
    lin, quad = numpy_fill_exponent(p)
    ref = series_exp(lin, 2.0 * quad)
    assert len(ref) == 70
    for k, value in ref.items():
        got = tab.moment(k)
        assert type(got) is complex and _bits(got) == _bits(value), k
    message = _bad_key_message(key)
    if message is None:
        assert _bits(tab.moment(key)) == _bits(ref[tuple(key)])
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tab.moment(key)


def _count_builds(monkeypatch):
    """Record each ``InterferometerParams`` built and each exponent builder
    call (whether any of g, alpha, r was an array) from now on."""
    built, builder = [], []
    post_init = InterferometerParams.__post_init__
    entries = moments._exponent_entries

    def counted_post_init(self):
        built.append(self)
        post_init(self)

    def counted_entries(g, alpha, r):
        builder.append(any(isinstance(v, np.ndarray) for v in (g, alpha, r)))
        return entries(g, alpha, r)

    monkeypatch.setattr(InterferometerParams, "__post_init__", counted_post_init)
    monkeypatch.setattr(moments, "_exponent_entries", counted_entries)
    return built, builder


class TestTableCache:
    """A figure run builds a table only for the series whose (g, alpha, r) is
    one point; a series whose (g, alpha, r) varies builds its exponent once,
    as arrays, and the parameters of its grid's two ends alone."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["sorted", "reversed"])
    def test_figure_run_builds_a_table_per_fixed_point(self, reverse, monkeypatch):
        # figs 2, 5, 6a, 6b and 10 hold g = alpha = 1 on each of 4 r curves:
        # 24 series, 4 distinct points; the g and alpha sweeps build none
        specs = [figure_preset(name) for name in sorted(FIGURE_PRESETS, reverse=reverse)]
        _table.cache_clear()
        built, builder = _count_builds(monkeypatch)
        for spec in specs:
            run_sweep(spec)
        assert _table.cache_info().misses == 4
        # one point per fixed-point series, to read its table, one per table
        # built, and the grid's two ends of each of the 56 series
        assert len(built) == 24 + 4 + 2 * 56
        assert builder.count(False) == 4  # the tables
        assert builder.count(True) == 8 * 4  # figs 3, 4, 7a, 7b, 8a, 8b, 11a, 11b

    @pytest.mark.parametrize(
        "name, points", [("fig3", 50), ("fig11a", 50), ("fig3", 513)],
        ids=["fig3", "fig11a", "fig3-long"],
    )
    def test_swept_series_builds_no_table_and_one_exponent(self, name, points, monkeypatch):
        # fig3: the optimum's quartic and its sensitivity_curve pass; fig11a:
        # qfi_lossy -> qfi_ideal -> total_photon_number and sql_hl
        spec = figure_preset(name, points=points)
        _table.cache_clear()
        built, builder = _count_builds(monkeypatch)
        result = run_sweep(spec)
        assert len(result) == points * len(spec.series)
        assert _table.cache_info().misses == 0
        # the grid's ends, not one point per grid point
        ends = [getattr(p, spec.variable) for p in built]
        assert ends == [spec.start, spec.stop] * len(spec.series)
        assert builder == [True] * len(spec.series)

    @pytest.mark.parametrize(
        "g, alpha, r", [(0.5, -0.0, 0.2), (-0.0, -0.0 - 0.0j, 0.3), (0.4, 1.0, -0.0)]
    )
    def test_signed_zero_table_does_not_depend_on_call_order(self, g, alpha, r):
        # -0.0 and +0.0 share a cache entry; whichever sign runs first must
        # not decide the table the other gets
        signed = InterferometerParams(g=g, alpha=alpha, r=r)
        plain = InterferometerParams(g=g + 0.0, alpha=complex(alpha) + 0j, r=r + 0.0)
        tables = []
        for order in ((signed,), (plain, signed)):
            _table.cache_clear()
            for p in order:
                tab = moment_table(p)
            tables.append(tab._moments.tobytes())
        assert tables[0] == tables[1]
        _table.cache_clear()
        first = repr(q_moment(signed, (0, 0, 0, 1)))
        _table.cache_clear()
        q_moment(plain, (0, 0, 0, 1))
        assert repr(q_moment(signed, (0, 0, 0, 1))) == first

    def test_table_footprint(self):
        rng = np.random.default_rng(11)
        points = [
            InterferometerParams(
                g=rng.uniform(0, 2), alpha=complex(*rng.uniform(-2, 2, 2)), r=rng.uniform(0, 2)
            )
            for _ in range(200)
        ]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tables = [MomentTable(p) for p in points]
            per_table = (tracemalloc.get_traced_memory()[0] - before) / len(tables)
        finally:
            tracemalloc.stop()
        assert per_table <= 2500, per_table


def _signed_zero_sample(count, seed):
    """Seeded points whose g, r, Re alpha and Im alpha are each 0.0 or -0.0
    about a third of the time, and random otherwise."""
    rng = np.random.default_rng(seed)

    def pick(lo, hi):
        u = rng.random()
        return 0.0 if u < 1 / 6 else -0.0 if u < 1 / 3 else float(rng.uniform(lo, hi))

    return [
        InterferometerParams(g=pick(0, 2), alpha=complex(pick(-2, 2), pick(-2, 2)), r=pick(0, 2))
        for _ in range(count)
    ]


class TestPythonNumberRoute:
    """A table built on Python numbers and the generated recurrence keeps
    every bit of the numpy fill, ``2.0 * quadratic`` and a loop over
    ``series._PLAN``."""

    def test_signed_zeros_reach_every_field(self):
        points = _signed_zero_sample(400, 1)
        for name in ("g", "r"):
            signs = {math.copysign(1.0, getattr(p, name)) for p in points if getattr(p, name) == 0}
            assert signs == {1.0, -1.0}, name
        for part in ("real", "imag"):
            signs = {math.copysign(1.0, getattr(p.alpha, part)) for p in points
                     if getattr(p.alpha, part) == 0}
            assert signs == {1.0, -1.0}, part

    def test_table_keeps_the_numpy_fill_bits(self):
        for p in _signed_zero_sample(2000, 7):
            lin, quad = numpy_fill_exponent(p)
            pair = 2.0 * quad
            tab = MomentTable(p)
            # the record's nine fields: l0..l3, then P00, P01, P02, P03 and P23
            entries = ((0, 0), (0, 1), (0, 2), (0, 3), (2, 3))
            want = [*lin.tolist(), *(pair[i, j].real for i, j in entries)]
            assert [_hex(v) for v in tab._exponent] == [_hex(v) for v in want], p
            # the structure the record drops: P11 = P00, and lam3, lam4 have no square
            assert pair[1, 1].tobytes() == pair[0, 0].tobytes(), p
            assert not pair[2, 2] and not pair[3, 3], p
            ref = np.array(plan_loop(lin.tolist(), pair.tolist()), dtype=complex)
            assert tab._moments.tobytes() == ref.tobytes(), p

    def test_one_query_evaluates_each_closed_form_once(self, monkeypatch):
        calls = []
        for name in ("_photon_number", "_mode_a_number", "_ideal_fisher"):
            formula = getattr(metrology, name)

            def counted(e, formula=formula, name=name):
                calls.append(name)
                return formula(e)

            monkeypatch.setattr(metrology, name, counted)
        p = InterferometerParams(g=0.7, alpha=0.9 + 0.2j, r=0.4, t1=0.8, t2=0.9, phi=1.1)
        _table.cache_clear()
        metrology.phase_sensitivity(p)
        metrology.total_photon_number(p)
        metrology.sql_hl(p)
        metrology.qfi_ideal(p)
        metrology.qfi_lossy(p, 0.6)
        # N's formula calls <n_a>'s, so <n_a> is evaluated twice: inside N and for qfi_lossy
        assert calls.count("_photon_number") == calls.count("_ideal_fisher") == 1
        assert calls.count("_mode_a_number") == 2 and len(calls) == 4
        stored = moment_table(p)._values
        assert set(stored) == {metrology._photon_number, metrology._mode_a_number,
                               metrology._ideal_fisher}
        e = moment_table(p)._exponent
        assert all(_hex(value) == _hex(formula(e)) for formula, value in stored.items())
        _table.cache_clear()
        assert moment_table(p)._values == {}

    def test_overflowing_closed_form_is_not_stored(self):
        # |alpha|^2 overflows N while the exponent's entries stay finite, so
        # every call raises and the table keeps no value to skip its check
        p = InterferometerParams(g=0.0, alpha=1e200, r=0.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="^photon number N overflows at g=0, "):
                metrology.total_photon_number(p)
        assert metrology._photon_number not in moment_table(p)._values


def _table_outcome(points):
    """Each exponent entry of the points' tables, stacked as (dtype, bytes),
    or the first point's ValueError text."""
    try:
        tables = [moment_table(p)._exponent for p in points]
    except ValueError as exc:
        return str(exc)
    return [
        (want.dtype.str, want.tobytes())
        for want in (np.array(entry, dtype=complex if k < 4 else float)
                     for k, entry in enumerate(zip(*tables)))
    ]


def _series_outcome(state):
    """``_table_outcome`` of a series state's exponent arrays."""
    try:
        e = state.exponent
    except ValueError as exc:
        return str(exc)
    assert all(v.shape == (len(state),) for v in e)
    return [(v.dtype.str, v.tobytes()) for v in e]


def _columns_state(rows, swept):
    """A series of rows (g, Re alpha, Im alpha, r): every column a list, or
    only the swept one, the others the first row's value."""
    columns = {
        "g": [row[0] for row in rows],
        "alpha": [complex(row[1], row[2]) for row in rows],
        "r": [row[3] for row in rows],
    }
    if swept != "all":
        columns = {k: v if k == swept else v[0] for k, v in columns.items()}
    return moments._Series([columns["g"], columns["alpha"], columns["r"], 0.8, 0.9, 0.4], len(rows))


_ZERO = st.sampled_from([0.0, -0.0])
# g and r where the entries or cosh/sinh overflow: sinh^2 near 355, cosh near 710.4759
_LARGE = st.sampled_from([354.5, 355.0, 709.78, 710.4758, 710.476, 711.0])
_GAIN = st.one_of(_ZERO, _LARGE, st.floats(0, 4))
_PART = st.one_of(_ZERO, st.floats(-10, 10), st.sampled_from([1e300, -1e307]))


class TestSeriesExponent:
    """A series' exponent arrays, built once by ``_exponent_entries``, hold
    each point's table entries byte for byte, and a series that overflows
    raises the error of its first point's table."""

    def test_seeded_series_equal_the_tables(self):
        for seed in range(100):
            points = _signed_zero_sample(200, 100 + seed)
            assert _series_outcome(moments._series(points)) == _table_outcome(points), seed

    @pytest.mark.parametrize("swept", ["g", "alpha", "r"])
    def test_swept_column_equals_the_tables(self, swept):
        rng = np.random.default_rng(5)
        for fixed in _signed_zero_sample(20, 3):
            rows = [(p.g, p.alpha.real, p.alpha.imag, p.r) for p in _signed_zero_sample(50, rng)]
            rows[0] = (fixed.g, fixed.alpha.real, fixed.alpha.imag, fixed.r)
            state = _columns_state(rows, swept)
            points = [state.point(i) for i in range(len(state))]
            assert _series_outcome(state) == _table_outcome(points), fixed
            # and the harmonics, which add the output amplitudes
            for k, column in enumerate(state.harmonics):
                want = np.array([trig_coefficients(p)[k] for p in points])
                assert (column.dtype, column.tobytes()) == (want.dtype, want.tobytes()), (fixed, k)

    @given(
        rows=st.lists(st.tuples(_GAIN, _PART, _PART, _GAIN), min_size=1, max_size=12),
        swept=st.sampled_from(["all", "g", "alpha", "r"]),
    )
    @example(rows=[(0.0, 0.0, 0.0, 0.0), (-0.0, -0.0, -0.0, -0.0)], swept="all")
    @example(rows=[(-0.0, -0.0, 0.0, 0.5), (0.3, 1.0, -0.0, 0.5)], swept="g")
    @example(rows=[(0.5, -0.0, -0.0, -0.0), (0.5, -1.5, 2.0, 0.1)], swept="alpha")
    @example(rows=[(0.5, 1.0, 0.5, -0.0), (0.5, 1.0, 0.5, 0.0), (0.5, 1.0, 0.5, 2.0)], swept="r")
    @example(rows=[(1.0, 1.0, 0.0, 0.0), (709.78, 1.0, 0.0, 0.0), (711.0, 1.0, 0.0, 0.0)], swept="g")
    @example(rows=[(710.476, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0)], swept="alpha")
    @example(rows=[(1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 400.0), (1.0, 1.0, 0.0, 711.0)], swept="r")
    @example(rows=[(1.0, 1.0, 0.0, 0.0), (1.0, 1e300, 0.0, 0.0), (355.0, 1.0, 0.0, 0.0)], swept="all")
    @settings(max_examples=150, deadline=None)
    def test_series_equals_the_tables(self, rows, swept):
        state = _columns_state(rows, swept)
        points = [state.point(i) for i in range(len(state))]
        with np.errstate(all="raise"):  # the series' arithmetic warns of nothing
            assert _series_outcome(state) == _table_outcome(points)


def _hex(value):
    return (value.real.hex(), value.imag.hex()) if isinstance(value, complex) else value.hex()


GRID = [
    InterferometerParams(g=g, alpha=a, r=r)
    for g in (0.0, 0.6, 1.0)
    for a in (0.0, 0.8, 0.9 + 0.4j)
    for r in (0.0, 0.5, 1.0)
]


@pytest.mark.parametrize("params", GRID)
def test_normalization_and_hermiticity_on_grid(params):
    tab = MomentTable(params)
    assert tab.moment((0, 0, 0, 0)) == 1.0
    keys = [
        (x1, y1, x2, y2)
        for x1 in range(3)
        for y1 in range(3)
        for x2 in range(3)
        for y2 in range(3)
        if x1 + y1 + x2 + y2 <= 4
    ]
    for key in keys:
        x1, y1, x2, y2 = key
        direct = tab.moment(key)
        swapped = tab.moment((y1, x1, y2, x2))
        assert abs(swapped - direct.conjugate()) <= 1e-10 * max(1.0, abs(direct))


def test_moments_match_cauchy_integral():
    """All 70 moments against the Taylor coefficients of exp(w), taken by an
    FFT over a 32^4 torus of radius 0.3 and multiplied by the factorials."""
    n, rho = 32, 0.3
    z = rho * np.exp(2j * np.pi * np.arange(n) / n)
    lam = [z.reshape([-1 if k == i else 1 for k in range(4)]) for i in range(4)]
    keys = [k for k in itertools.product(range(5), repeat=4) if sum(k) <= 4]
    rng = np.random.default_rng(5)
    for _ in range(8):
        p = InterferometerParams(
            g=rng.uniform(0, 1.2), alpha=complex(*rng.uniform(-1.5, 1.5, 2)), r=rng.uniform(0, 1)
        )
        tab = MomentTable(p)
        linear, quadratic = numpy_fill_exponent(p)
        exponent = sum(linear[i] * lam[i] for i in range(4))
        exponent = exponent + sum(
            quadratic[i, j] * lam[i] * lam[j] for i in range(4) for j in range(4)
        )
        coeffs = np.fft.fftn(np.exp(exponent)) / n**4
        ref = {
            k: coeffs[k] / rho ** sum(k) * math.prod(math.factorial(e) for e in k) for k in keys
        }
        floor = 1e-6 * max(abs(v) for v in ref.values())
        for k in keys:
            assert abs(tab.moment(k) - ref[k]) <= max(1e-8 * abs(ref[k]), floor), (p, k)


class TestQuadrature:
    def test_no_displacement_means_no_signal(self):
        p = InterferometerParams(g=0.8, alpha=0, r=0.7, phi=0.4, t1=0.9, t2=0.8)
        stats = quadrature_stats(p)
        assert stats.mean == pytest.approx(0.0, abs=1e-14)
        assert stats.dmean_dphi == pytest.approx(0.0, abs=1e-14)

    def test_coherent_rotation(self):
        alpha = 0.8 + 0.3j
        for phi in (0.0, 0.7, 2.1):
            p = InterferometerParams(g=0, alpha=alpha, r=0, phi=phi)
            expected = 2.0 * (alpha * np.exp(-1j * phi)).real
            assert quadrature_stats(p).mean == pytest.approx(expected)
            slope = 2.0 * (-1j * alpha * np.exp(-1j * phi)).real
            assert quadrature_stats(p).dmean_dphi == pytest.approx(slope)

    def test_vacuum_second_moment_is_one(self):
        p = InterferometerParams(g=0, alpha=0, r=0, phi=0.3)
        assert quadrature_stats(p).second_moment == pytest.approx(1.0)

    def test_coherent_second_moment(self):
        p = InterferometerParams(g=0, alpha=1, r=0, phi=0.0)
        assert quadrature_stats(p).second_moment == pytest.approx(5.0)

    def test_frozen_values_from_fock_oracle(self):
        # pinned by the converged Fock simulation (tail mass < 1e-12)
        p = InterferometerParams(g=1, alpha=1, r=0.6, phi=0.3)
        assert quadrature_stats(p).mean == pytest.approx(5.527532537764433, rel=1e-12)
        p2 = InterferometerParams(g=1, alpha=1, r=1, phi=0.5, t1=0.7, t2=1.0)
        assert quadrature_stats(p2).second_moment == pytest.approx(
            60.99760928971997, rel=1e-10
        )

    def test_variance_nonnegative_on_random_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            p = InterferometerParams(
                g=rng.uniform(0, 1.2),
                alpha=complex(rng.normal(), rng.normal()) * 0.7,
                r=rng.uniform(0, 1.2),
                t1=rng.uniform(0.1, 1),
                t2=rng.uniform(0.1, 1),
                phi=rng.uniform(0, math.pi),
            )
            stats = quadrature_stats(p)
            assert stats.variance >= -1e-9
            assert stats.second_moment >= stats.mean**2 - 1e-9


def _assembled_from_moments(p):
    """Complex <X> and <X^2> assembled from the raw normally ordered moments."""

    def q(*key):
        return q_moment(p, key)

    e1 = cmath.exp(1j * p.phi)
    e1c = e1.conjugate()
    amp_a = math.sqrt(p.t1 * p.t2) * math.cosh(p.g)
    amp_b = math.sqrt(p.t2) * math.sinh(p.g)
    mean = amp_a * (e1 * q(1, 0, 0, 0) + e1c * q(0, 1, 0, 0))
    mean += amp_b * (q(0, 0, 0, 1) + q(0, 0, 1, 0))
    second = 1.0 + amp_a**2 * (2 * q(1, 1, 0, 0) + e1**2 * q(2, 0, 0, 0) + e1c**2 * q(0, 2, 0, 0))
    second += amp_b**2 * (2 * q(0, 0, 1, 1) + 2 + q(0, 0, 2, 0) + q(0, 0, 0, 2))
    second += 2 * amp_a * amp_b * (
        e1 * (q(1, 0, 0, 1) + q(1, 0, 1, 0)) + e1c * (q(0, 1, 1, 0) + q(0, 1, 0, 1))
    )
    return mean, second


@given(
    g=st.floats(0, 1.2),
    re_a=st.floats(-1, 1),
    im_a=st.floats(-1, 1),
    r=st.floats(0, 1.2),
    t1=st.floats(0, 1),
    t2=st.floats(0, 1),
    phi=st.floats(-math.pi, math.pi),
)
@settings(max_examples=60, deadline=None)
def test_reality_everywhere(g, re_a, im_a, r, t1, t2, phi):
    """Hermitian expectations from the raw moments are real and equal the
    phase-harmonic statistics."""
    p = InterferometerParams(g=g, alpha=complex(re_a, im_a), r=r, t1=t1, t2=t2, phi=phi)
    mean, second = _assembled_from_moments(p)
    stats = quadrature_stats(p)
    for raw, value in ((mean, stats.mean), (second, stats.second_moment)):
        assert abs(raw.imag) <= 1e-9 * max(1.0, abs(raw.real))
        assert value == pytest.approx(raw.real, rel=1e-9, abs=1e-9)


@given(
    g=st.floats(0, 1.5),
    r=st.floats(0, 1.2),
    t1=st.floats(0, 1),
    t2=st.floats(0, 1),
    phi=st.floats(-math.pi, math.pi),
    size=st.floats(0, 1e4),
    angle=st.floats(0, 2 * math.pi),
)
@settings(max_examples=100, deadline=None)
def test_variance_independent_of_alpha(g, r, t1, t2, phi, size, angle):
    """A displacement moves the mean only: Var X at |alpha| <= 1e4 equals its
    alpha = 0 value to 1e-12."""
    p = InterferometerParams(g=g, alpha=size * cmath.exp(1j * angle), r=r, t1=t1, t2=t2, phi=phi)
    vacuum = quadrature_stats(p.replace(alpha=0)).variance
    assert quadrature_stats(p).variance == pytest.approx(vacuum, rel=1e-12)


def test_variance_exact_at_large_alpha():
    # the mean-subtracted assembly lost 8e-8 relative here
    p = InterferometerParams(g=1, alpha=1e4, r=0.6, t1=0.7, t2=0.9, phi=0.8)
    for alpha in (1e4, -1e4j, 7e3 + 7e3j):
        assert quadrature_stats(p.replace(alpha=alpha)).variance == pytest.approx(
            quadrature_stats(p.replace(alpha=0)).variance, rel=1e-12
        )


def test_slope_matches_finite_difference():
    p = InterferometerParams(g=1, alpha=1, r=0.6, phi=0.3)
    h = 1e-5
    fd = (
        quadrature_stats(p.replace(phi=p.phi + h)).mean
        - quadrature_stats(p.replace(phi=p.phi - h)).mean
    ) / (2 * h)
    assert quadrature_stats(p).dmean_dphi == pytest.approx(fd, rel=1e-7)
