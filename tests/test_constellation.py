import json
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pbicm.constellation import (
    KINDS,
    Constellation,
    bits_to_int,
    int_to_bits,
    make_constellation,
    map_bits,
)


@pytest.mark.parametrize("kind", KINDS)
def test_shapes_energy_and_bijection(kind):
    cons = make_constellation(kind)
    m = 2**cons.L
    assert cons.points.shape == (m,)
    assert cons.labels.shape == (m,)
    assert sorted(cons.labels.tolist()) == list(range(m))
    assert abs(np.mean(np.abs(cons.points) ** 2) - 1.0) < 1e-12


def test_bpsk_points():
    cons = make_constellation("BPSK")
    assert cons.L == 1
    np.testing.assert_allclose(cons.symbols, [1.0, -1.0])


def test_qpsk_symbols_on_unit_circle():
    cons = make_constellation("QPSK")
    sym = map_bits(cons, int_to_bits(np.arange(4), 2))
    assert len(set(np.round(sym, 12))) == 4
    np.testing.assert_allclose(np.abs(sym), 1.0, atol=1e-12)
    # first bit selects the I sign, second the Q sign, each axis independent
    b = int_to_bits(np.arange(4), 2)
    i_signs = np.sign(sym.real)
    q_signs = np.sign(sym.imag)
    assert len(set(zip(b[:, 0], i_signs))) == 2
    assert len(set(zip(b[:, 1], q_signs))) == 2


def test_qam16_grid_scaling():
    cons = make_constellation("QAM16")
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    want = sorted(
        ((a + 1j * b) / np.sqrt(10.0) for a in (-3, -1, 1, 3) for b in (-3, -1, 1, 3)),
        key=key,
    )
    got = sorted(cons.points.tolist(), key=key)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_psk8_ring_and_gray_adjacency():
    cons = make_constellation("PSK8")
    k = np.arange(8)
    np.testing.assert_allclose(cons.points, np.exp(2j * np.pi * k / 8), atol=1e-12)
    # adjacent ring positions must carry labels differing in exactly one bit
    label_of_pos = np.empty(8, dtype=int)
    label_of_pos[cons.labels] = np.arange(8)
    for p in range(8):
        a, b = label_of_pos[p], label_of_pos[(p + 1) % 8]
        assert bin(a ^ b).count("1") == 1


@pytest.mark.parametrize("kind", ["QPSK", "QAM16", "QAM64"])
def test_qam_gray_adjacency(kind):
    cons = make_constellation(kind)
    m_axis = 2 ** (cons.L // 2)
    label_of_pos = np.empty(cons.m, dtype=int)
    label_of_pos[cons.labels] = np.arange(cons.m)
    for i in range(m_axis):
        for q in range(m_axis):
            here = label_of_pos[i * m_axis + q]
            if i + 1 < m_axis:
                other = label_of_pos[(i + 1) * m_axis + q]
                assert bin(here ^ other).count("1") == 1
            if q + 1 < m_axis:
                other = label_of_pos[i * m_axis + q + 1]
                assert bin(here ^ other).count("1") == 1


def test_map_bits_validation():
    cons = make_constellation("QPSK")
    with pytest.raises(ValueError):
        map_bits(cons, np.array([0, 1, 0]))
    with pytest.raises(ValueError):
        map_bits(cons, np.array([0, 2]))
    with pytest.raises(ValueError, match="0/1 valued"):
        map_bits(cons, np.array([0, 0.5]))  # refused before the symbol lookup


@pytest.mark.parametrize(
    "labels", [[True, False], [0.0, 1.0], [0, 2], [-1, 0], [0, 0]], ids=["bool", "float", "2", "-1", "repeat"]
)
def test_constellation_refuses_labels_that_are_not_a_bijection_of_indices(labels):
    # a bool True is not label index 1 and a float 1.0 is not an index: neither is cast
    with pytest.raises(ValueError, match="labels"):
        Constellation("x", 1, [1, -1], labels)


@pytest.mark.parametrize(
    "points", [[np.inf, -1], [np.nan, -1], [1, complex(0, -np.inf)]], ids=["inf", "nan", "imaginary-inf"]
)
def test_constellation_refuses_points_that_are_not_finite(points):
    # an infinite point would give capacity_cm = 1.0 on Awgn(0.5), with only a RuntimeWarning
    with pytest.raises(ValueError, match="points must be finite"):
        Constellation("x", 1, points, [0, 1])


@pytest.mark.parametrize("L", [0, -1, 1.0, True, "1"], ids=["0", "-1", "float", "bool", "string"])
def test_constellation_refuses_bits_per_symbol_that_are_not_an_integer_of_at_least_one(L):
    # with L = 0 and one point, capacity_cm would fail on a zero-size array
    with pytest.raises(ValueError, match="L must be"):
        Constellation("x", L, [1], [0])


def test_constellation_refuses_too_few_points_for_its_bits():
    with pytest.raises(ValueError, match=r"points/labels must have 2\*\*L entries"):
        Constellation("x", 2, [1, -1], [0, 1])


def test_unknown_kind_and_labeling():
    with pytest.raises(ValueError):
        make_constellation("QAM256")
    with pytest.raises(ValueError):
        make_constellation("QPSK", labeling="SetPartition")
    # the default spelling must be accepted explicitly too
    make_constellation("QPSK", labeling="Gray")


def test_to_json_round_trip():
    cons = make_constellation("QAM16")
    d = json.loads(cons.to_json())
    assert d["name"] == "QAM16" and d["L"] == 4
    pts = np.array([complex(re, im) for re, im in d["points"]])
    np.testing.assert_allclose(pts, cons.points, atol=1e-12)
    assert d["labels"] == cons.labels.tolist()


@given(st.integers(1, 8), st.data())
def test_bit_packing_round_trip(L, data):
    vals = data.draw(st.lists(st.integers(0, 2**L - 1), min_size=1, max_size=32))
    vals = np.array(vals)
    bits = int_to_bits(vals, L)
    assert bits.shape == vals.shape + (L,)
    np.testing.assert_array_equal(bits_to_int(bits), vals)


def test_constellation_is_a_value():
    qpsk = make_constellation("QPSK")
    assert qpsk == make_constellation("QPSK") and hash(qpsk) == hash(make_constellation("QPSK"))
    assert qpsk != make_constellation("QAM16")
    points, labels = qpsk.points.copy(), qpsk.labels.copy()
    relabeled = Constellation("QPSK", 2, points, labels[::-1])
    assert relabeled != qpsk
    assert Constellation("QPSK", 2, points, labels) == qpsk
    # the constellation holds read-only copies; the caller's arrays are untouched
    assert points.flags.writeable and labels.flags.writeable
    for a in (qpsk.points, qpsk.labels, qpsk.symbols):
        with pytest.raises(ValueError):
            a[0] = a[1]


@pytest.mark.parametrize("kind", ["QAM16", "PSK8"])
def test_constellation_stays_a_value_across_pickling(kind):
    cons = make_constellation(kind)
    back = pickle.loads(pickle.dumps(cons))
    assert back == cons and hash(back) == hash(cons)
    arrays = [back.points, back.labels, back.symbols] + [a.points for a in back.axes]
    axis = pickle.loads(pickle.dumps(cons.axes[0]))
    assert (axis.bits, axis.dims) == (cons.axes[0].bits, cons.axes[0].dims)
    np.testing.assert_array_equal(axis.points, cons.axes[0].points)
    assert not any(a.flags.writeable for a in arrays + [axis.points])
