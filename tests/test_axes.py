"""The independent-axis factorization of constellations, and the pipeline run on it.

Every layer runs a constellation axis by axis.  For the product labelings
(BPSK, QPSK, QAM16, QAM64) that is an exact reduction to 1-D PAM axes; run
at the same resolution, it must agree with the same pipeline run on the whole
constellation as one 2-D axis up to rounding: the plane's output lattice is
the product of its axes' lattices.
"""
import itertools
import math
import warnings

import numpy as np
import pytest

from pbicm import _ensemble, infotheory, kernels
from pbicm.channel import Awgn, Dmc, RayleighCsi, Snr, make_rng
from pbicm.constellation import Axis, Constellation, make_constellation
from pbicm.subchannel import SubchannelView, llr_matrix

from conftest import random_stochastic

FACTORED = ("BPSK", "QPSK", "QAM16", "QAM64")
RHOS = (0.3, 1.0, 2.0)
STEP, GL = 0.5, 16  # few fading nodes keep the 2-D route of QAM64 cheap; a coarser step misses 1e-12


def _whole_plane(cons: Constellation) -> tuple[Axis, ...]:
    pts = np.stack([cons.symbols.real, cons.symbols.imag], axis=1)
    return (Axis(tuple(range(cons.L)), (0, 1), pts),)


def _channel(kind: str, snr_db: float = 8.0):
    return (Awgn if kind == "awgn" else RayleighCsi)(Snr(snr_db).n0)


def _results(base, cons, y, h):
    """Moments (both passes of one walk), E0 integrals and LLRs from the uncached pipeline at (STEP, GL)."""
    ens = _ensemble.get_ensemble.__wrapped__(base, cons)
    return {
        "moments": np.concatenate([v for table in _ensemble._moment_pass(base, cons, STEP, GL) for v in table]),
        "sub_e0": np.array([ens.sub_integrals(rho) for rho in RHOS]),
        "mary_e0": np.array([ens.mary_integral(rho) for rho in RHOS]),
        "llr": llr_matrix(base, cons, y, h) if isinstance(base, RayleighCsi) else llr_matrix(base, cons, y),
    }


def _outputs(n=500, seed=21):
    g = make_rng(seed)
    return g.normal(size=n) + 1j * g.normal(size=n), (g.normal(size=n) + 1j * g.normal(size=n)) / np.sqrt(2)


def _both_routes(monkeypatch, base, cons, y, h):
    monkeypatch.setattr(_ensemble, "LATTICE_STEP", STEP)
    monkeypatch.setattr(_ensemble, "GL_NODES", GL)
    axes = _results(base, cons, y, h)
    monkeypatch.setattr(Constellation, "axes", property(_whole_plane), raising=False)
    return axes, _results(base, cons, y, h)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("BPSK", [((0,), (0,))]),
        ("QPSK", [((0,), (0,)), ((1,), (1,))]),
        ("QAM16", [((0, 1), (0,)), ((2, 3), (1,))]),
        ("QAM64", [((0, 1, 2), (0,)), ((3, 4, 5), (1,))]),
        ("PSK8", [((0, 1, 2), (0, 1))]),
    ],
)
def test_axes_follow_points_and_labels(name, expected):
    cons = make_constellation(name)
    assert [(a.bits, a.dims) for a in cons.axes] == expected
    for axis in cons.axes:
        assert axis.points.shape == (2**axis.L, len(axis.dims))
        # the symbol of every label has the axis point of the label's axis bits
        for b in range(cons.m):
            k = int("".join(str((b >> (cons.L - 1 - s)) & 1) for s in axis.bits), 2)
            coords = np.array([cons.symbols[b].real, cons.symbols[b].imag])[list(axis.dims)]
            np.testing.assert_array_equal(coords, axis.points[k])


def test_rotated_qam_is_one_plane_axis():
    # the split is read from the points, not the name: a rotated QPSK does not split
    q = make_constellation("QPSK")
    rotated = Constellation("QPSK", 2, q.points * np.exp(0.3j), q.labels)
    assert [(a.bits, a.dims) for a in rotated.axes] == [((0, 1), (0, 1))]


@pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
@pytest.mark.parametrize("name", FACTORED)
def test_axis_route_matches_plane_route_at_equal_nodes(monkeypatch, name, kind):
    cons, base = make_constellation(name), _channel(kind)
    axes, plane = _both_routes(monkeypatch, base, cons, *_outputs())
    for key in ("moments", "sub_e0", "mary_e0"):
        np.testing.assert_allclose(axes[key], plane[key], rtol=0, atol=1e-12, err_msg=key)
    np.testing.assert_allclose(axes["llr"], plane["llr"], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["awgn", "rayleigh", "dmc"])
def test_plane_and_exact_block_routes_are_unchanged_bit_for_bit(monkeypatch, kind):
    # PSK8 is one 2-D axis and a Dmc one exact axis whatever the labels:
    # forcing the whole-plane route changes nothing, and neither does running
    # one channel state (or one demapped sample) per block, as the states
    # were once looped
    cons = make_constellation("PSK8")
    base = Dmc(random_stochastic(np.random.default_rng(8), 8, 6)) if kind == "dmc" else _channel(kind, 5.0)
    blocks = kernels.BLOCK_ENTRIES
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 1)
    monkeypatch.setattr(_ensemble, "LATTICE_STEP", STEP)
    monkeypatch.setattr(_ensemble, "GL_NODES", GL)
    y, h = (np.arange(6).repeat(2), None) if kind == "dmc" else _outputs()
    per_state = _results(base, cons, y, h)
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", blocks)
    axes, plane = _both_routes(monkeypatch, base, cons, y, h)
    for key in per_state:
        np.testing.assert_array_equal(axes[key], per_state[key], err_msg=key)
        np.testing.assert_array_equal(axes[key], plane[key], err_msg=key)


@pytest.mark.parametrize("name", ["QPSK", "QAM16", "QAM64"])
def test_runs_of_states_do_not_change_multi_axis_results(monkeypatch, name):
    # the moment pass and the E0 ensemble walk the outputs of one run of
    # states at a time; with two axes per state, one state per run must
    # give the same bits as the default runs
    cons, base = make_constellation(name), _channel("rayleigh", 5.0)
    monkeypatch.setattr(_ensemble, "LATTICE_STEP", STEP)
    monkeypatch.setattr(_ensemble, "GL_NODES", GL)
    y, h = _outputs()
    default = _results(base, cons, y, h)
    monkeypatch.setattr(kernels, "BLOCK_ENTRIES", 1)
    per_state = _results(base, cons, y, h)
    for key in default:
        np.testing.assert_array_equal(per_state[key], default[key], err_msg=key)


def _squashed_qam16() -> Constellation:
    q = make_constellation("QAM16")
    return Constellation("QAM16", 4, q.points.real + 0.5j * q.points.imag, q.labels)


@pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
@pytest.mark.parametrize("name, distinct", [("QPSK", 1), ("QAM16", 1), ("QAM64", 1), ("QAM16-squashed", 2)])
def test_axes_with_equal_points_are_walked_once_bit_for_bit(monkeypatch, name, distinct, kind):
    # the I and Q axes of QPSK and square QAM have the same points, so one
    # walk serves both; a QAM16 whose Q axis is scaled by 0.5 walks both.
    # Walking every axis on its own must give the same bits
    cons, base = (_squashed_qam16() if name == "QAM16-squashed" else make_constellation(name)), _channel(kind)
    walked = []
    real_outputs = _ensemble._outputs

    def counted_outputs(base, cons, axis, *args):
        walked.append(axis.bits)
        return real_outputs(base, cons, axis, *args)

    def results():
        ens = _ensemble.get_ensemble.__wrapped__(base, cons)
        e0 = [f(rho) for rho in (0.3, 1.0, 3.0) for f in (ens.sub_integrals, ens.mary_integral)]
        return len(ens.stored), [*_ensemble.moment_table(base, cons), *e0]

    monkeypatch.setattr(_ensemble, "_outputs", counted_outputs)
    stored, grouped = results()
    # per distinct axis: the stored R(1) walk, two streamed R(3) walks and one walk for both moment passes
    assert stored == distinct and len(walked) == 4 * distinct
    monkeypatch.setattr(_ensemble, "_axes", lambda base, cons: [(a, np.array([a.bits])) for a in cons.axes])
    walked.clear()
    stored, per_axis = results()
    assert stored == 2 and len(walked) == 8
    for got, want in zip(grouped, per_axis, strict=True):
        np.testing.assert_array_equal(got, want)


def test_rayleigh_qam64_llrs_match_subchannel_law():
    cons, base = make_constellation("QAM64"), RayleighCsi(0.2)
    y, h = _outputs(n=300, seed=4)
    z = llr_matrix(base, cons, y, h)
    for i in range(1, cons.L + 1):
        v = SubchannelView(base, cons, i)
        for k in range(0, 300, 7):
            want = np.log(v.prob((y[k], h[k]), 0) / v.prob((y[k], h[k]), 1))
            assert z[i - 1, k] == pytest.approx(want, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("name", ["QAM64", "PSK8"])
def test_llrs_of_vanishing_fading(name):
    cons, base = make_constellation(name), RayleighCsi(0.1)
    y = np.array([0.7 - 1.3j, 0.7 - 1.3j, -2.0 + 0.5j])
    h = np.array([0.0, 1e-200 * (0.6 + 0.8j), 1e-200j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = llr_matrix(base, cons, y, h)
    assert np.all(z[:, 0] == 0.0)  # no fading gain: the output says nothing
    assert np.all(np.isfinite(z))
    assert np.all(np.abs(z[:, 1:]) < 1e-150)


@pytest.mark.parametrize("snr_db", [-30.0, -10.0, 0.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0])
def test_qam16_rayleigh_quadrature_converges(snr_db):
    base, cons = RayleighCsi(Snr(snr_db).n0), make_constellation("QAM16")
    rep = infotheory.dispersion_report(base, cons)
    assert infotheory.capacity_cm(base, cons) >= rep.c_pbicm - _ensemble.CONVERGENCE_TOL
    assert np.isfinite(infotheory.e0_evaluator(base, cons, "WbarCombined").e0(1.0))


def _walk_reference(points, scale, n0, step, radius):
    """The walk's outputs by enumeration: each point's box of lattice indices in label order, its nodes in
    offset order (first coordinate slowest), a node kept only if no earlier point's box holds it."""
    cell = step * np.sqrt(n0 / 2)
    nodes, gains, starts, dropped = [], [], [], []
    for s in scale:
        boxes = [
            [(math.ceil(s * x / cell - radius / step), math.floor(s * x / cell + radius / step)) for x in p]
            for p in points
        ]
        starts.append(len(nodes))
        drop = 0
        for j, box in enumerate(boxes):
            for node in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
                if any(all(lo <= i <= hi for i, (lo, hi) in zip(node, boxes[k])) for k in range(j)):
                    drop += 1
                else:
                    nodes.append(node)
                    gains.append(s)
        dropped.append(drop)
    return np.array(nodes, dtype=float) * cell, np.array(gains), np.array(starts), dropped


def _walk_axis(name):
    if name == "uneven-2d":  # four points in the plane at unequal distances
        return Axis((0, 1), (0, 1), np.array([[0.0, 0.0], [1.3, 0.2], [-0.4, 0.9], [0.7, -1.1]]))
    return make_constellation(name).axes[0]


@pytest.mark.parametrize("rho", [0.0, 3.0])
@pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
@pytest.mark.parametrize("name", ["BPSK", "QAM16", "PSK8", "uneven-2d"])
def test_walk_matches_enumerated_boxes(name, kind, rho):
    # the lattice walk keeps each node of a point's box unless an earlier
    # point's box holds it; the outputs, their order and their log densities
    # must be exactly those of enumerating the boxes one node at a time
    axis, base = _walk_axis(name), _channel(kind)
    # Rayleigh: a near-zero gain, where every box overlaps, to one high enough that none does
    scale = np.ones(1) if kind == "awgn" else np.array([1e-3, 0.4, 1.5, 40.0])
    radius = _ensemble._radius(len(axis.points), rho)
    cons = make_constellation("QPSK")  # read only for a Dmc base
    runs = list(_ensemble._outputs(base, cons, axis, scale, STEP, radius))
    y, h, starts, dropped = _walk_reference(axis.points, scale, base.n0, STEP, radius)
    sizes = np.cumsum([0] + [run.log_rows.shape[1] for run in runs])
    np.testing.assert_array_equal(np.concatenate([run.starts + n for run, n in zip(runs, sizes)]), starts)
    np.testing.assert_array_equal(
        np.concatenate([run.log_rows for run in runs], axis=1), kernels.log_densities(y, h, axis.points, base.n0)
    )
    assert all(run.cell == (STEP * np.sqrt(base.n0 / 2)) ** axis.points.shape[1] for run in runs)
    if kind == "rayleigh":
        assert dropped[0] > 0 and dropped[-1] == 0


def test_fine_fading_nodes_hold_the_coarse_ones():
    # 2 gl - 1 nodes on [-40, 4] put the gl coarse nodes at their even indices, exactly
    gl = _ensemble.GL_NODES
    np.testing.assert_array_equal(np.linspace(-40, 4, 2 * gl - 1)[::2], np.linspace(-40, 4, gl))
    fine, coarse = _ensemble._fading_nodes(RayleighCsi(1.0), 2 * gl - 1), _ensemble._fading_nodes(RayleighCsi(1.0), gl)
    np.testing.assert_array_equal(fine[0][::2], coarse[0])  # the same gains |h|


def _one_resolution(base, cons, step, gl):
    """The moment pass as a walk of its own at (step, gl): its fading rule and fold, every output summed."""
    scale, w = _ensemble._fading_nodes(base, gl)
    if isinstance(base, RayleighCsi):
        keep = scale >= math.exp(_ensemble._fading_floor(base.n0) / 2)
        scale, w = np.append(scale[keep], 0.0), np.append(w[keep], w[~keep].sum())
    c, v, cm = np.zeros(cons.L), np.zeros(cons.L), np.full(1, float(cons.L))
    for axis, bits in _ensemble._axes(base, cons):
        runs = _ensemble._outputs(base, cons, axis, scale, step, _ensemble._radius(cons.m, 0.0))
        tot = _ensemble._per_state(runs, lambda run: _ensemble._deficit_sums(run)[0]) @ w
        mean_d, mean_d2, label_d = np.split(tot, [axis.L, 2 * axis.L])
        c[bits], v[bits] = 1.0 - mean_d, mean_d2 - mean_d * mean_d
        for _ in bits:
            cm -= label_d
    return c, v, cm


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 40.0])
@pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
@pytest.mark.parametrize("name", ["BPSK", "QPSK", "PSK8", "QAM16", "QAM64"])
def test_coarse_pass_of_the_walk_is_a_walk_at_the_coarse_resolution(name, kind, snr_db):
    # the moment gate reads its coarse pass off the fine walk: the even
    # outputs of the even states must sum to what a walk of their own at
    # (LATTICE_STEP, GL_NODES) sums, bit for bit
    base, cons = _channel(kind, snr_db), make_constellation(name)
    step, gl = _ensemble.LATTICE_STEP, _ensemble.GL_NODES
    coarse, _ = _ensemble._moment_pass(base, cons, step, gl)
    for got, want in zip(coarse, _one_resolution(base, cons, step, gl), strict=True):
        np.testing.assert_array_equal(got, want)


def test_dmc_walk_gives_the_same_sums_to_both_passes():
    base, cons = Dmc(random_stochastic(np.random.default_rng(13), 16, 7)), make_constellation("QAM16")
    coarse, fine = _ensemble._moment_pass(base, cons, _ensemble.LATTICE_STEP, _ensemble.GL_NODES)
    want = _one_resolution(base, cons, _ensemble.LATTICE_STEP, _ensemble.GL_NODES)
    for a, b, c in zip(coarse, fine, want, strict=True):
        np.testing.assert_array_equal(a, c)
        np.testing.assert_array_equal(b, c)
