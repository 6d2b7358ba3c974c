import json
import subprocess
import sys

import numpy as np
import pytest

from pbicm import _ensemble, infotheory
from pbicm.channel import Awgn, Dmc, RayleighCsi, Snr, bsc, save_dmc
from pbicm.cli import main
from pbicm.constellation import make_constellation


def run_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_capacity_single_point(tmp_path):
    out = tmp_path / "cap.csv"
    assert main(
        [
            "capacity",
            "--constellation",
            "PSK8",
            "--channel",
            "awgn",
            "--snr-db",
            "5",
            "--out",
            str(out),
        ]
    ) == 0
    head, rows = run_csv(out)
    assert head == ["snr_db", "c_cm_bits", "c_pbicm_bits", "c_sub_1_bits", "c_sub_2_bits", "c_sub_3_bits"]
    assert len(rows) == 1
    snr, c_cm, c_pb = (float(v) for v in rows[0][:3])
    assert snr == 5.0
    assert abs(c_cm - 1.86) <= 0.02
    assert abs(c_pb - 1.84) <= 0.02
    assert sum(float(v) for v in rows[0][3:]) == pytest.approx(c_pb, abs=1e-6)


def test_capacity_sweep_sorted_and_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "capacity",
        "--constellation",
        "BPSK",
        "--channel",
        "awgn",
        "--snr-sweep",
        "4:0:3",
    ]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _, rows = run_csv(a)
    snrs = [float(r[0]) for r in rows]
    assert snrs == sorted(snrs) == [0.0, 2.0, 4.0]
    caps = [float(r[2]) for r in rows]
    assert caps == sorted(caps)  # capacity grows with SNR


def test_unconverged_quadrature_in_a_pool_worker_exits_with_one_line(monkeypatch):
    # at zero tolerance every point raises QuadratureConvergenceError, and the CLI ends with one line
    monkeypatch.setattr(_ensemble, "CONVERGENCE_TOL", 0.0)
    infotheory._moments.cache_clear()
    with pytest.raises(SystemExit) as err:
        main(["capacity", "--constellation", "BPSK", "--channel", "awgn", "--snr-sweep", "0:4:3"])
    msg = err.value.code
    assert isinstance(msg, str) and "\n" not in msg and msg.endswith("(tolerance 0)"), msg


def test_capacity_dmc_channel(tmp_path):
    f = tmp_path / "noiseless.csv"
    save_dmc(Dmc(np.eye(4)), f)
    out = tmp_path / "cap.csv"
    main(
        [
            "capacity",
            "--constellation",
            "QPSK",
            "--channel",
            "dmc",
            "--dmc-file",
            str(f),
            "--out",
            str(out),
        ]
    )
    head, rows = run_csv(out)
    assert rows[0][0] == "nan"
    assert float(rows[0][2]) == pytest.approx(2.0, abs=1e-9)


def test_exponents_bsc(tmp_path):
    f = tmp_path / "bsc.csv"
    save_dmc(bsc(0.1), f)
    out = tmp_path / "exp.csv"
    main(
        [
            "exponents",
            "--constellation",
            "BPSK",
            "--channel",
            "dmc",
            "--dmc-file",
            str(f),
            "--rates",
            "0.3,0.1",
            "--out",
            str(out),
        ]
    )
    head, rows = run_csv(out)
    assert head == ["rate_bits", "unconstrained", "pbicm", "pbicm_normalized", "wachsmann_flawed"]
    rates = [float(r[0]) for r in rows]
    assert rates == [0.1, 0.3]
    # with one bit level the parallel scheme is the binary channel itself:
    # E(0.1) = E0(1) - 0.1 in the straight-line region
    e01 = 1 - 2 * np.log2(np.sqrt(0.9) + np.sqrt(0.1)) - 0.1
    assert float(rows[0][2]) == pytest.approx(e01, abs=1e-6)
    for r in rows:
        rate, unc, pb, pbn, wf = (float(v) for v in r)
        assert pbn == pytest.approx(pb, abs=1e-12)  # L = 1
        assert wf >= pb - 1e-12
        assert unc >= 0


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
def test_exponents_columns_are_the_exponent_curve_kinds(tmp_path, channel):
    out = tmp_path / "exp.csv"
    argv = ["exponents", "--constellation", "QAM16", "--channel", channel, "--snr-db", "6", "--rates", "0.1,0.5,1"]
    assert main(argv + ["--out", str(out)]) == 0
    head, rows = run_csv(out)
    base = (Awgn if channel == "awgn" else RayleighCsi)(Snr(6.0).n0)
    kinds = ["UnconstrainedRandomCoding", "PbicmRandomCoding", "PbicmNormalized", "WachsmannRandomCoding"]
    for col, kind in enumerate(kinds, 1):
        curve = infotheory.exponent_curve(base, make_constellation("QAM16"), kind, [0.1, 0.5, 1.0])
        assert [r[col] for r in rows] == [f"{v:.9g}" for v in curve.values], head[col]


def test_exponents_rate_grid(tmp_path):
    out = tmp_path / "exp.csv"
    main(
        [
            "exponents",
            "--constellation",
            "QPSK",
            "--channel",
            "awgn",
            "--snr-db",
            "2",
            "--rate-min",
            "0.2",
            "--rate-max",
            "1.0",
            "--rate-points",
            "3",
            "--out",
            str(out),
        ]
    )
    _, rows = run_csv(out)
    assert [float(r[0]) for r in rows] == [0.2, 0.6, 1.0]
    vals = [float(r[2]) for r in rows]
    assert vals == sorted(vals, reverse=True)


def test_dispersion_json(tmp_path):
    out = tmp_path / "disp.json"
    main(
        [
            "dispersion",
            "--constellation",
            "QPSK",
            "--channel",
            "awgn",
            "--snr-db",
            "5",
            "--out",
            str(out),
        ]
    )
    rep = json.loads(out.read_text())
    assert rep["L"] == 2
    assert rep["v_pbicm"] == pytest.approx(4 * rep["v_wbar"], rel=1e-12)
    assert rep["penalty"] == pytest.approx(0.0, abs=1e-9)
    assert rep["c_pbicm"] == pytest.approx(sum(rep["c_subchannels"]), rel=1e-12)


def test_ratebounds_at_the_snr_cap(tmp_path):
    out = tmp_path / "rb.csv"
    args = ["ratebounds", "--constellation", "QPSK", "--channel", "awgn", "--snr-db", "100", "--out", str(out)]
    assert main(args) == 0
    _, rows = run_csv(out)
    # QPSK carries 2 bits, and the dispersion is 0 up to rounding
    assert rows and all(float(v) == pytest.approx(2.0, abs=1e-6) for row in rows for v in row[2:])


def test_ratebounds_grid(tmp_path):
    out = tmp_path / "rb.csv"
    main(
        [
            "ratebounds",
            "--constellation",
            "QPSK",
            "--channel",
            "awgn",
            "--snr-db",
            "5",
            "--blocklengths",
            "1000,100",
            "--pe",
            "1e-3,1e-5",
            "--out",
            str(out),
        ]
    )
    head, rows = run_csv(out)
    assert head == ["n", "pe", "lower_bits", "upper_bits"]
    assert len(rows) == 4
    assert [int(r[0]) for r in rows] == [100, 100, 1000, 1000]
    for r in rows:
        assert float(r[2]) < float(r[3])
    # the bracket tightens as n grows at fixed pe
    w100 = float(rows[0][3]) - float(rows[0][2])
    w1000 = float(rows[2][3]) - float(rows[2][2])
    assert w1000 < w100


def test_simulate_and_seed_override(tmp_path):
    spec = tmp_path / "sim.json"
    spec.write_text(
        json.dumps(
            {
                "code": {"kind": "hamming74"},
                "constellation": "QPSK",
                "channel": {"kind": "awgn", "snr_db": 2.0},
                "trials": 2000,
                "seed": 1,
            }
        )
    )
    out1, out2, out3 = (tmp_path / f"r{i}.json" for i in range(3))
    main(["simulate", "--sim-config", str(spec), "--out", str(out1)])
    main(["simulate", "--sim-config", str(spec), "--out", str(out2)])
    main(["simulate", "--sim-config", str(spec), "--seed", "9", "--out", str(out3)])
    assert out1.read_bytes() == out2.read_bytes()
    r1 = json.loads(out1.read_text())
    r3 = json.loads(out3.read_text())
    assert r1["seed"] == 1 and r3["seed"] == 9
    assert 0 < r1["pe_overall"] < 1
    assert r1["counts"] != r3["counts"]


def test_constellation_dump(tmp_path):
    out = tmp_path / "c.json"
    main(["constellation", "--constellation", "QAM16", "--out", str(out)])
    d = json.loads(out.read_text())
    assert d["L"] == 4 and len(d["points"]) == 16
    assert sorted(d["labels"]) == list(range(16))


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"constellation": "PSK8", "snr-db": 5.0}))
    out1 = tmp_path / "o1.csv"
    main(["capacity", "--channel", "awgn", "--config", str(cfg), "--out", str(out1)])
    head, rows = run_csv(out1)
    assert head[3:] == ["c_sub_1_bits", "c_sub_2_bits", "c_sub_3_bits"]  # PSK8 applied
    assert float(rows[0][0]) == 5.0
    # explicit flags win over the config file
    out2 = tmp_path / "o2.csv"
    main(
        [
            "capacity",
            "--channel",
            "awgn",
            "--config",
            str(cfg),
            "--snr-db",
            "3",
            "--out",
            str(out2),
        ]
    )
    assert float(run_csv(out2)[1][0][0]) == 3.0


def test_missing_channel_inputs_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["capacity", "--constellation", "QPSK", "--channel", "awgn"])
    with pytest.raises(SystemExit):
        main(["capacity", "--constellation", "QPSK", "--channel", "dmc"])


def test_library_value_errors_exit_with_one_line(tmp_path):
    with pytest.raises(SystemExit, match="too low"):
        main(["capacity", "--channel", "awgn", "--snr-db", "-4000"])
    spec = tmp_path / "sim.json"
    spec.write_text(
        '{"code": {"kind": "hamming74"}, "constellation": "QPSK",'
        ' "channel": {"kind": "awgn", "snr_db": NaN}, "trials": 10}'
    )
    with pytest.raises(SystemExit, match="finite and positive"):
        main(["simulate", "--sim-config", str(spec)])


def test_config_equals_form_is_applied(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"constellation": "PSK8", "snr-db": 5.0}))
    out = tmp_path / "o.csv"
    main(["capacity", "--channel", "awgn", f"--config={cfg}", "--out", str(out)])
    head, rows = run_csv(out)
    assert head[3:] == ["c_sub_1_bits", "c_sub_2_bits", "c_sub_3_bits"]
    assert float(rows[0][0]) == 5.0


SIM_SPEC_WITHOUT_TRIALS = json.dumps(
    {"code": {"kind": "hamming74"}, "constellation": "QPSK", "channel": {"kind": "awgn", "snr_db": 2.0}}
)


def _inline_matrix_spec(matrix) -> str:
    return json.dumps({"code": {"kind": "repetition", "n": 3}, "constellation": "BPSK",
                       "channel": {"kind": "dmc", "matrix": matrix}, "trials": 10})


@pytest.mark.parametrize(
    "command, content, named",
    [
        ("capacity", None, ["cfg.json"]),
        ("capacity", '{"snr-db": 5', ["cfg.json"]),
        ("capacity", "[5]", ["cfg.json", "expected a JSON object of flag defaults"]),
        ("simulate", None, ["sim.json"]),
        ("simulate", SIM_SPEC_WITHOUT_TRIALS, ["sim.json", "'trials'"]),
        ("simulate", _inline_matrix_spec([[0.9, 0.1], [0.1]]), ["sim.json", "channel.matrix"]),
        ("simulate", _inline_matrix_spec([]), ["sim.json", "channel.matrix"]),
        ("simulate", _inline_matrix_spec([[0.9, 0.1], 0.5]), ["sim.json", "channel.matrix"]),
        ("simulate", _inline_matrix_spec([[0.5, 0.6], [0.5, 0.5]]), ["sim.json", "channel.matrix"]),
    ],
    ids=["missing_config", "malformed_config", "config_not_an_object", "missing_sim_config",
         "sim_config_without_trials", "ragged_inline_matrix", "no_rows_inline_matrix", "row_not_a_list_inline_matrix",
         "not_stochastic_inline_matrix"],
)
def test_bad_input_file_exits_with_one_line(tmp_path, command, content, named):
    if command == "capacity":
        path = tmp_path / "cfg.json"
        argv = ["capacity", "--channel", "awgn", "--snr-db", "0", "--config", str(path)]
    else:
        path = tmp_path / "sim.json"
        argv = ["simulate", "--sim-config", str(path)]
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as err:
        main(argv)
    msg = err.value.code
    assert isinstance(msg, str) and "\n" not in msg  # a string code exits with status 1
    assert all(part in msg for part in named)


def test_bad_input_file_exit_status_and_stderr(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pbicm.cli", "simulate", "--sim-config", str(tmp_path / "none.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == [f"{tmp_path / 'none.json'}: No such file or directory"]


def test_verify_passes(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--seed", "0", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert rc == 0
    assert rep["all_passed"] is True
    names = {c["name"] for c in rep["checks"]}
    assert names >= {
        "dmc_oracle_equivalence",
        "equivalence_ks_qpsk",
        "equivalence_ks_qam16",
        "sandwich_bounds",
        "capacity_anchor_8psk_5db",
        "qinv_roundtrip",
    }


def test_verify_detects_injected_fault(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--seed", "0", "--inject-fault", "no-dither", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert rc == 1
    assert rep["all_passed"] is False
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["equivalence_ks_qam16"]["passed"] is False
    assert by_name["dmc_oracle_equivalence"]["passed"] is True


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cap.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pbicm.cli",
            "capacity",
            "--constellation",
            "BPSK",
            "--channel",
            "awgn",
            "--snr-db",
            "0",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["capacity", "--snr-sweep", "0:10:0"], "--snr-sweep"),
        (["capacity", "--snr-sweep", "0:10"], "--snr-sweep"),
        (["capacity", "--snr-sweep", "0:10:x"], "--snr-sweep"),
        (["capacity", "--snr-sweep", "0:10:2:1"], "--snr-sweep"),
        (["exponents", "--snr-db", "5", "--rate-points", "0"], "--rate-points"),
        (["exponents", "--snr-db", "5", "--rate-points", "-2"], "--rate-points"),
        (["ratebounds", "--snr-db", "5", "--blocklengths", "100,abc"], "--blocklengths"),
        (["ratebounds", "--snr-db", "5", "--blocklengths", "100,1e3"], "--blocklengths"),
        (["ratebounds", "--snr-db", "5", "--pe", "1e-3,x"], "--pe"),
        (["exponents", "--snr-db", "5", "--rates", "0.1,,0.3"], "--rates"),
    ],
)
def test_empty_or_malformed_sweep_exits_naming_the_flag(tmp_path, argv, flag):
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(out)])
    msg = err.value.code
    assert isinstance(msg, str) and "\n" not in msg and flag in msg
    assert not out.exists()  # no header-only table


def test_global_flags_before_or_after_the_subcommand_beat_the_config(tmp_path):
    spec = tmp_path / "sim.json"
    spec.write_text(SIM_SPEC_WITHOUT_TRIALS[:-1] + ', "trials": 50, "seed": 1}')
    cfg = tmp_path / "cfg.json"
    out, cfg_out = tmp_path / "r.json", tmp_path / "from_cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "out": str(cfg_out)}))
    sim = ["simulate", "--sim-config", str(spec)]
    cases = [
        (["--seed", "3", "--config", str(cfg), "--out", str(out)] + sim, out, 3),
        (sim + ["--seed", "3", "--out", str(out), f"--config={cfg}"], out, 3),
        (["--config", str(cfg)] + sim + ["--seed", "4", "--out", str(out)], out, 4),
        (sim + ["--config", str(cfg)], cfg_out, 7),
        (["--out", str(out)] + sim, out, 1),
    ]
    for argv, path, seed in cases:
        assert main(argv) == 0
        assert json.loads(path.read_text())["seed"] == seed, argv
        path.unlink()


@pytest.mark.parametrize(
    "command", [[], ["capacity"], ["exponents"], ["dispersion"], ["ratebounds"], ["simulate"], ["verify"],
                ["constellation"]]
)
def test_help_lists_the_global_flags(capsys, command):
    with pytest.raises(SystemExit) as err:
        main(command + ["--help"])
    assert err.value.code == 0
    text = capsys.readouterr().out
    assert all(f in text for f in ("--seed SEED", "--out OUT", "--config CONFIG"))


@pytest.mark.parametrize(
    "command, config, flag",
    [
        (["capacity"], {"snr-db": [5]}, "--snr-db"),
        (["capacity"], {"snr-db": True}, "--snr-db"),
        (["exponents", "--snr-db", "5"], {"rate-points": 2.5}, "--rate-points"),
        (["capacity", "--snr-db", "5"], {"constellation": "QAM8"}, "--constellation"),
    ],
    ids=["list", "bool", "float_for_int", "unknown_choice"],
)
def test_config_values_are_checked_like_typed_flags(tmp_path, command, config, flag):
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps(config))
    with pytest.raises(SystemExit) as err:
        main(command + ["--config", str(cfg), "--out", str(out)])
    msg = err.value.code
    assert isinstance(msg, str) and "\n" not in msg and flag in msg
    assert not out.exists()


def test_config_value_for_a_flag_of_another_command_is_ignored(tmp_path):
    # capacity has no --rate-points; only exponents checks the value
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps({"rate-points": 2.5}))
    assert main(["capacity", "--snr-db", "5", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = run_csv(out)
    assert [r[0] for r in rows] == ["5"]


@pytest.mark.parametrize(
    "command, config, column, value",
    [
        (["capacity"], {"snr-db": "5"}, 0, "5"),
        (["ratebounds", "--snr-db", "5"], {"blocklengths": 1000, "pe": 0.001}, 0, "1000"),
    ],
)
def test_config_values_that_typed_flags_take_keep_working(tmp_path, command, config, column, value):
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps(config))
    assert main(command + ["--config", str(cfg), "--out", str(out)]) == 0
    _, rows = run_csv(out)
    assert [r[column] for r in rows] == [value]


def test_rate_grid_given_high_to_low_is_sorted(tmp_path):
    out = tmp_path / "exp.csv"
    argv = ["exponents", "--snr-db", "5", "--rate-min", "1", "--rate-max", "0.2", "--rate-points", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    _, rows = run_csv(out)
    assert [float(r[0]) for r in rows] == [0.2, 0.6, 1.0]


@pytest.mark.parametrize("argv", [["--snr-db", "nan"], ["--snr-sweep", "nan:1:2"]])
def test_nan_snr_is_reported_as_nan_not_as_missing(argv):
    with pytest.raises(SystemExit) as err:
        main(["capacity"] + argv)
    msg = err.value.code
    assert isinstance(msg, str) and "\n" not in msg
    assert "nan" in msg and "require" not in msg


@pytest.mark.parametrize("command", ["capacity", "exponents", "dispersion", "ratebounds"])
def test_missing_snr_message_names_only_flags_the_command_has(command):
    with pytest.raises(SystemExit) as err:
        main([command, "--channel", "rayleigh"])
    msg = err.value.code
    assert msg.startswith("continuous channels require --snr-db")
    assert ("--snr-sweep" in msg) == (command == "capacity")


def test_exponents_dmc_workers_agree(tmp_path):
    f = tmp_path / "chan.csv"
    save_dmc(Dmc(np.random.default_rng(3).dirichlet(np.ones(5), size=4)), f)
    out = tmp_path / "exp.csv"
    argv = ["exponents", "--constellation", "QPSK", "--channel", "dmc", "--dmc-file", str(f), "--rate-points", "4"]
    assert main(argv + ["--out", str(out)]) == 0
    assert len(run_csv(out)[1]) == 4


@pytest.mark.parametrize("rates", ["nan,0.2", "0.2,inf", "-0.1"])
def test_exponents_rate_that_is_not_finite_and_nonnegative_exits_with_one_line(tmp_path, rates):
    out = tmp_path / "exp.csv"
    with pytest.raises(SystemExit) as err:
        main(["exponents", "--snr-db", "5", "--rates", rates, "--out", str(out)])
    msg = err.value.code
    assert isinstance(msg, str) and "\n" not in msg and "finite and nonnegative" in msg
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["capacity", "--snr-sweep", "0:10:0"], "--snr-sweep"),
        (["capacity", "--snr-sweep", "0:10:3"], "--snr-sweep"),
        (["capacity", "--snr-db", "3"], "--snr-db"),
        (["exponents", "--snr-db", "3"], "--snr-db"),
        (["dispersion", "--snr-db", "3"], "--snr-db"),
        (["ratebounds", "--snr-db", "3"], "--snr-db"),
    ],
)
def test_snr_given_for_a_dmc_exits_naming_the_flag(tmp_path, argv, flag):
    f = tmp_path / "bsc.json"
    save_dmc(bsc(0.1), f)
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as err:
        main(argv + ["--constellation", "BPSK", "--channel", "dmc", "--dmc-file", str(f), "--out", str(out)])
    msg = err.value.code
    assert isinstance(msg, str) and "\n" not in msg and flag in msg and "dmc" in msg
    assert not out.exists()


@pytest.mark.parametrize("command", ["capacity", "exponents", "dispersion", "ratebounds"])
@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
def test_dmc_file_given_for_a_continuous_channel_exits_naming_the_flag(tmp_path, command, channel):
    # a file that would go unread is refused, as an SNR given with a Dmc is
    f = tmp_path / "bsc.csv"
    save_dmc(bsc(0.1), f)
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as err:
        main([command, "--constellation", "BPSK", "--channel", channel, "--snr-db", "5", "--dmc-file", str(f),
              "--out", str(out)])
    assert err.value.code == f"--dmc-file does not apply to the {channel} channel"
    assert not out.exists()


@pytest.mark.parametrize("config", [{"snr-db": 5}, {"snr-sweep": "0:10:3"}, {"snr-db": 5, "dmc-file": "x.csv"}])
def test_config_snr_for_a_dmc_is_ignored(tmp_path, config):
    # one config can serve a Dmc and a continuous channel: only a typed flag is refused
    f = tmp_path / "bsc.csv"
    save_dmc(bsc(0.1), f)
    cfg, out, want = tmp_path / "c.json", tmp_path / "o.csv", tmp_path / "want.csv"
    cfg.write_text(json.dumps(config))
    main(["capacity", "--constellation", "BPSK", "--channel", "dmc", "--dmc-file", str(f), "--out", str(want)])
    assert main(["capacity", "--constellation", "BPSK", "--channel", "dmc", "--dmc-file", str(f),
                 "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text() == want.read_text()


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
def test_config_dmc_file_for_a_continuous_channel_is_ignored(tmp_path, channel):
    cfg, out, want = tmp_path / "c.json", tmp_path / "o.csv", tmp_path / "want.csv"
    cfg.write_text(json.dumps({"dmc-file": str(tmp_path / "bsc.csv")}))
    argv = ["capacity", "--constellation", "BPSK", "--channel", channel, "--snr-db", "3"]
    main(argv + ["--out", str(want)])
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text() == want.read_text()


def test_one_config_serves_a_dmc_and_a_continuous_channel(tmp_path):
    f = tmp_path / "bsc.csv"
    save_dmc(bsc(0.1), f)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"constellation": "BPSK", "snr-db": 5, "dmc-file": str(f)}))
    for channel in ("dmc", "awgn"):
        out = tmp_path / f"{channel}.csv"
        assert main(["capacity", "--channel", channel, "--config", str(cfg), "--out", str(out)]) == 0
        head, rows = run_csv(out)
        assert head[:2] == ["snr_db", "c_cm_bits"] and len(rows) == 1
        assert rows[0][0] == ("nan" if channel == "dmc" else "5")


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ({"channel": "dmc", "dmc-file": "{f}"}, ["--snr-db", "3"], "--snr-db does not apply to the dmc channel"),
        ({"channel": "awgn", "snr-db": 3}, ["--dmc-file", "{f}"], "--dmc-file does not apply to the awgn channel"),
    ],
)
def test_flag_typed_against_the_config_channel_is_refused(tmp_path, config, argv, message):
    f = tmp_path / "bsc.csv"
    save_dmc(bsc(0.1), f)
    cfg, out = tmp_path / "c.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps({k: str(v).format(f=f) for k, v in config.items()}))
    with pytest.raises(SystemExit) as err:
        main(["capacity", "--constellation", "BPSK", "--config", str(cfg), "--out", str(out)]
             + [a.format(f=f) for a in argv])
    assert err.value.code == message
    assert not out.exists()


def test_dmc_file_without_a_key_exits_with_one_line(tmp_path):
    f = tmp_path / "bsc.json"
    f.write_text('{"W": [[0.9, 0.1], [0.1, 0.9]]}')
    proc = subprocess.run(
        [sys.executable, "-m", "pbicm.cli", "capacity", "--constellation", "BPSK", "--channel", "dmc",
         "--dmc-file", str(f)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [f"{f}: missing key 'nx'"]


def test_empty_dmc_csv_exits_with_one_line(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "pbicm.cli", "capacity", "--constellation", "BPSK", "--channel", "dmc",
         "--dmc-file", str(f)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [f"{f}: header: expected a first line 'nx,ny'"]


def test_dmc_csv_with_only_a_header_exits_naming_the_count(tmp_path):
    # a 0 x 2 channel used to load and end with "Dmc input count must equal 2**L"
    f = tmp_path / "header.csv"
    f.write_text("0,2\n")
    with pytest.raises(SystemExit) as err:
        main(["capacity", "--constellation", "BPSK", "--channel", "dmc", "--dmc-file", str(f)])
    assert err.value.code == f"{f}: nx: must be at least 1, got 0"
