import hashlib
import json
import math
import struct
import weakref

import numpy as np
import pytest

from rarewave.cli import main as cli_main
from rarewave.euler2d import FlowField, Grid
from rarewave.harness import (ConfigError, RunConfig, StudySpec, default_config,
                              emit_plots, parse_config, run_single, run_study, slope_fit)
from rarewave.snapshot_io import read_planes, read_snapshot, write_planes, write_snapshot

from conftest import GAS2, fan_field, small_grid

TINY = """
[grid]
n1 = 256
n2 = 8
[time]
delta = 0.2
t_star = 0.6
[solver]
snapshots = 5
[analysis]
orders = 1
u_levels = 2
save_snapshots = none
[perturbation]
epsilon = 0.0
"""


def tiny_config(out_dir, **overrides):
    cfg = parse_config(TINY)
    cfg.out_dir = str(out_dir)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg.validate()


class TestParse:
    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config("")
        assert (cfg.gamma, cfg.k0, cfg.c0, cfg.v0) == (2.0, 0.5, 1.0, 0.0)
        assert (cfg.delta, cfg.t_star, cfg.epsilon) == (0.05, 1.0, 0.01)
        assert (cfg.n1, cfg.n2) == (1024, 128)

    def test_gamma_out_of_range(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config("[gas]\ngamma = 5\n")

    def test_u_star_above_vacuum_bound(self):
        with pytest.raises(ConfigError, match="vacuum"):
            parse_config("[band]\nu_star = 3.5\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[gas]\nnope = 1\n")

    def test_unknown_section_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("[wrong]\n")

    def test_cfl_range(self):
        with pytest.raises(ConfigError, match="cfl"):
            parse_config("[solver]\ncfl = 0.95\n")

    def test_delta_resolution_floor(self):
        with pytest.raises(ConfigError, match="delta"):
            parse_config("[grid]\nn1 = 64\n[time]\ndelta = 0.05\n")

    @pytest.mark.parametrize("make, match", [
        (lambda: parse_config("[solver]\nflux = hll\n"), "line 2: unknown key 'flux'"),
        (lambda: parse_config("[solver]\nintegrator = euler\n"),
         "line 2: unknown key 'integrator'"),
        (lambda: parse_config("[analysis]\nwith_fluxes = true\n"),
         "line 2: unknown key 'with_fluxes'"),
        (lambda: RunConfig(n1=4).validate(), "at least 8"),
        (lambda: RunConfig(epsilon=-1).validate(), "epsilon"),
    ], ids=["flux", "integrator", "with_fluxes", "n1", "epsilon"])
    def test_rejected_configs(self, make, match):
        with pytest.raises(ConfigError, match=match):
            make()

    def test_modes_syntax(self):
        cfg = parse_config("[perturbation]\nmodes = 1:1:0.5, 2:3:0.25\n")
        assert cfg.modes == ((1, 1, 0.5), (2, 3, 0.25))
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[perturbation]\nmodes = 1:1\n")

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\n[gas]\ngamma = 1.8  # inline\n")
        assert cfg.gamma == 1.8


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        f = fan_field(GAS2, small_grid(n1=32, n2=8), 0.4)
        path = tmp_path / "snap.rwl"
        write_snapshot(f, path)
        g = read_snapshot(path)
        assert g.time == f.time
        assert g.gas == f.gas
        np.testing.assert_array_equal(g.rho, f.rho)
        np.testing.assert_array_equal(g.m2, f.m2)

    def test_binary_layout_contract(self, tmp_path):
        f = fan_field(GAS2, small_grid(n1=32, n2=8), 0.4)
        path = tmp_path / "snap.rwl"
        write_snapshot(f, path)
        raw = path.read_bytes()
        assert raw[:4] == b"RWL1"
        n1, n2 = struct.unpack_from("<II", raw, 4)
        x1_min, x1_max, t, gamma, k0 = struct.unpack_from("<5d", raw, 12)
        assert (n1, n2) == (32, 8)
        assert (x1_min, x1_max) == (-2.4, 2.2)
        assert (t, gamma, k0) == (0.4, 2.0, 0.5)
        assert len(raw) == 4 + 8 + 40 + 3 * 8 * 32 * 8
        plane0 = np.frombuffer(raw, dtype="<f8", count=32 * 8, offset=52).reshape(32, 8)
        np.testing.assert_array_equal(plane0, f.rho)

    def test_named_planes_round_trip(self, tmp_path):
        grid = small_grid(n1=16, n2=8)
        planes = {"u": np.random.default_rng(0).normal(size=(16, 8)),
                  "kappa": np.ones((16, 8))}
        path = tmp_path / "planes.rwl"
        write_planes(grid, 0.3, GAS2, planes, path)
        meta, back = read_planes(path)
        assert meta["t"] == 0.3
        assert set(back) == {"u", "kappa"}
        np.testing.assert_array_equal(back["u"], planes["u"])


class TestRunSingle:
    def test_unperturbed_run_report(self, tmp_path):
        cfg = tiny_config(tmp_path)
        report = run_single(cfg)
        assert report["x2_variation"] <= 1e-12
        assert report["l1_fan_error_final"] is not None
        assert max(abs(d) for d in report["mass_drift"]) < 1e-9
        assert all(p[3] for p in report["data_predicates"])
        kappa_dev = max(r[1] for r in report["kappa_stats"] if r[0] >= 0.4)
        assert kappa_dev < 0.1

    def test_cached_rerun(self, tmp_path):
        cfg = tiny_config(tmp_path)
        first = run_single(cfg)
        second = run_single(cfg)
        assert not first["cached"] and second["cached"]

    def test_source_change_invalidates_cache(self, tmp_path, monkeypatch):
        import rarewave.harness as harness

        cfg = tiny_config(tmp_path)
        assert not run_single(cfg)["cached"]
        monkeypatch.setattr(harness, "_source_digest", lambda: "0" * 64)
        assert not run_single(cfg)["cached"]
        assert run_single(cfg)["cached"]

    @pytest.mark.parametrize("name", ["MANIFEST.json", "report.json"])
    def test_truncated_cache_file_recomputes(self, tmp_path, name):
        cfg = tiny_config(tmp_path)
        out = tmp_path / "r"
        assert not run_single(cfg, out_dir=out)["cached"]
        (out / name).write_text('{"status": "comp')  # left by a killed run
        assert not run_single(cfg, out_dir=out)["cached"]
        assert run_single(cfg, out_dir=out)["cached"]
        assert json.loads((out / "MANIFEST.json").read_text())["status"] == "completed"

    def test_failed_run_leaves_manifest(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)
        import rarewave.harness as harness

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness, "_run_single_inner", boom)
        with pytest.raises(RuntimeError, match="synthetic"):
            run_single(cfg, out_dir=tmp_path / "failing")
        manifest = json.loads((tmp_path / "failing" / "MANIFEST.json").read_text())
        assert manifest["status"] == "failed"
        assert "synthetic" in manifest["error"]

    def test_reproducible_outputs(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a", epsilon=0.01)
        cfg_b = tiny_config(tmp_path / "b", epsilon=0.01)
        run_single(cfg_a, out_dir=tmp_path / "a" / "r")
        run_single(cfg_b, out_dir=tmp_path / "b" / "r")
        for name in ("energies.csv", "monitors.csv", "residuals.csv"):
            assert (tmp_path / "a" / "r" / name).read_bytes() \
                == (tmp_path / "b" / "r" / name).read_bytes()


STREAMED = """
[grid]
n1 = 128
n2 = 32
[time]
delta = 0.2
[solver]
snapshots = 9
[analysis]
orders = 1
u_levels = 2
save_snapshots = all
"""

# SHA-256 of the outputs of STREAMED at seed 2024, recorded from the
# unstreamed pipeline that kept every slice of the run alive
STREAMED_DIGESTS = {
    "conservation.csv": "ce430ba5933f1daeb7e9b51f9b0b4f00c6b34ff4e8f981016ad8b94d40a29004",
    "energies.csv": "d0c23dc2a28455778e44bd40ee1ccebb5f29db3de78709b10642ed676fda603e",
    "foliation_final.rwl": "f30b94c96046cbe194858dfd3b9fa21a390c4b881205119d0c2cad257f3e5bb6",
    "frame_stats.csv": "afa27ea73f76da45f798bfc781912120e06c16815c8689fdd26613b924a04d5a",
    "kappa_stats.csv": "882e71166acb940dbe97c86eea1c909efa8fea673785a283252c17ea3fa30b54",
    "monitors.csv": "2819881879d6627af33b1cd198c517c74e47b8548f108c72db4ea6620e252c79",
    "residuals.csv": "3373ae94e8f518352c27f2492b8c8bb53bcbeebb29e43aa39cff6c2081d5097b",
    "second_frame.csv": "fe59546c8976c0879d1f53523143b5e43403f6192b3a7fd1c4bc41dbe9669a93",
    "snapshot_t0.2000.rwl": "d68c7559e77264298d8328cc274a3c55364a8e59c94eb445ba3f10c7653cc0c3",
    "snapshot_t0.2446.rwl": "e5f1aa84dfe8cf5e9d71d7a5b7335290ea965bd5c747eb99e522e5ed9d34835f",
    "snapshot_t0.2991.rwl": "be04da7ef2a644113b338e317cb486ba294a331bba21bd981f20ce975ee2c2c6",
    "snapshot_t0.3438.rwl": "35441ee0b793aa9cc5475a1d5ee3c931c7ccb1e5bf532af301162982a236065a",
    "snapshot_t0.3657.rwl": "11401adf167fa24afbb327eb2f7c089f7310eb6650fd15afba7bd777a89a6579",
    "snapshot_t0.3883.rwl": "1ca92ff2a771b63e9ee4a218515f5a35ef669dfe30e408e394d542e459b2be88",
    "snapshot_t0.4428.rwl": "a01e52e8e3e660e11a289727959d400e7255c26a371f1bdbd6217ee77ee2d73b",
    "snapshot_t0.5095.rwl": "81c9cb7cfaa5ac325f9a6d76a62bd791e719ec6426279f495f5dae113f8d7cb4",
    "snapshot_t0.5469.rwl": "b19504d725435f1840154bbfce9a7b9215bf940a8b0db0669ed634218687006c",
    "snapshot_t0.5910.rwl": "8ba4277b7c73506105df5a9683557f1465225d02c865928f67e5d0e21b1f5a79",
    "snapshot_t0.6687.rwl": "cca022dfca095021c05e11cbeb4ccb7cab67900f789891f61a1a3a846eaaa050",
    "snapshot_t0.6906.rwl": "81f8ec97f89a4f9e3ff2b9618435f05be11ba67caa7bc05abd73d0379010b42b",
    "snapshot_t0.8125.rwl": "9c72bb0c5860ce2880421f6b6dbcd2a497a858e96bf2108fd86fe0364bdea994",
    "snapshot_t0.8562.rwl": "0f6aa407e08e457e9ce2a638c600e77ed34fad9690aabd72ea18e15a6d17aac5",
    "snapshot_t0.9615.rwl": "bc03a6a32b4085d9e3088909efbc24da14720817595e73922257738dcce26f81",
    "snapshot_t1.0000.rwl": "fb07000d2423533ec6d11cda45856e16a41e5a41ce4e8c5679c59fb4b87ff3af",
}


@pytest.fixture(scope="module")
def streamed_run(tmp_path_factory):
    """STREAMED run once, counting the foliations alive at each moment."""
    import rarewave.harness as harness

    live, peak = [0], [0]
    frame_fields = harness.geo.frame_fields

    def dropped():
        live[0] -= 1

    def tracked(*args, **kwargs):
        fol = frame_fields(*args, **kwargs)
        live[0] += 1
        peak[0] = max(peak[0], live[0])
        weakref.finalize(fol, dropped)
        return fol

    cfg = parse_config(STREAMED)
    out = tmp_path_factory.mktemp("streamed")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness.geo, "frame_fields", tracked)
        run_single(cfg, out_dir=out)
    return cfg, out, peak[0]


class TestStreamedRun:
    def test_window_bounds_live_foliations(self, streamed_run):
        cfg, _, peak = streamed_run
        times, base_idx, pair_idx = cfg.ladder()
        gap = max(abs(kp - kb) for kb, kp in zip(base_idx, pair_idx))
        assert len(times) > gap + 2  # a run that kept every slice would fail
        assert peak <= gap + 2

    def test_outputs_match_recorded_digests(self, streamed_run):
        _, out, _ = streamed_run
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out.iterdir()) if f.suffix in (".csv", ".rwl")}
        assert got == STREAMED_DIGESTS


class TestStudies:
    def test_single_study_layout(self, tmp_path):
        cfg = tiny_config(tmp_path)
        study = run_study(StudySpec("single"), cfg, out_dir=tmp_path / "s")
        assert study["failures"] == []
        assert (tmp_path / "s" / "study.json").exists()
        assert (tmp_path / "s" / "single" / "report.json").exists()

    def test_convergence_study_ratios(self, tmp_path):
        cfg = tiny_config(tmp_path)
        study = run_study(StudySpec("convergence", (128.0, 256.0)), cfg,
                          out_dir=tmp_path / "c")
        conv = study["convergence"]
        assert conv["n1"] == [128, 256]
        assert len(conv["l1_ratios"]) == 1
        assert conv["l1_ratios"][0] > 1.2

    def test_epsilon_study_ratios(self, tmp_path):
        cfg = tiny_config(tmp_path, orders=1)
        study = run_study(StudySpec("epsilon_scaling", (0.02, 0.01)), cfg,
                          out_dir=tmp_path / "e")
        es = study["epsilon_scaling"]
        assert es["epsilon"] == [0.02, 0.01]
        assert len(es["E0_w_ratios"]) == 1

    def test_bad_ladder_rejected(self):
        with pytest.raises(ConfigError):
            StudySpec("convergence", (128.0,))

    def test_emit_plots_file_count(self, tmp_path):
        cfg = tiny_config(tmp_path)
        report = run_single(cfg, out_dir=tmp_path / "r")
        files = emit_plots(report, tmp_path / "plots")
        assert len(files) >= 6
        for f in files:
            assert f.exists()

    def test_slope_fit(self):
        xs = np.linspace(0.3, 1.0, 9)
        fit = slope_fit(xs, 4.0 * xs ** 2)
        assert fit["slope"] == pytest.approx(2.0, abs=1e-10)
        assert fit["r2"] == pytest.approx(1.0, abs=1e-12)


class TestCLI:
    def test_riemann_subcommand(self, capsys):
        rc = cli_main(["riemann1d", "--left", "0,1", "--right", "0.2,0.9",
                       "--gamma", "2.0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"wave1", "wave2", "middle"} <= payload.keys()
        assert not payload["vacuum"]

    def test_verify_gronwall_pass_and_fail(self, tmp_path, capsys):
        t = list(np.linspace(0.05, 1.0, 10))
        u = list(np.linspace(0.0, 1.0, 6))
        E = (2.0 * np.asarray(t)[:, None] ** 2 * np.ones((1, 6))).tolist()
        F = np.zeros((10, 6)).tolist()
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"A": 2.0, "B": 0.4, "C": 0.05,
                                    "t": t, "u": u, "E": E, "F": F}))
        assert cli_main(["verify-gronwall", str(good)]) == 0
        bad = tmp_path / "bad.json"
        E_bad = (8.0 * np.asarray(t)[:, None] ** 2 * np.ones((1, 6))).tolist()
        bad.write_text(json.dumps({"A": 2.0, "B": 0.4, "C": 0.05,
                                   "t": t, "u": u, "E": E_bad, "F": F}))
        assert cli_main(["verify-gronwall", str(bad)]) == 1

    def test_run_subcommand(self, tmp_path, capsys):
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text(TINY + f"\n[output]\ndir = {tmp_path / 'out'}\n")
        rc = cli_main(["run", str(cfg_file), "--out", str(tmp_path / "out" / "r")])
        assert rc == 0

    def test_bad_config_exit_code(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("[gas]\ngamma = 9\n")
        assert cli_main(["run", str(cfg_file)]) == 2


class TestRemainingSurfaces:
    def test_emit_plots_empty_report(self, tmp_path):
        from rarewave.harness import emit_plots
        files = emit_plots({}, tmp_path / "empty")
        assert files == []

    def test_delta_robustness_study(self, tmp_path):
        cfg = tiny_config(tmp_path)
        study = run_study(StudySpec("delta_robustness", (0.2, 0.3)), cfg,
                          out_dir=tmp_path / "d")
        assert study["failures"] == []
        metrics = study["delta_robustness"]
        assert metrics["delta"] == [0.2, 0.3]
        assert len(metrics["max_kappa_dev"]) == 2

    def test_parallel_workers_study(self, tmp_path):
        cfg = tiny_config(tmp_path, workers=2)
        study = run_study(StudySpec("convergence", (128.0, 256.0)), cfg,
                          out_dir=tmp_path / "p")
        assert study["failures"] == []
        assert "convergence" in study
