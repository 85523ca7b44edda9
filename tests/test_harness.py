import contextlib
import copy
import hashlib
import json
import math
import multiprocessing
import os
import re
import struct
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rarewave.cli import main as cli_main
from rarewave.euler2d import (FlowField, Grid, NumericalError, PerturbationMode,
                              PerturbationSpec, SolverConfig, init_perturbed_rarefaction,
                              iter_run)
from rarewave.harness import (ConfigError, RunConfig, StudySpec, emit_plots, parse_config,
                              run_single, run_study, slope_fit)
from rarewave.snapshot_io import read_planes, read_snapshot, write_planes, write_snapshot

import rarewave.energies as en
import rarewave.euler2d as euler2d
import rarewave.geometry as geo
import rarewave.harness as harness

from conftest import GAS2, fan_field, perturbed_pair, same_bits, small_grid

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
        (lambda: parse_config("[perturbation]\nepsilon = nan\n"),
         "line 2: bad value for epsilon: 'nan' is not finite"),
        (lambda: parse_config("[fan]\nv0 = nan\n"), "line 2: bad value for v0"),
        (lambda: parse_config("[perturbation]\nmodes = 0:1:nan\n"),
         "line 2: bad value for modes"),
        (lambda: parse_config("[analysis]\nu_levels = 0\n"), "u_levels"),
        (lambda: parse_config("[analysis]\nu_levels = -2\n"), "u_levels"),
        # the fan data strip [1.1*delta, 3*delta] ends past x1_max = 2.2
        (lambda: parse_config("[fan]\nv0 = 2.0\n[grid]\nn1 = 64\nn2 = 16\n[time]\ndelta = 0.9\n"
                              "[solver]\nsnapshots = 3\n"),
         "fan data strip does not fit inside the grid"),
        # the middle base time's partner, 4 cell-crossing times earlier, precedes delta
        (lambda: parse_config("[grid]\nn1 = 64\n[time]\ndelta = 0.6\n[solver]\nsnapshots = 3\n"),
         r"ladder starts at t = 0\.4871, before delta = 0\.6"),
        # a key given twice is an error, not a silent override, in a repeated section too
        (lambda: parse_config("[grid]\nn1 = 256\n[grid]\nn1 = 512\n"),
         "line 4: n1 is given twice, first on line 2"),
        (lambda: parse_config("[output]\ndir = a\n\ndir = b\n"),
         "line 4: dir is given twice, first on line 2"),
        (lambda: parse_config("[grid]\nn1 = 256.0\n"), "line 2: bad value for n1"),
    ], ids=["flux", "integrator", "with_fluxes", "n1", "epsilon", "epsilon_nan", "v0_nan",
            "mode_amplitude_nan", "u_levels_0", "u_levels_negative", "fan_strip",
            "ladder_before_delta", "repeated_key", "repeated_output_dir", "fractional_int"])
    def test_rejected_configs(self, make, match):
        with pytest.raises(ConfigError, match=match):
            make()

    def test_modes_syntax(self):
        cfg = parse_config("[perturbation]\nmodes = 1:1:0.5, 2:3:0.25\n")
        assert cfg.modes == ((1, 1, 0.5), (2, 3, 0.25))
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[perturbation]\nmodes = 1:1\n")

    def test_values_take_the_type_of_their_default(self):
        cfg = parse_config("[grid]\nn1 = 2048\nx1_min = -3\n[analysis]\nsave_snapshots = all\n"
                           "[output]\ndir = out/x\n")
        assert (cfg.n1, cfg.x1_min, cfg.save_snapshots, cfg.out_dir) == (2048, -3.0, "all", "out/x")
        assert type(cfg.n1) is int and type(cfg.x1_min) is float

    def test_comments_and_blanks(self):
        cfg = parse_config("# header\n\n[gas]\ngamma = 1.8  # inline\n")
        assert cfg.gamma == 1.8


def render_config(cfg: RunConfig) -> str:
    """cfg as config text, every key in its section, each float by its repr."""
    lines = []
    for section, keys in harness._SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(cfg, harness._FIELD_OF_KEY.get(key, key))
            if key == "modes":
                value = ", ".join(f"{k1}:{k2}:{amp!r}" for k1, k2, amp in value)
            lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    """RunConfigs that validate: fields drawn in ranges that keep their
    couplings (the vacuum bound, the fan strip, the ladder) mostly satisfied,
    and the rest filtered out."""
    gamma, c0 = draw(floats(1.2, 2.8)), draw(floats(0.8, 1.5))
    vacuum = (gamma + 1.0) / (gamma - 1.0) * c0
    u_star = draw(floats(0.5, 1.2))
    delta = draw(floats(0.15, 0.4))
    strip_lo = draw(floats(-2.0, 0.0))
    cfg = RunConfig(
        gamma=gamma, k0=draw(floats(0.1, 2.0)), v0=draw(floats(-0.3, 0.3)), c0=c0,
        n1=draw(st.integers(256, 1024)), n2=draw(st.integers(8, 64)),
        x1_min=draw(floats(-3.0, -2.2)), x1_max=draw(floats(2.0, 3.0)),
        delta=delta, t_star=draw(floats(delta + 0.3, 1.0)),
        u_star=u_star, u_lo=draw(floats(0.0, u_star - 0.1)),
        u_glue=u_star + draw(floats(0.05, 0.5)) * (vacuum - u_star),
        epsilon=draw(floats(0.0, 0.05)), seed=draw(st.integers(0, 2 ** 32)),
        modes=tuple(draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4),
                                            floats(-2.0, 2.0)), min_size=1, max_size=3))),
        strip_lo=strip_lo, strip_hi=strip_lo + draw(floats(0.5, 1.8)),
        cfl=draw(floats(0.05, 0.9)), snapshots=draw(st.integers(2, 30)),
        orders=draw(st.integers(0, 3)), u_levels=draw(st.integers(1, 8)),
        save_snapshots=draw(st.sampled_from(["none", "ends", "all"])),
        workers=draw(st.integers(1, 4)),
        out_dir=draw(st.text("abcxyz019_-./", min_size=1, max_size=12)))
    try:
        return cfg.validate()
    except ConfigError:
        assume(False)


class TestConfigRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(cfg=valid_configs())
    def test_rendered_config_parses_back_equal(self, cfg):
        assert parse_config(render_config(cfg)) == cfg

    @settings(max_examples=30, deadline=None)
    @given(cfg=valid_configs(), fault=st.sampled_from(["gamma", "fan data strip", "given twice"]),
           draw=st.data())
    def test_invalid_config_fails_at_parse_time(self, cfg, fault, draw):
        text = render_config(cfg)
        if fault == "gamma":
            gamma = draw.draw(st.one_of(floats(-1.0, 1.0), floats(3.0, 10.0)))
            text = re.sub(r"(?m)^gamma = .*$", f"gamma = {gamma!r}", text)
        elif fault == "fan data strip":
            # x1_max at or before the fan head at t = delta
            x1_max = (cfg.v0 + cfg.c0) * cfg.delta * draw.draw(floats(0.05, 1.0))
            text = re.sub(r"(?m)^x1_max = .*$", f"x1_max = {x1_max!r}", text)
        else:
            line = draw.draw(st.sampled_from([ln for ln in text.splitlines() if "=" in ln]))
            section = next(name for name, keys in harness._SECTIONS.items()
                           if line.split(" =")[0] in keys)
            text += f"[{section}]\n{line}\n"
        with pytest.raises(ConfigError, match=fault):
            parse_config(text)


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        f = fan_field(GAS2, small_grid(n1=32, n2=8), 0.4)
        f.m2[3, 5] = -0.0
        path, again = tmp_path / "snap.rwl", tmp_path / "again.rwl"
        write_snapshot(f, path)
        g = read_snapshot(path)
        assert g.time == f.time
        assert g.gas == f.gas
        assert all(same_bits(getattr(g, k), getattr(f, k)) for k in ("rho", "m1", "m2"))
        write_snapshot(g, again)
        assert again.read_bytes() == path.read_bytes()

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
                  "kappa": np.ones((16, 8)), "nan_and_zero": np.full((16, 8), np.nan)}
        planes["nan_and_zero"][::2] = -0.0
        path, again = tmp_path / "planes.rwl", tmp_path / "again.rwl"
        write_planes(grid, 0.3, GAS2, planes, path)
        meta, back = read_planes(path)
        assert meta["t"] == 0.3
        assert list(back) == list(planes)
        assert all(same_bits(back[k], planes[k]) for k in planes)
        write_planes(grid, meta["t"], GAS2, back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_cross_read_names_path_and_sizes(self, tmp_path):
        grid = small_grid(n1=16, n2=8)
        snap, named = tmp_path / "snap.rwl", tmp_path / "planes.rwl"
        write_snapshot(fan_field(GAS2, grid, 0.4), snap)
        write_planes(grid, 0.4, GAS2, {"u": np.ones((16, 8))}, named)
        for reader, path, other in ((read_planes, snap, named), (read_snapshot, named, snap)):
            size = path.stat().st_size
            with pytest.raises(ValueError, match=rf"{re.escape(str(path))} holds {size} bytes"):
                reader(path)
            reader(other)

    # what a file of the magic and header alone lacks, for each reader
    @pytest.mark.parametrize("reader, header_only", [
        (read_snapshot, "its header implies 3124"),
        (read_planes, "fewer than the 56 of the header and plane count")],
        ids=["snapshot", "planes"])
    def test_short_file_names_path_and_sizes(self, tmp_path, reader, header_only):
        grid = small_grid(n1=16, n2=8)
        write_planes(grid, 0.4, GAS2, {}, tmp_path / "empty.rwl")
        header = (tmp_path / "empty.rwl").read_bytes()[:52]
        for raw, lacks in ((b"RWL1" + bytes(6), "fewer than the 52 of the header"),
                           (header, header_only)):
            path = tmp_path / "short.rwl"
            path.write_bytes(raw)
            with pytest.raises(ValueError,
                               match=rf"{re.escape(str(path))} holds {len(raw)} bytes, {lacks}"):
                reader(path)


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

    def test_numpy_change_invalidates_cache(self, tmp_path, monkeypatch):
        # np.hypot or np.power may round differently in another numpy version
        cfg = tiny_config(tmp_path)
        out = tmp_path / "r"
        assert not run_single(cfg, out_dir=out)["cached"]
        report = (out / "report.json").read_bytes()
        monkeypatch.setattr(np, "__version__", "0.0.0")
        assert not run_single(cfg, out_dir=out)["cached"]
        assert json.loads((out / "MANIFEST.json").read_text())["numpy"] == "0.0.0"
        assert run_single(cfg, out_dir=out)["cached"]
        assert (out / "report.json").read_bytes() == report

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
# SHA-256 of the report.json of STREAMED at seed 2024 (its config keeps the
# default out_dir), recorded before the report tables were declared in one table
STREAMED_REPORT_DIGEST = "95d6dd9c36e53cf8b12846f0f903373663ab1973710627bf197f8cbcb1d5dc57"


# the solve path a run takes with each CPU count, when it is the only run
SOLVE_PATHS = pytest.mark.parametrize("cpus, process", [(2, "forked"), (1, "inline")],
                                      ids=["forked", "inline"])


def solve_manifest(out):
    return json.loads((out / "MANIFEST.json").read_text())


@pytest.fixture(scope="module")
def streamed_run(tmp_path_factory):
    """STREAMED run once, counting the slice records alive at each moment."""
    import rarewave.harness as harness

    live, peak = [0], [0]
    foliate = harness.geo.foliate

    def dropped():
        live[0] -= 1

    def tracked(*args, **kwargs):
        sl = foliate(*args, **kwargs)
        live[0] += 1
        peak[0] = max(peak[0], live[0])
        weakref.finalize(sl, dropped)
        return sl

    cfg = parse_config(STREAMED)
    out = tmp_path_factory.mktemp("streamed")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness.geo, "foliate", tracked)
        run_single(cfg, out_dir=out)
    return cfg, out, peak[0]


def traced_peak_in_planes(cfg, out, monkeypatch):
    """The traced peak of an inline run of cfg, in planes of its grid.  The
    rows of a cut record, which live in anonymous mappings that tracemalloc
    does not see, are held on the heap here, so that they count."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)  # the solve runs traced
    monkeypatch.setattr(geo.mmap, "mmap", lambda fileno, length: bytearray(length))
    tracemalloc.start()
    try:
        run_single(cfg, out_dir=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solve_manifest(out)["solve"]["process"] == "inline"
    return peak / (cfg.n1 * cfg.n2 * 8)


def output_digests(out):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir()) if f.suffix in (".csv", ".rwl")}


class TestStreamedRun:
    def test_window_bounds_live_foliations(self, streamed_run):
        # each slice lives until the last slice that closes a pair with it: its
        # energy pair (k, k + 1) or one of its (base, partner) pairs
        cfg, _, peak = streamed_run
        times, base_idx, pair_idx = cfg.ladder()
        last = len(times) - 1
        last_use = {k: k + 1 for k in range(last)}
        last_use[last] = last
        for kb, kp in zip(base_idx, pair_idx):
            k0, k1 = sorted((kb, kp))
            last_use[k0] = max(last_use[k0], k1)
        alive = [sum(last_use[j] >= k for j in range(k + 1)) for k in range(last + 1)]
        assert len(times) > max(alive) + 2  # a run that kept every slice would fail
        assert peak == max(alive)

    @SOLVE_PATHS
    def test_snapshot_freed_after_its_iteration(self, tmp_path, monkeypatch, cpus, process):
        # a slice's snapshot serves only its own iteration: it is gone before the
        # next slice's record is formed, the initial field (slice 0 of an inline solve) too
        formed, freed_at = [0], {}  # the records formed when each snapshot was freed
        snapshots, foliate = harness._snapshots, geo.foliate

        def counted_foliate(*args, **kwargs):
            formed[0] += 1
            return foliate(*args, **kwargs)

        def freed(k):
            freed_at[k] = formed[0]

        @contextlib.contextmanager
        def tracked_snapshots(field0, *args):
            def tracked(stream):
                for k, s in enumerate(stream):
                    weakref.finalize(s, freed, k)
                    yield s
            weakref.finalize(field0, freed, "field0")
            block = snapshots(field0, *args)
            del field0
            with block as stream:
                yield tracked(stream)

        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(harness, "_snapshots", tracked_snapshots)
        monkeypatch.setattr(geo, "foliate", counted_foliate)
        run_single(parse_config(STREAMED), out_dir=tmp_path)
        assert solve_manifest(tmp_path)["solve"]["process"] == process
        slices = len(parse_config(STREAMED).ladder()[0])
        assert freed_at.pop("field0") <= 1, freed_at
        assert sorted(freed_at) == list(range(slices))
        assert all(freed_at[k] <= k + 1 for k in range(slices)), freed_at

    def test_traced_peak_in_planes(self, tmp_path, monkeypatch):
        # at most 4 records of about 4 planes alive at once, with the solver's and
        # the level set's scratch, the rays' generator velocity and one pair's
        # frames and temporaries on its band window (54 planes); records that
        # kept a whole-grid frame, 12 planes each, reach 78
        assert traced_peak_in_planes(parse_config(STREAMED), tmp_path, monkeypatch) <= 58.0

    def test_outputs_match_recorded_digests(self, streamed_run):
        _, out, _ = streamed_run
        assert output_digests(out) == STREAMED_DIGESTS

    def test_report_matches_recorded_digest(self, streamed_run):
        _, out, _ = streamed_run
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() \
            == STREAMED_REPORT_DIGEST


DENSE = """
[grid]
n1 = 128
n2 = 32
[time]
delta = 0.2
[solver]
snapshots = 25
[analysis]
orders = 1
u_levels = 2
save_snapshots = ends
"""

# SHA-256 of the outputs of DENSE at seed 2024, recorded from the run whose
# records waiting for a partner kept their whole planes
DENSE_DIGESTS = {
    "conservation.csv": "b458f62a88cf86bdd59efbd2f09a724a520e5c77c621c43f592ea4a83c02e062",
    "energies.csv": "64a508b7bff9835683865d46a28fbe03194a17e0b6b601198c8f429ad40cbef9",
    "foliation_final.rwl": "19765dcd7d58bf436549f850f22e8a5e6e551f82fa35514c3b1689d8ab1e3041",
    "frame_stats.csv": "6c8a3e7d708171bd8adb025be8d2019031cba32c96d85740ddf430ac2a0b2380",
    "kappa_stats.csv": "a5c40fc1c59749bdd9bffb0a82ce114d6d4503fa0f09cc6320230ae7f9cead0c",
    "monitors.csv": "90d0abea38d6b0220293005695a6d9424f30f5310abd38bb1da29793ce28558a",
    "residuals.csv": "106a3846445830236d7383f3f295254fa1799b90ac8d980f3c1d95f32c1867eb",
    "second_frame.csv": "14b116a9807a45279ace668fe7a871770dc5e99dcd22919c93cb058472d86911",
    "snapshot_t0.2000.rwl": "d68c7559e77264298d8328cc274a3c55364a8e59c94eb445ba3f10c7653cc0c3",
    "snapshot_t1.0000.rwl": "78d844cf70b5200f2f390788bf53c6d6aea3c9ef943399a16445f75811e6e50e",
}
DENSE_REPORT_DIGEST = "56637cee72700411afc88e052396da4acea45e0f00f9be5a6568ef3967ad5558"


class TestDenseLadder:
    def test_base_records_wait_at_least_four_slices(self):
        _, base_idx, pair_idx = parse_config(DENSE).ladder()
        assert min(kp - kb for kb, kp in zip(base_idx, pair_idx) if kp > kb) >= 4

    @SOLVE_PATHS
    def test_outputs_match_recorded_digests(self, tmp_path, monkeypatch, cpus, process):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        run_single(parse_config(DENSE), out_dir=tmp_path)
        assert solve_manifest(tmp_path)["solve"]["process"] == process
        assert output_digests(tmp_path) == DENSE_DIGESTS
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() \
            == DENSE_REPORT_DIGEST

    def test_traced_peak_in_planes(self, tmp_path, monkeypatch):
        # no record stays whole past its energy pair: one with long pairs holds
        # only the rows they frame (53 planes at the peak); keeping whole the
        # records of the pairs whose later slice is the base reaches 58, and
        # holding every waiting record's whole planes 69
        assert traced_peak_in_planes(parse_config(DENSE), tmp_path, monkeypatch) <= 55.0


class TestSchedule:
    @example(cfg=parse_config(DENSE))
    @settings(max_examples=40, deadline=None)
    @given(cfg=valid_configs())
    def test_every_pair_formed_while_its_records_live(self, cfg):
        # the ladder's steps form each pair once, the energy pair (k - 1, k) first,
        # while both its records live; each record is dropped at its last pair, and
        # one with long pairs is cut right after its energy pair, to their windows
        # alone, before any of them is formed
        times, base_idx, pair_idx = cfg.ladder()
        steps = harness._schedule(base_idx, pair_idx)
        assert len(steps) == len(times)
        pairs = {(k - 1, k) for k in range(1, len(times))}
        pairs |= {(min(kb, kp), max(kb, kp)) for kb, kp in zip(base_idx, pair_idx)}
        last_use = {k0: max(k1 for j0, k1 in pairs if j0 == k0) for k0, _ in pairs}
        live, cut_to, formed, entries = set(), {}, [], []
        for k, step in enumerate(steps):
            live.add(k)
            assert list(step.pairs)[:1] == ([k - 1] if k else [])
            for k0, js in step.pairs.items():
                assert {k0, k} <= live
                assert k0 not in cut_to or k in cut_to[k0]
                formed.append((k0, k))
                entries += [(j, (k0, k)) for j in js]
            for k0 in step.drop:
                assert last_use[k0] == k
                live.remove(k0)
            if step.cut:
                assert step.cut == sorted(k1 for k0, k1 in pairs if k0 == k - 1 and k1 > k)
                cut_to[k - 1] = step.cut
        assert sorted(formed) == sorted(pairs) and len(formed) == len(pairs)
        assert sorted(entries) == [(j, (min(kb, kp), max(kb, kp)))
                                   for j, (kb, kp) in enumerate(zip(base_idx, pair_idx))]
        assert live == set(range(len(times))) - set(last_use)
        assert set(cut_to) == {k0 for k0, k1 in pairs if k1 > k0 + 1}


def counted_steps(monkeypatch, fail_at):
    """A count of euler2d.step calls shared with a child forked after this
    patch; the call whose count reaches fail_at[0] raises NumericalError."""
    steps = multiprocessing.get_context("fork").Value("i", 0)
    step = euler2d.step

    def counted(f, dt):
        with steps.get_lock():
            steps.value += 1
            if steps.value == fail_at[0]:
                raise NumericalError(f"synthetic breakdown at step {steps.value}")
        return step(f, dt)

    monkeypatch.setattr(euler2d, "step", counted)
    return steps


def inline_solve(steps):
    """The snapshots of an inline solve of a 128x64 fan, each with the step
    count that reached it, and its field and solver; the count restarts at 0.
    A snapshot (195 KiB) is larger than a pipe holds (64 KiB on Linux)."""
    field0 = fan_field(GAS2, small_grid(128, 64), 0.4)
    solver = SolverConfig(snapshot_times=tuple(0.4 + 0.01 * k for k in range(1, 9)))
    snaps = [(s.time, s.q, steps.value) for s in iter_run(field0, solver)]
    steps.value = 0
    return snaps, field0, solver


def wait_for(steps, count):
    """Wait until the child has made count steps, or a minute has gone."""
    deadline = time.monotonic() + 60.0
    while steps.value < count and time.monotonic() < deadline:
        time.sleep(0.01)


class TestSolvePaths:
    @SOLVE_PATHS
    def test_outputs_match_recorded_digests(self, tmp_path, monkeypatch, cpus, process):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        run_single(parse_config(STREAMED), out_dir=tmp_path)
        assert output_digests(tmp_path) == STREAMED_DIGESTS
        assert solve_manifest(tmp_path)["solve"] == {"process": process, "cpus": cpus}

    @SOLVE_PATHS
    def test_solver_error_surfaces_unchanged(self, tmp_path, monkeypatch, cpus, process):
        import rarewave.euler2d as euler2d

        message = "non-positive or NaN density at t=0.2375: 1 cells, first at (i=7, j=3)"
        calls, step = [0], euler2d.step

        def failing_step(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 6:
                raise NumericalError(message)
            return step(*args, **kwargs)

        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(euler2d, "step", failing_step)
        with pytest.raises(NumericalError, match=re.escape(message)) as info:
            run_single(parse_config(STREAMED), out_dir=tmp_path)
        assert str(info.value) == message
        manifest = solve_manifest(tmp_path)
        assert manifest["status"] == "failed"
        assert manifest["error"] == repr(NumericalError(message))
        assert manifest["solve"]["process"] == process
        assert multiprocessing.active_children() == []

    def test_analysis_error_ends_the_child_first(self, tmp_path, monkeypatch):
        # the traceback held by pytest.raises keeps the snapshot generator alive,
        # so the child must have been ended by the run, not by the generator's close
        calls, frame_fields = [0], geo.frame_fields

        def failing_frame_fields(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 2:
                raise ValueError("synthetic analysis failure")
            return frame_fields(*args, **kwargs)

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(geo, "frame_fields", failing_frame_fields)
        with pytest.raises(ValueError, match="synthetic analysis failure") as info:
            run_single(parse_config(STREAMED), out_dir=tmp_path)
        assert multiprocessing.active_children() == []
        assert solve_manifest(tmp_path)["solve"]["process"] == "forked"

    def test_solver_process_death_is_reported(self, tmp_path, monkeypatch):
        import os

        import rarewave.euler2d as euler2d

        calls, step = [0], euler2d.step

        def dying_step(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 6:
                os._exit(3)  # as a process killed for want of memory would end
            return step(*args, **kwargs)

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(euler2d, "step", dying_step)
        with pytest.raises(RuntimeError, match="exit code 3 before sending every snapshot"):
            run_single(parse_config(STREAMED), out_dir=tmp_path)

    def test_solver_process_death_within_a_state_is_reported(self):
        # the child sends a snapshot's time and half of its state's bytes, then dies
        ctx = multiprocessing.get_context("fork")
        conn, child_end = ctx.Pipe(duplex=False)
        grid = small_grid(128, 32)

        def half_a_state():
            child_end.send((0.5, 0.0))
            os.write(child_end.fileno(), bytes(3 * (grid.n1 + 2) * grid.n2 * 8 // 2))
            os._exit(5)

        child = ctx.Process(target=half_a_state, daemon=True)
        child.start()
        child_end.close()
        try:
            with pytest.raises(RuntimeError, match="exit code 5 before sending every snapshot"):
                next(harness._received_snapshots(conn, child, GAS2, grid))
        finally:
            conn.close()

    def test_padded_state_same_on_both_transports(self, tmp_path):
        # snapshot files hold no ghost rows, so no recorded digest sees them: the
        # padded state must cross the pipe whole, ghosts frozen at the initial
        # field's edge rows
        cfg = tiny_config(tmp_path, epsilon=0.01)
        field0 = init_perturbed_rarefaction(cfg.gas(), cfg.grid(), cfg.delta, (cfg.v0, cfg.c0),
                                            cfg.perturbation(), u_glue=cfg.u_glue)
        edges = field0.q[:, [1, -2]]
        streams = {}
        for process in ("forked", "inline"):
            with harness._snapshots(field0, cfg.solver(), process) as snapshots:
                streams[process] = [(s.time, s.boundary_mass_flux, s.q) for s in snapshots]
        forked, inline = streams["forked"], streams["inline"]
        assert len(forked) == len(inline) == len(cfg.ladder()[0])
        for (t0, flux0, q0), (t1, flux1, q1) in zip(forked, inline):
            assert (t0, flux0) == (t1, flux1)
            assert same_bits(q0, q1)
            assert same_bits(q0[:, [0, -1]], edges)
        assert forked[-1][1] != 0.0  # the outflow is carried, not only its default

    def test_solver_process_ends_when_the_run_has_gone(self):
        # a run killed outright runs no clean-up: its solver must not block
        # forever on a pipe that nobody reads
        ctx = multiprocessing.get_context("fork")
        conn, child_end = ctx.Pipe(duplex=False)
        field0 = fan_field(GAS2, small_grid(128, 32), 0.4)
        child = ctx.Process(target=harness._send_snapshots, daemon=True,
                            args=(child_end, conn, field0, SolverConfig(snapshot_times=(0.5, 0.6))))
        child.start()
        child_end.close()
        conn.close()
        child.join(timeout=30)
        alive = child.is_alive()
        child.terminate()
        child.join()
        assert not alive
        assert child.exitcode == 0

    def test_child_finishes_at_most_the_send_queue_ahead(self, monkeypatch):
        # while the run reads nothing, the child finishes one snapshot being
        # sent, SEND_AHEAD queued and one waiting to be queued, and then waits
        fail_at = [0]
        steps = counted_steps(monkeypatch, fail_at)
        inline, field0, solver = inline_solve(steps)
        ahead = harness.SEND_AHEAD + 2
        with harness._snapshots(field0, solver, "forked") as snapshots:
            wait_for(steps, inline[ahead - 1][2])
            time.sleep(0.5)  # time enough for a child that does not wait to go on
            assert steps.value == inline[ahead - 1][2]
            forked = [(s.time, s.q) for s in snapshots]
        assert len(forked) == len(inline)
        for (t0, q0), (t1, q1, _) in zip(forked, inline):
            assert t0 == t1 and same_bits(q0, q1)

    def test_solver_error_follows_the_snapshots_before_it(self, monkeypatch):
        # the run reads nothing until the child has failed: its error waits in
        # the queue behind the snapshots finished before the failing step
        fail_at = [0]
        steps = counted_steps(monkeypatch, fail_at)
        inline, field0, solver = inline_solve(steps)
        fail_at[0] = inline[1][2] + 1  # the first step after the second snapshot
        forked = []
        with harness._snapshots(field0, solver, "forked") as snapshots:
            wait_for(steps, fail_at[0])
            with pytest.raises(NumericalError, match=f"^synthetic breakdown at step {fail_at[0]}$"):
                for s in snapshots:
                    forked.append((s.time, s.q))
        assert len(forked) == 2
        for (t0, q0), (t1, q1, _) in zip(forked, inline):
            assert t0 == t1 and same_bits(q0, q1)

    def test_daemonic_process_solves_inline(self, monkeypatch):
        # a multiprocessing.Pool worker is daemonic and may not fork
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            plan = pool.apply(harness._solve_plan, (1,))
        finally:
            pool.close()
            pool.join()
        assert plan == {"process": "inline", "cpus": 2}

    @pytest.mark.parametrize("cpus, process", [(2, "inline"), (4, "forked")])
    def test_pooled_members_fork_only_with_a_core_each(self, tmp_path, monkeypatch,
                                                       cpus, process):
        # two members in a pool of two run at once: each forks its solve only
        # when the CPUs leave a second core for every member
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        cfg = tiny_config(tmp_path, workers=2)
        study = run_study(StudySpec("epsilon_scaling", (0.02, 0.01)), cfg,
                          out_dir=tmp_path / "p")
        assert study["failures"] == []
        for name in study["members"]:
            assert solve_manifest(tmp_path / "p" / name)["solve"] == {
                "process": process, "cpus": cpus}


@pytest.fixture(scope="module")
def pair_records():
    """A perturbed 128x32 pair, foliated with a band as a run foliates its
    records and framed on the whole grid."""
    return [geo.frame_fields(geo.foliate(s, u, geo.band_mask(u, 0.3, 1.3)), s.grid)
            for s, u in perturbed_pair(128, 32)]


def count_calls(monkeypatch, geometry_names, energies_names=()):
    """Call counts of Slice.invariants and of the named geometry and
    energies functions, filled in as the code under test runs."""
    counts = dict.fromkeys(["invariants", *geometry_names, *energies_names], 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(geo.Slice, "invariants", counting("invariants", geo.Slice.invariants))
    for module, names in ((geo, geometry_names), (en, energies_names)):
        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


class TestPairRows:
    def test_shared_work_formed_once(self, pair_records, monkeypatch):
        counts = count_calls(monkeypatch, ["FlowStencil", "_second_frame", "diagonal_rhs"])
        r0, r1 = pair_records
        assert len(list(harness._pair_rows(geo.PairDiagnostics(r0, r1), [r0.time]))) == 1
        # one invariant triple per slice, the generator stencil and the
        # (v1+c, v2) stencil, the midpoint frame, one Euler L(wbar)
        assert counts == {"invariants": 2, "FlowStencil": 2, "_second_frame": 1,
                          "diagonal_rhs": 1}

    def test_peak_memory(self, pair_records):
        # the planes a pair shares live no longer than their last consumer
        # needs them, so sharing does not raise the peak
        r0, r1 = pair_records
        tracemalloc.start()
        try:
            list(harness._pair_rows(geo.PairDiagnostics(r0, r1), [r0.time]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / r0.c.nbytes <= 36.0

    def test_one_evaluator_per_distinct_pair(self, tmp_path, monkeypatch):
        # 9 slices: 8 energy pairs (k - 1, k), 3 of them also (base, partner)
        # pairs, and 2 more (base, partner) pairs; each pair forms the invariants
        # of its two slices and its generator stencil once, and each of the 5
        # (base, partner) pairs also its (v1+c, v2) stencil and midpoint second
        # frame; each of the 5 base slices forms its own second frame once, and
        # each slice finds the rows its band results read once
        counts = count_calls(monkeypatch, ["PairDiagnostics", "FlowStencil", "_second_frame"],
                             ["read_rows"])
        cfg = parse_config("[grid]\nn1 = 128\nn2 = 32\n[time]\ndelta = 0.2\n"
                           "[solver]\nsnapshots = 5\n")
        run_single(cfg, out_dir=tmp_path)
        # the predicates add the invariants of slice 0
        assert counts == {"invariants": 21, "PairDiagnostics": 10, "FlowStencil": 15,
                          "_second_frame": 5 + 5, "read_rows": 9}


U_LO, U_STAR = 0.3, 1.5
U_VALUES = [0.375, 0.75, 1.125, 1.5]


def run_records(n1, n2, times):
    """Slice records of a perturbed run at the given times (the first is
    the start time), foliated with a band as a run foliates them."""
    spec = PerturbationSpec(epsilon=0.02, modes=(PerturbationMode(2, 1, 1.0, 0.3),),
                            strip=(-0.5, 1.1))
    grid = small_grid(n1=n1, n2=n2)
    f = init_perturbed_rarefaction(GAS2, grid, times[0], (0.0, 1.0), spec, u_glue=1.9)
    snapshots = map(geo.Slice, iter_run(f, SolverConfig(snapshot_times=times)))
    return [geo.foliate(flow, u, geo.band_mask(u, U_LO, U_STAR))
            for flow, u in geo.iter_evolve_u(snapshots, 1.0 - grid.mesh()[0] / times[0])]


def read_rows(*records):
    """The rows that the band results of each record read, as a run finds them."""
    return [en.read_rows(r, U_LO, U_VALUES) for r in records]


def evaluate(r0, r1, grid, orders):
    """The energies of both slices, the pair rows of both as bases and the band
    statistics of both, of the pair (r0, r1) framed on the rows of grid, as
    flat float arrays."""
    s0, s1 = geo.frame_fields(r0, grid), geo.frame_fields(r1, grid)
    pair = geo.PairDiagnostics(s0, s1)
    energies = [en.energies_of_slice(pair, side, rows, ("wbar", "w", "psi2"), orders,
                                     U_VALUES, U_LO)
                for side, rows in enumerate(read_rows(r0, r1))]
    rows = [value for rows in harness._pair_rows(pair, [s0.time, s1.time]) for row in rows
            for value in row]
    rows += [value for s in (s0, s1) for row in harness._band_stats(s) for value in row]
    return [np.concatenate([e[key].ravel() for key in sorted(e, key=str)]) for e in energies] \
        + [np.array(rows)]


def same_results(a, b):
    return all(same_bits(x, y) for x, y in zip(a, b))


def halo_window(r0, r1, halo):
    """The rows that the band results of the pair read, plus halo rows."""
    hulls = read_rows(r0, r1)
    lo, hi = min(h[0] for h in hulls), max(h[1] for h in hulls)
    return r0.grid.window(max(lo - halo, 0), min(hi + halo, r0.grid.n1))


def contains(outer, inner):
    return outer.lo <= inner.lo and inner.hi <= outer.hi


@pytest.fixture(scope="module")
def moving_band():
    """A 128x32 perturbed run whose band moves and widens: it covers about
    7 of the 128 x1 rows at the first slice and 20 at the last."""
    return run_records(128, 32, (0.2, 0.26, 0.34, 0.45, 0.6))


@pytest.fixture(scope="module")
def small_run():
    return run_records(64, 16, (0.3, 0.36, 0.45, 0.6))


class TestReadRows:
    @pytest.mark.parametrize("run", ["moving_band", "small_run"])
    def test_hold_band_cells_and_level_curve_stencils(self, run, request):
        # the rows with a whole-grid band weight and the corner rows of each
        # level curve's sampling stencil, for every u value, are read rows
        for rec in request.getfixturevalue(run):
            grid = rec.grid
            (lo, hi), = read_rows(rec)
            for u in U_VALUES:
                held = np.flatnonzero(en.region_weights(rec.u, U_LO, u, grid).any(axis=1))
                corners = np.concatenate(en.extract_level_curve(rec.u, u, grid).stencil.corners)
                rows = np.concatenate([held, corners // grid.n2])
                assert rows.size and lo <= rows.min() and rows.max() < hi


class TestBandWindow:
    @pytest.mark.parametrize("k0, k1", [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (2, 4)])
    def test_matches_whole_plane_bitwise(self, moving_band, k0, k1):
        r0, r1 = moving_band[k0], moving_band[k1]
        window = en.band_window(r0, r1.time, read_rows(r0, r1), [0, 1])
        assert 0 < window.lo and window.hi < r0.grid.n1  # a window inside the grid
        assert same_results(evaluate(r0, r1, window, [0, 1]), evaluate(r0, r1, r0.grid, [0, 1]))

    def test_band_moves(self, moving_band):
        windows = [en.band_window(r0, r1.time, read_rows(r0, r1), [0, 1])
                   for r0, r1 in zip(moving_band, moving_band[1:])]
        assert all(b.hi > a.hi for a, b in zip(windows, windows[1:]))

    # with order-0 words only, no x1 derivative precedes the flow stencils, so the
    # reach of the stencils over the wide pair sets the smallest halo; with words of
    # order 2 over a close pair, the chain of x1 derivatives sets it
    @pytest.mark.parametrize("k0, k1, orders", [(2, 4, [0]), (2, 4, [0, 1]), (0, 1, [0, 1, 2])])
    def test_halo_one_row_short_raises(self, moving_band, k0, k1, orders):
        # the smallest halo that gives results is at most the derived one, and
        # one row less gives NumericalError naming the time and row, not a number
        r0, r1 = moving_band[k0], moving_band[k1]
        derived = en.band_window(r0, r1.time, read_rows(r0, r1), orders)
        halo = 0
        while True:
            try:
                results = evaluate(r0, r1, halo_window(r0, r1, halo), orders)
                break
            except NumericalError:
                halo += 1
        assert halo > 0 and contains(derived, halo_window(r0, r1, halo))
        assert same_results(results, evaluate(r0, r1, r0.grid, orders))
        with pytest.raises(NumericalError, match=rf"t=({r0.time:.6g}|{r1.time:.6g})\b.*\brow \d+"):
            evaluate(r0, r1, halo_window(r0, r1, halo - 1), orders)

    @settings(max_examples=8, deadline=None)
    @given(k0=st.integers(0, 2), gap=st.integers(1, 2), order=st.integers(0, 2),
           halo=st.integers(0, 14))
    def test_any_halo_is_exact_or_raises(self, small_run, k0, gap, order, halo):
        # a window at least as wide as the derived one gives the whole-plane
        # bits; a narrower one gives them too, or raises NumericalError
        r0, r1 = small_run[k0], small_run[min(k0 + gap, len(small_run) - 1)]
        orders = list(range(order + 1))
        window = halo_window(r0, r1, halo)
        derived = en.band_window(r0, r1.time, read_rows(r0, r1), orders)
        whole = evaluate(r0, r1, r0.grid, orders)
        try:
            windowed = evaluate(r0, r1, window, orders)
        except NumericalError:
            assert not contains(window, derived)
            return
        assert same_results(windowed, whole)


class TestLongPair:
    @staticmethod
    def flat_rows(pair, times):
        return np.array([v for rows in harness._pair_rows(pair, times) for row in rows
                         for v in row])

    # the example's partner band covers every row, past the base's window
    @example(k0=0, gap=3, order=0, wide_band=True)
    @settings(max_examples=6, deadline=None)
    @given(k0=st.integers(0, 2), gap=st.integers(1, 3), order=st.integers(0, 2),
           wide_band=st.booleans())
    def test_cut_base_on_its_own_window_gives_the_hull_window_bits(self, small_run, k0, gap,
                                                                   order, wide_band):
        # a long pair's rows, from its earlier slice cut to the rows of the window of
        # that slice's read rows alone, are those of the window of both slices' read rows
        r0, r1 = small_run[k0], small_run[min(k0 + gap, len(small_run) - 1)]
        orders = list(range(order + 1))
        hull = en.band_window(r0, r1.time, read_rows(r0, r1), orders)
        s0 = geo.frame_fields(r0, hull)
        expected = self.flat_rows(geo.PairDiagnostics(s0, geo.frame_fields(r1, hull)),
                                  [r0.time])
        rows = en.band_window(r0, r1.time, read_rows(r0), orders)
        base = copy.copy(r0)
        base.cut(r0.grid.around(rows.lo, rows.hi, geo.FRAME_DEPTH))
        assert base.v1.shape[0] < r0.grid.n1
        partner = r1
        if wide_band:
            partner = geo.foliate(r1, r1.u, np.ones_like(r1.band))
            assert partner.band_rows[0] < rows.lo and rows.hi < partner.band_rows[1]
        pair = harness._long_pair(base, partner, rows)
        assert same_bits(self.flat_rows(pair, [r0.time]), expected)

    @settings(max_examples=4, deadline=None)
    @given(k0=st.integers(0, 1), gap=st.integers(2, 3), order=st.integers(0, 2))
    def test_later_base_reads_the_earlier_slice_cut_to_its_own_window(self, small_run, k0,
                                                                      gap, order):
        # a long pair whose base is its later slice: its rows, labelled with the
        # base's time, come from the earlier slice cut to the window of its own
        # read rows, bit for bit as on the window of both slices' read rows
        r0, r1 = small_run[k0], small_run[min(k0 + gap, len(small_run) - 1)]
        orders = list(range(order + 1))
        hull = en.band_window(r0, r1.time, read_rows(r0, r1), orders)
        expected = self.flat_rows(geo.PairDiagnostics(geo.frame_fields(r0, hull),
                                                      geo.frame_fields(r1, hull)), [r1.time])
        assert expected.size and expected[0] == r1.time
        rows = en.band_window(r0, r1.time, read_rows(r0), orders)
        earlier = copy.copy(r0)
        earlier.cut(r0.grid.around(rows.lo, rows.hi, geo.FRAME_DEPTH))
        assert earlier.v1.shape[0] < r0.grid.n1
        assert same_bits(self.flat_rows(harness._long_pair(earlier, r1, rows), [r1.time]),
                         expected)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_base_band_stats_from_its_energy_pair_frame(self, small_run, k):
        # a base slice's band statistics, its second frame among them, from its
        # frame in the energy pair (k - 1, k) are those of its whole-grid frame
        r0, r1 = small_run[k - 1], small_run[k]
        rows = en.band_window(r0, r1.time, read_rows(r0, r1), [0, 1])
        assert rows.hi - rows.lo < r1.grid.n1
        framed, whole = (harness._band_stats(geo.frame_fields(r1, g)) for g in (rows, r1.grid))
        assert len(framed) == 3
        assert same_bits(np.concatenate(framed), np.concatenate(whole))


# SHA-256 of the study-level files and plot data of an epsilon_scaling study of
# TINY over (0.02, 0.01), recorded before the report tables were declared in one
# table; TINY's config keeps the default out_dir, which the member reports carry
EPS_STUDY_DIGESTS = {
    "epsilon_scaling-0.01/energy_psi2_n0.dat": "a9a7cb0ddf8764f6030713983bf9461cebdcd642d40354b96d0adbecf9ba2211",
    "epsilon_scaling-0.01/energy_psi2_n1.dat": "c963049492a68be14676caaac5da788f14ce7679559ac469e974b5fb4b468a3f",
    "epsilon_scaling-0.01/energy_w_n0.dat": "73c0efdc7c0770bbc4a7f5dc3e4594cb4e7935b5387caf9fd3f07384081fa3fc",
    "epsilon_scaling-0.01/energy_w_n1.dat": "f3f890b2dc4dc7d460bdd387e834ee4723669d64abd52031c9131743db838f92",
    "epsilon_scaling-0.01/energy_wbar_n0.dat": "f88a2003e9efe6bf9bb0b2bc008596657f9eaf9ae0a22cae59db633abaa6d898",
    "epsilon_scaling-0.01/energy_wbar_n1.dat": "4ff2e0d4c99c8cbaa3f6a0773a36637923b035986d8105205812423cca11bf9f",
    "epsilon_scaling-0.01/flux_vs_u.dat": "f165125df55f9e9d065e0ad6f02ccb29e79077bd592bac58a03633a66cb0a638",
    "epsilon_scaling-0.01/kappa_profile.dat": "acb6e954af27f249b86c913d3117a4dcf1e4ff13493c808d10bf8d21edaec304",
    "epsilon_scaling-0.01/residuals.dat": "e3dea24a8a66e8c2ee368a74554b5da6ef510e7300070735f0f38b288ab2630a",
    "epsilon_scaling-0.01/sign_monitors.dat": "7f71f51af8d69a84885141d957275b267414d3de96387e02d53ffe8bff3813cc",
    "epsilon_scaling-0.02/energy_psi2_n0.dat": "fbbf8a8c1eabf5aa1b81f75cf2de9e245e138fa95ad690c955ff5a03af37416b",
    "epsilon_scaling-0.02/energy_psi2_n1.dat": "d83cddb6c2adbc310c956b1e0e51ffd278372547ee736151a69756e92c9d938f",
    "epsilon_scaling-0.02/energy_w_n0.dat": "bfe6c7d54c99c53ef501cf882239253cd0b1b869b2190ba656b8f8811a900f34",
    "epsilon_scaling-0.02/energy_w_n1.dat": "40ad8c79b39e0039e82977b135092c04d4032c3de221f78640092360e54a7fe3",
    "epsilon_scaling-0.02/energy_wbar_n0.dat": "9b2abcb5cafdd5993ae2638744d0be307677b7d936f9f9c8a10403c11f33dbeb",
    "epsilon_scaling-0.02/energy_wbar_n1.dat": "6b416090d471e3a3ea91ff0635d4e442431aa2f340fdbe535b6d9a2827fd262e",
    "epsilon_scaling-0.02/flux_vs_u.dat": "6fe0e860554f11d66932e9b9ca53c6687f18770575ee9b0ce5ad9a10dbd63e22",
    "epsilon_scaling-0.02/kappa_profile.dat": "082acb31cb73b8c2844dc7d10f57ecb5cfd13712c91aa5fdaa2109e2c2d63b10",
    "epsilon_scaling-0.02/residuals.dat": "122ea1c4c6da1218cacf6fb40c79a46eb174ea36426c43ebf9cd37720e441f15",
    "epsilon_scaling-0.02/sign_monitors.dat": "66bbc6de257ce24c39c91a0daf696fb28577ddcaf423feaa666e30090b28f53d",
    "slope_fits.json": "18726729ca627f067a194f26b5f6e1884eea27764fe1fb5a3fd8c1855bbe50a7",
    "study.json": "1a1c9717e21db8ee2db51120855cf08fe51255a9af6ccb3bbc13440b8d22f0aa",
}


class TestStudies:
    def test_epsilon_study_outputs_match_recorded_digests(self, tmp_path):
        run_study(StudySpec("epsilon_scaling", (0.02, 0.01)), parse_config(TINY), out_dir=tmp_path)
        assert {f.relative_to(tmp_path).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
                for f in sorted(tmp_path.rglob("*"))
                if f.suffix == ".dat" or f.name in ("study.json", "slope_fits.json")} \
            == EPS_STUDY_DIGESTS

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

    def test_study_json_is_strict_json(self, tmp_path):
        # orders = 0 leaves the order-1 energies of the metric block NaN
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        cfg = tiny_config(tmp_path, orders=0)
        study = run_study(StudySpec("epsilon_scaling", (0.02, 0.01)), cfg,
                          out_dir=tmp_path / "e")
        assert study["epsilon_scaling"]["E1_w"] == [None, None]
        json.loads((tmp_path / "e" / "study.json").read_text(), parse_constant=reject)

    def test_bad_ladder_rejected(self):
        with pytest.raises(ConfigError):
            StudySpec("convergence", (128.0,))
        with pytest.raises(ConfigError, match="finite"):
            StudySpec("convergence", (128.0, math.inf))

    @pytest.mark.parametrize("kind, ladder, match", [
        ("convergence", "128,100.7", "ladder value 100.7 is not a valid n1"),
        ("delta_robustness", "0.2,0.7", "need delta < t_star"),
    ], ids=["fractional_n1", "delta_past_t_star"])
    def test_bad_member_config_fails_before_any_member_runs(self, tmp_path, capsys, kind,
                                                            ladder, match):
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text(TINY)
        out = tmp_path / "s"
        assert cli_main(["study", kind, str(cfg_file), "--ladder", ladder, "--out", str(out)]) == 2
        assert match in capsys.readouterr().err
        assert not out.exists()

    def test_member_without_late_rows(self, tmp_path):
        # delta = 0.35 > t_star / 2 leaves that member no row at t >= 2 delta
        cfg = tiny_config(tmp_path)
        run_study(StudySpec("delta_robustness", (0.2, 0.35)), cfg, out_dir=tmp_path / "d")
        study = json.loads((tmp_path / "d" / "study.json").read_text())
        assert study["failures"] == []
        kappa_dev = study["delta_robustness"]["max_kappa_dev"]
        assert kappa_dev[0] > 0 and kappa_dev[1] is None

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

    @pytest.mark.parametrize("left", ["nan,1", "0,nan", "inf,1"])
    def test_riemann_non_finite_state_exit_code(self, left, capsys):
        assert cli_main(["riemann1d", "--left", left, "--right", "0.5,0.8"]) == 2
        assert "state must be finite" in capsys.readouterr().err

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

    def test_solver_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import rarewave.euler2d as euler2d

        calls, step = [0], euler2d.step

        def overlong_step(f, dt):
            # the sixth step is a thousand times too long: the density goes negative
            calls[0] += 1
            return step(f, dt * (1e3 if calls[0] == 6 else 1.0))

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(euler2d, "step", overlong_step)
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text(TINY)
        assert cli_main(["run", str(cfg_file), "--out", str(tmp_path / "r")]) == 1
        assert re.fullmatch(r"analysis failure: non-positive or NaN density at t=[\d.]+: "
                            r"\d+ cells, first at \(i=\d+, j=\d+\) with rho=\S+\n",
                            capsys.readouterr().err)
        assert solve_manifest(tmp_path / "r")["status"] == "failed"

    def test_degenerate_foliation_exit_code(self, tmp_path, monkeypatch, capsys):
        foliate = geo.foliate

        def flat_foliate(field, u, band):
            return foliate(field, np.ones_like(u), band)

        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(geo, "foliate", flat_foliate)
        cfg_file = tmp_path / "tiny.cfg"
        cfg_file.write_text(TINY)
        assert cli_main(["run", str(cfg_file), "--out", str(tmp_path / "r")]) == 1
        assert re.fullmatch(r"analysis failure: \|grad u\| < 1e-08 inside the tracked band "
                            r"at t=0\.2, first at \(i=\d+, j=\d+\)\n", capsys.readouterr().err)
        assert solve_manifest(tmp_path / "r")["status"] == "failed"


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
