import hashlib
import json
import math
import os
import platform
import runpy
import tracemalloc
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import dpp_limits
from dpp_limits import (
    ContinuousKernel,
    SeededRng,
    experiments,
    gaussian_kernel,
    gram_kernel,
    latent_graph,
    sample_uniform_cube,
    usvt_kernel,
)
from dpp_limits.cli import main
from dpp_limits.experiments import (
    CSV_HEADER,
    ChecksConfig,
    ConfigError,
    CoresetConfig,
    SphereConfig,
    UsvtConfig,
    config_hash,
    load_config,
    run_checks,
    run_coreset,
    run_sphere,
    run_usvt,
    sphere_bandwidths,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# --- config parsing ----------------------------------------------------------


def test_load_config_roundtrip(tmp_path):
    path = write(
        tmp_path,
        "c.cfg",
        "[coreset]\nn = 64\nd = 2\nm_grid = 2, 4\ndraws = 5\n"
        "theta_count = 6\nrealizations = 2\nseed = 9\n",
    )
    cfg = load_config(path, "coreset")
    assert cfg.n == 64
    assert cfg.m_grid == (2, 4)
    assert cfg.seed == 9


def test_seed_override(tmp_path):
    path = write(tmp_path, "c.cfg", "[coreset]\nn = 32\nm_grid = 2\nseed = 1\n")
    assert load_config(path, "coreset", seed_override=77).seed == 77


def test_missing_section_rejected(tmp_path):
    path = write(tmp_path, "c.cfg", "[sphere]\nn = 100\n")
    with pytest.raises(ConfigError, match=r"missing section \[coreset\]"):
        load_config(path, "coreset")


def test_unknown_key_rejected(tmp_path):
    path = write(tmp_path, "c.cfg", "[coreset]\nn = 32\nwat = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'wat'"):
        load_config(path, "coreset")


def test_bad_int_rejected(tmp_path):
    path = write(tmp_path, "c.cfg", "[coreset]\nn = twelve\n")
    with pytest.raises(ConfigError, match="cannot parse 'twelve'"):
        load_config(path, "coreset")


def test_m_grid_exceeding_n_rejected(tmp_path):
    path = write(tmp_path, "c.cfg", "[coreset]\nn = 8\nm_grid = 4, 16\n")
    with pytest.raises(ConfigError, match="must not exceed n"):
        load_config(path, "coreset")


@pytest.mark.parametrize(
    "kind, text",
    [
        ("coreset", "[coreset]\nn = 32\nm_grid = 4, 8, 4\n"),
        ("sphere", "[sphere]\nn = 32\nm_grid = 4, 4\n"),
        ("usvt", "[usvt]\nn_grid = 20, 40, 20\n"),
        ("checks", "[checks]\nchecks = det_bounds, det_bounds\n"),
    ],
    ids=["coreset", "sphere", "usvt", "checks"],
)
def test_repeated_grid_entry_rejected(tmp_path, kind, text):
    path = write(tmp_path, "c.cfg", text)
    with pytest.raises(ConfigError, match="entries must be distinct"):
        load_config(path, kind)
    assert main([kind, "--config", path, "--quiet"]) == 2


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("usvt", "[usvt]\nn_grid = 20\nkernel_scale = 0\n", "kernel_scale: must be positive"),
        ("usvt", "[usvt]\nn_grid = 20\nkernel_scale = nan\n", "kernel_scale: must be finite"),
        ("usvt", "[usvt]\nn_grid = 20\nrho = nan\n", "rho: must be finite"),
        ("sphere", "[sphere]\nh1 = nan\n", "h1: must be finite"),
        ("sphere", "[sphere]\nh2 = inf\n", "h2: must be finite"),
        ("coreset", "[coreset]\nm_grid = 0, 4\n", "m_grid: entries must be positive ints"),
        ("coreset", "[coreset]\nquantile = 1.5\n", r"quantile: must be in \(0, 1\)"),
        ("usvt", "[usvt]\nalpha = 0\n", r"alpha: must be in \(0, 1\]"),
        ("usvt", "[usvt]\nc = 2\n", r"c: must be in \[0, 1\]"),
        ("sphere", "[sphere]\nh1 = -1\n", "bandwidths: must be nonnegative"),
    ],
    ids=[
        "kernel_scale-zero",
        "kernel_scale-nan",
        "rho-nan",
        "h1-nan",
        "h2-inf",
        "m_grid-zero",
        "quantile-above-1",
        "alpha-zero",
        "c-above-1",
        "h1-negative",
    ],
)
def test_nonfinite_or_zero_scale_rejected(tmp_path, kind, text, message):
    path = write(tmp_path, "c.cfg", text)
    with pytest.raises(ConfigError, match=message):
        load_config(path, kind)
    assert main([kind, "--config", path, "--quiet"]) == 2


def test_config_hash_stable():
    a = CoresetConfig(n=64)
    b = CoresetConfig(n=64)
    c = CoresetConfig(n=65)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)


def test_sphere_bandwidth_formulas():
    import math

    n = 3000
    h1, h2 = sphere_bandwidths(n)
    assert h1 == pytest.approx((math.log(n) / n) ** (1 / 16))
    assert h2 == pytest.approx((math.log(n) / n) ** 0.25)


# --- runners (smoke scale) ---------------------------------------------------


SMALL_CORESET = CoresetConfig(
    n=48, d=2, m_grid=(2, 4), draws=6, theta_count=5, realizations=2, seed=5
)


def test_run_coreset_smoke():
    table = run_coreset(SMALL_CORESET)
    vals = [r.value for r in table.rows]
    assert len(vals) == 4  # two m values x two methods
    assert all(np.isfinite(v) and v >= 0 for v in vals)
    assert {r.method for r in table.rows} == {"iid", "dpp"}


def test_run_coreset_deterministic_csv():
    a = run_coreset(SMALL_CORESET).to_csv()
    b = run_coreset(SMALL_CORESET).to_csv()
    assert a == b


@pytest.mark.parametrize(
    "bandwidths", ["", "h1 = 0.5\n", "h2 = 0.5\n"], ids=["defaults", "h2-default", "h1-default"]
)
def test_sphere_single_point_rejects_default_bandwidths(tmp_path, bandwidths):
    # (log n / n)^... is exactly 0 at n = 1; the run used to exit 3
    path = write(tmp_path, "c.cfg", "[sphere]\nn = 1\nm_grid = 1\n" + bandwidths)
    with pytest.raises(ConfigError, match="defaults are 0 at n = 1"):
        load_config(path, "sphere")
    assert main(["sphere", "--config", path, "--quiet"]) == 2


def test_sphere_single_point_runs_with_explicit_bandwidths(tmp_path):
    text = "[sphere]\nn = 1\nm_grid = 1\nh1 = 0.5\nh2 = 0.5\ndraws = 3\nrealizations = 1\n"
    path, out = write(tmp_path, "c.cfg", text), tmp_path / "sphere.csv"
    assert main(["sphere", "--config", path, "--out", str(out), "--quiet"]) == 0
    assert len(out.read_text().splitlines()) > 1


def test_run_sphere_smoke():
    cfg = SphereConfig(n=150, m_grid=(2, 4), draws=10, realizations=1, seed=3)
    table = run_sphere(cfg)
    assert len(table.rows) == 4
    assert all(np.isfinite(r.value) for r in table.rows)


def test_run_usvt_smoke_and_determinism():
    cfg = UsvtConfig(n_grid=(60, 120), replicates=2, rho=0.15, seed=8)
    t1 = run_usvt(cfg)
    assert {r.metric for r in t1.rows} == {"frobenius_error", "trace_error"}
    assert len(t1.rows) == 4
    assert t1.to_csv() == run_usvt(cfg).to_csv()


def test_run_usvt_evaluates_the_gram_once_whole_and_once_on_row_blocks(monkeypatch):
    # the whole Gram of the latent kernel serves the graph draw; once the
    # kernel exists, its rows come again on 64-row blocks for the recovery
    # error, each row once
    calls = []
    real = experiments.gaussian_kernel

    def counting_kernel(**kwargs):
        kernel = real(**kwargs)

        def pairwise(X, Y):
            calls.append((X.shape[0], Y.shape[0]))
            return kernel.pairwise(X, Y)

        return ContinuousKernel(pairwise=pairwise, diagonal=kernel.diagonal)

    monkeypatch.setattr(experiments, "gaussian_kernel", counting_kernel)
    run_usvt(UsvtConfig(n_grid=(30, 130), replicates=2, rho=0.15, seed=8))
    small, large = [(30, 30)] * 2, [(130, 130), (64, 130), (64, 130), (2, 130)]
    assert calls == small * 2 + large * 2


def test_run_usvt_replicates_hold_no_stale_arrays():
    # traced peak of two replicates at n = 400, in n x n doubles: the graph
    # as bits, usvt_kernel's one float copy and its dense eigh's
    # eigenvectors; the previous replicate's Gram, graph and kernel no
    # longer stay alive through the next one (5.10, then 3.60 with two
    # arrays in usvt_kernel, 2.78 with the graph as floats beside it, 2.07
    # now; the row-block error stays below it). The first call in a process
    # also traces one-time allocations (0.55 more), so a small run goes
    # first and the bound holds whatever ran before.
    run_usvt(UsvtConfig(n_grid=(50,), replicates=1, rho=0.15, seed=8))
    n = 400
    tracemalloc.start()
    try:
        run_usvt(UsvtConfig(n_grid=(n,), replicates=2, rho=0.15, seed=8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8.0 * n * n) <= 2.35


def test_usvt_block_path_replicate_traced_peak(monkeypatch):
    # one n = 1600 replicate on the block path, in n x n doubles.  Its peak
    # is the Krylov search: usvt_kernel's float copy of the graph, the basis
    # and its image (half), their projection (1/16) and its eigenvectors
    # (1.62 in all).  The Gram's row-block rebuild holds the kernel and one
    # block at 1.10.  With the graph as floats beside the packed Gram and
    # the certificate's own n x n array it was 2.62
    cfg = UsvtConfig(alpha=1.0, rho=0.15)
    latent = gaussian_kernel(bandwidth=cfg.kernel_scale, amplitude=cfg.c)
    experiments._usvt_replicate(cfg, latent, 50, SeededRng(50, 1), SeededRng(50, 2))
    sizes, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    n = 1600
    tracemalloc.start()
    try:
        experiments._usvt_replicate(cfg, latent, n, SeededRng(n, 1), SeededRng(n, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(sizes) < n  # only the Rayleigh-Ritz problems
    assert peak / (8.0 * n * n) <= 1.65


@pytest.mark.parametrize("seed", [7, 42])
def test_run_usvt_reproduces_the_recorded_reference(tmp_path, seed):
    # the benchmark's USVT config, n = 200 to 1600 (the last on the block
    # path), against the values recorded per seed in the reference file
    ref = json.loads((Path(__file__).parents[1] / "perfbench" / "usvt_reference.json").read_text())
    path = write(tmp_path, "usvt.cfg", "[usvt]\n" + ref["config"].format(seed=seed))
    lines = run_usvt(load_config(path, "usvt")).to_csv().splitlines()
    got = {f"{row[1]}:{row[4]}": float(row[5]) for row in (line.split(",") for line in lines[1:])}
    assert got.keys() == ref["seeds"][str(seed)].keys()
    for key, want in ref["seeds"][str(seed)].items():
        assert got[key] == pytest.approx(want, rel=ref["rtol"], abs=0.0), key


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_usvt_replicate_error_matches_dense_rebuild(n):
    # the Frobenius error summed over the Gram's row blocks equals the
    # dense ||K - G||_F / n, with n on either side of the 64-row block edge
    cfg = UsvtConfig(alpha=0.8, rho=0.15)
    latent = gaussian_kernel(bandwidth=cfg.kernel_scale, amplitude=cfg.c)
    frob, trace = experiments._usvt_replicate(cfg, latent, n, SeededRng(n, 1), SeededRng(n, 2))
    gram = gram_kernel(latent, sample_uniform_cube(n, cfg.d, SeededRng(n, 1)))
    K = usvt_kernel(latent_graph(gram, cfg.alpha, SeededRng(n, 2)), cfg.alpha, cfg.c, cfg.rho)
    dense = float(np.linalg.norm(K.entries - gram.entries)) / n
    assert abs(frob - dense) <= 1e-14 * dense
    assert trace == abs(float(np.trace(K.entries)) / n - cfg.c)


def test_run_checks_all_pass():
    table = run_checks(ChecksConfig(seed=2))
    assert all(r.method == "pass" for r in table.rows)


def test_run_checks_corrupt_kernel_fails():
    table = run_checks(
        ChecksConfig(checks=("kernel_validation",), corrupt_kernel=True, seed=2)
    )
    assert table.rows[0].method == "fail"


def _corrupt_validation_row(monkeypatch, validator):
    monkeypatch.setattr(experiments, "validate_kernel", validator)
    table = run_checks(
        ChecksConfig(checks=("kernel_validation",), corrupt_kernel=True, seed=2)
    )
    return table.rows[0]


def test_corrupt_kernel_rejected_row(monkeypatch):
    def rejects(kernel):
        raise ValueError("eigenvalue exceeds n")

    row = _corrupt_validation_row(monkeypatch, rejects)
    assert (row.method, row.value) == ("fail", -1.0)


def test_corrupt_kernel_wrongly_accepted_row(monkeypatch):
    row = _corrupt_validation_row(monkeypatch, lambda kernel: None)
    assert row.method == "fail"
    assert math.isnan(row.value)


def test_run_checks_empty_list():
    table = run_checks(ChecksConfig(checks=(), seed=2))
    assert table.rows == []


def test_unknown_check_rejected_at_load(tmp_path):
    path = write(tmp_path, "c.cfg", "[checks]\nchecks = ope_projection, nope\n")
    with pytest.raises(ConfigError, match="unknown check 'nope'"):
        load_config(path, "checks")


def test_run_checks_unknown_name():
    with pytest.raises(ConfigError, match="unknown check"):
        run_checks(ChecksConfig(checks=("nope",), seed=2))


# --- CSV schema --------------------------------------------------------------


def test_csv_schema_and_metadata():
    table = run_usvt(UsvtConfig(n_grid=(40,), replicates=1, rho=0.15, seed=12))
    lines = table.to_csv().splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert len(cells) == 8
    assert cells[0] == "usvt"
    assert cells[6] == "12"
    assert cells[7] == config_hash(UsvtConfig(n_grid=(40,), replicates=1, rho=0.15, seed=12))
    float(cells[5])  # value parses


# --- CLI ----------------------------------------------------------------------


def test_cli_checks_roundtrip(tmp_path, capsys):
    cfg = write(tmp_path, "checks.cfg", "[checks]\nchecks = ope_projection\nseed = 4\n")
    out = str(tmp_path / "res.csv")
    code = main(["checks", "--config", cfg, "--out", out, "--quiet"])
    assert code == 0
    text = open(out).read()
    assert text.startswith(CSV_HEADER)
    assert "ope_projection,pass" in text


def test_cli_checks_failure_exit_code(tmp_path):
    cfg = write(
        tmp_path,
        "checks.cfg",
        "[checks]\nchecks = kernel_validation\ncorrupt_kernel = true\nseed = 4\n",
    )
    out = str(tmp_path / "res.csv")
    assert main(["checks", "--config", cfg, "--out", out, "--quiet"]) == 1


def test_cli_empty_checks_exit_two(tmp_path):
    # a self-check run that checks nothing is a config error
    cfg = write(tmp_path, "checks.cfg", "[checks]\nchecks =\nseed = 4\n")
    out = str(tmp_path / "res.csv")
    with pytest.raises(ConfigError, match="checks: must be a nonempty list"):
        load_config(cfg, "checks")
    assert main(["checks", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert not os.path.exists(out)


def test_config_hash_ignores_output_path(tmp_path):
    out = str(tmp_path / "x.csv")
    cfg = write(tmp_path, "a.cfg", f"[checks]\nchecks = det_bounds\nout = {out}\n")
    flag = write(tmp_path, "b.cfg", "[checks]\nchecks = det_bounds\n")
    assert main(["checks", "--config", cfg, "--quiet"]) == 0
    named_in_config = open(out).read()
    assert main(["checks", "--config", flag, "--out", out, "--quiet"]) == 0
    assert open(out).read() == named_in_config


def test_cli_config_error_exit_two(tmp_path):
    cfg = write(tmp_path, "c.cfg", "[coreset]\nn = -5\n")
    assert main(["coreset", "--config", cfg, "--quiet"]) == 2


def test_cli_missing_file_exit_two(tmp_path):
    assert main(["coreset", "--config", str(tmp_path / "nope.cfg"), "--quiet"]) == 2


def _runner_must_not_run(cfg):
    raise AssertionError("the runner ran although its output cannot be written")


def test_cli_unwritable_output_exit_two(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "checks.cfg", "[checks]\nchecks = ope_projection\nseed = 4\n")
    out = str(tmp_path / "missing" / "res.csv")
    assert main(["checks", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert f"cannot write {out}: " in capsys.readouterr().err
    # the output is checked before the run, not after it
    monkeypatch.setitem(experiments.RUNNERS, "checks", _runner_must_not_run)
    for bad in (out, str(tmp_path)):
        assert main(["checks", "--config", cfg, "--out", bad, "--quiet"]) == 2
        assert f"cannot write {bad}: " in capsys.readouterr().err


def test_cli_failed_run_leaves_output_untouched(tmp_path, capsys, monkeypatch):
    def failing(cfg):
        raise ConfigError("[checks] unknown check 'x'")

    monkeypatch.setitem(experiments.RUNNERS, "checks", failing)
    cfg = write(tmp_path, "checks.cfg", "[checks]\nchecks = ope_projection\nseed = 4\n")
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_text("old contents\n")
    for out in (kept, new):
        assert main(["checks", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert "config error" in capsys.readouterr().err
    assert kept.read_text() == "old contents\n"
    assert not new.exists()


def test_cli_run_error_exit_three(tmp_path, capsys, monkeypatch):
    def failing(cfg):
        raise ArithmeticError("chain chose an index twice")

    monkeypatch.setitem(experiments.RUNNERS, "checks", failing)
    cfg = write(tmp_path, "checks.cfg", "[checks]\nchecks = ope_projection\nseed = 4\n")
    out = tmp_path / "res.csv"
    assert main(["checks", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "checks run failed: chain chose an index twice\n"
    assert captured.out == ""
    assert not out.exists()


def test_cli_stdout_and_seed_override(tmp_path, capsys):
    cfg = write(
        tmp_path,
        "usvt.cfg",
        "[usvt]\nn_grid = 40\nreplicates = 1\nrho = 0.2\nseed = 1\n",
    )
    code = main(["usvt", "--config", cfg, "--seed", "31", "--quiet"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith(CSV_HEADER)
    assert ",31," in captured.out


def test_cli_byte_identical_reruns(tmp_path):
    cfg = write(
        tmp_path,
        "coreset.cfg",
        "[coreset]\nn = 48\nm_grid = 2, 4\ndraws = 4\ntheta_count = 4\n"
        "realizations = 1\nseed = 77\n",
    )
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(["coreset", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert main(["coreset", "--config", cfg, "--out", out2, "--quiet"]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_shipped_configs_parse():
    for kind in ("coreset", "sphere", "usvt", "checks"):
        cfg = load_config(f"configs/{kind}.cfg", kind)
        assert cfg.seed >= 0


# --- pinned CSV bytes --------------------------------------------------------

# reduced-scale configs whose CSV md5s were recorded on the host below; the
# checks config is the shipped one
_PINNED_CONFIGS = {
    "coreset": "[coreset]\nn = 1000\nd = 2\nm_grid = 1, 2, 4, 8, 16, 32, 64, 128, 256\n"
    "draws = 20\ntheta_count = 100\nrealizations = 2\nseed = 20240601\n",
    "sphere": "[sphere]\nn = 1000\nm_grid = 1, 2, 4, 8, 16, 32, 64, 128\ndraws = 100\n"
    "realizations = 2\nseed = 20240602\n",
    "usvt": "[usvt]\nn_grid = 200, 400, 800\nd = 2\nalpha = 1.0\nc = 0.6\nrho = 0.15\n"
    "kernel_scale = 1.0\nreplicates = 2\nseed = 20240603\n",
}
_PINNED_MD5 = {
    "coreset": "1f4a37da7d571512bfa92ed8b6c41b33",
    "sphere": "ecb0fd1d502e8b23d9d28dc429f22224",
    "usvt": "ceefcb48be80111e8c743c5864376797",
    "checks": "937316f58c3002b8f79e32195cdfc97b",
}
# the last bits of eigensolvers and GEMMs depend on all four; the sphere
# and usvt md5s change with 2 BLAS threads
_PINNED_HOST = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "cpu": "Intel(R) Xeon(R) Processor",
    "blas threads": "1",
}


def _host_fingerprint():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    threads = (
        os.environ.get("OPENBLAS_NUM_THREADS")
        or os.environ.get("OMP_NUM_THREADS")
        or str(os.cpu_count())
    )
    return {"numpy": np.__version__, "blas": blas, "cpu": cpu, "blas threads": threads}


def test_reduced_scale_csv_bytes_pinned(tmp_path):
    here = _host_fingerprint()
    differ = [f"{k} {here[k]!r}, recorded {v!r}" for k, v in _PINNED_HOST.items() if here[k] != v]
    if differ:
        pytest.skip("CSV md5s were recorded elsewhere: " + "; ".join(differ))
    with open("configs/checks.cfg", encoding="utf-8") as fh:
        texts = dict(_PINNED_CONFIGS, checks=fh.read())
    got = {}
    for kind, text in texts.items():
        cfg, out = write(tmp_path, f"{kind}.cfg", text), tmp_path / f"{kind}.csv"
        assert main([kind, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        got[kind] = hashlib.md5(out.read_bytes()).hexdigest()
    assert got == _PINNED_MD5


# --- public surface ----------------------------------------------------------

_PUBLIC_NAMES = [
    "AdjacencyMatrix",
    "ContinuousKernel",
    "HarmonicDetails",
    "IndexSample",
    "KernelMatrix",
    "PointCloud",
    "SeededRng",
    "TestFunction",
    "ValidatedDpp",
    "constant_kernel",
    "coreset_estimates",
    "det_bound_frobenius",
    "det_bound_max",
    "draw_with_replacement",
    "enumerate_pmf",
    "expected_linear_statistic",
    "expected_statistic_continuous",
    "gaussian_kernel",
    "graded_monomials",
    "gram_kernel",
    "harmonic_kernel",
    "harmonic_kernel_details",
    "harmonic_kernel_family",
    "kde_density",
    "kernel_error",
    "latent_graph",
    "linear_statistic",
    "loss_on_grid",
    "measure_error",
    "normalized_indicator_profile",
    "ope_kernel",
    "orthonormalize_columns",
    "quantile_relative_error",
    "random_valid_kernel",
    "sample_dpp",
    "sample_dpp_many",
    "sample_uniform_cube",
    "sample_uniform_sphere",
    "sensitivity_scores",
    "sphere_integrals",
    "squared_distances",
    "usvt_kernel",
    "usvt_retained_rank",
    "validate_kernel",
]


def test_public_names():
    assert dpp_limits.__all__ == _PUBLIC_NAMES
    for name in _PUBLIC_NAMES:
        assert hasattr(dpp_limits, name), name


def test_benchmark_span_targets_exist():
    # the benchmark tracer wraps these names by module; spans.py imports only
    # the standard library, so it loads by path without the benchmark
    spans = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "spans.py"))
    for module, names in spans["TARGETS"].values():
        for name in names:
            assert hasattr(import_module(module), name), f"{module}.{name}"
