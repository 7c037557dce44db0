"""Design generation, experiment sweeps, determinism, and serialization."""

import hashlib
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signlasso.conditions
import signlasso.harness as harness
from conftest import reference_records
from signlasso import (
    BadGeneratorError,
    CoefVector,
    ConfigError,
    DesignSpec,
    DesignMatrix,
    ExperimentConfig,
    blocked_gram,
    build_working_problem,
    make_design,
    oracle_perturbation,
    proposition_diagnostics,
    read_design_file,
    run_experiment,
    simulate,
)
from signlasso.fileio import read_matrix_csv, write_matrix_csv
from signlasso.harness import (
    _SEED_BLOCK,
    _TAG_DESIGN,
    ReplicateRecord,
    _SeedState,
    _diagnosed,
    _PerN,
    _Queued,
    _reference,
    _replicate_seeds,
    _seed_states,
    _seeds,
    derive_seed,
    summarize_records,
    write_results_csv,
    write_summary_csv,
)


def _small_config(**overrides):
    # Small n keeps the suite fast; tau sits low because the weighted Gram of
    # a 60-120 row design fluctuates too much to clear the canonical 0.67.
    base = dict(
        design=DesignSpec(kind="correlated_gaussian", rho=0.2, scale=0.6),
        beta_star=CoefVector([1.0, -1.0, 0.0, 0.0]),
        n_grid=(60, 120),
        c1=1.0,
        c2=0.5,
        alpha_coef=1.0,
        replicates=25,
        seed=4242,
        beta_tilde_mode="oracle:1.0",
        tau=0.3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# make_design
# ---------------------------------------------------------------------------


def test_design_determinism():
    spec = DesignSpec(kind="iid_gaussian", scale=0.8)
    a = make_design(spec, 20, 3, seed=9)
    b = make_design(spec, 20, 3, seed=9)
    assert np.array_equal(a.values, b.values)
    c = make_design(spec, 20, 3, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_row_norm_cap_is_enforced_exactly():
    spec = DesignSpec(kind="iid_gaussian", scale=1.0, row_norm_cap=1.5)
    X = make_design(spec, 200, 4, seed=3)
    norms = X.row_norms()
    assert np.all(norms <= 1.5 + 1e-12)
    # Some rows must have been rescaled onto the cap exactly.
    assert np.any(np.abs(norms - 1.5) <= 1e-12)


def test_default_cap_bounds_rows():
    spec = DesignSpec(kind="iid_gaussian", scale=1.0)
    X = make_design(spec, 500, 6, seed=5)
    assert np.all(X.row_norms() <= 2.0 * np.sqrt(6) + 1e-12)


def test_orthogonal_ish_law_of_large_numbers():
    spec = DesignSpec(kind="orthogonal_ish", scale=1.0)
    X = make_design(spec, 10_000, 4, seed=11)
    C = X.values.T @ X.values / 10_000
    np.testing.assert_allclose(np.diag(C), np.ones(4), atol=1e-12)
    off = C - np.diag(np.diag(C))
    assert np.max(np.abs(off)) <= 0.05
    # Row norms are exactly scale * sqrt(p) for the sign design.
    np.testing.assert_allclose(X.row_norms(), np.sqrt(4.0), rtol=1e-15)


def test_correlated_design_matches_target_correlation():
    spec = DesignSpec(kind="correlated_gaussian", rho=0.5, scale=1.0, row_norm_cap=1e9)
    X = make_design(spec, 50_000, 3, seed=13)
    corr = np.corrcoef(X.values.T)
    assert corr[0, 1] == pytest.approx(0.5, abs=0.02)
    assert corr[0, 2] == pytest.approx(0.25, abs=0.02)


def test_unknown_generator_rejected():
    with pytest.raises(BadGeneratorError):
        DesignSpec(kind="who_knows")


def test_file_design_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    values = rng.standard_normal((30, 3))
    path = tmp_path / "X.csv"
    write_matrix_csv(path, values)
    spec = DesignSpec(kind="file", path=str(path))
    rows = read_design_file(spec)
    X = make_design(spec, 20, 3, 0, rows)
    np.testing.assert_array_equal(X.values, values[:20])
    with pytest.raises(ValueError):
        make_design(spec, 40, 3, 0, rows)
    # The file is read by read_design_file alone.
    with pytest.raises(ValueError, match="needs its rows"):
        make_design(spec, 20, 3, 0)


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------


def _seed_sequence(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    seed=st.one_of(
        st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**100)
    ),
    n=st.one_of(st.integers(1, 2**32 - 1), st.integers(2**32, 2**40)),
    r=st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40]),
)
def test_vectorised_seeds_are_numpys_seed_sequence(seed, n, r):
    # Master seeds of one, two and three words, with n and replicate indices
    # of one and two; each seed must be SeedSequence's, bit for bit, whether
    # a part is an int or a per-lane array.
    tags = (1, 2, 3)
    expected = [_seed_sequence(seed, tag, n, r) for tag in tags]
    assert [derive_seed(seed, tag, n, r) for tag in tags] == expected
    lanes = np.array([r, r, r], dtype=np.uint64)
    assert _seeds(seed, np.array(tags, dtype=np.uint64), n, lanes).tolist() == expected
    assert _seeds(np.array([seed % 2**64] * 2, dtype=np.uint64), 2).tolist() == (
        [_seed_sequence(seed % 2**64, 2)] * 2
    )


def _generator_state(seed):
    return np.random.default_rng(seed).bit_generator.state


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seeds=st.lists(
    st.one_of(
        st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
        st.integers(0, 2**32 - 1),
        st.integers(2**32, 2**64 - 1),
    ),
    min_size=1, max_size=8,
))
def test_seed_states_give_the_generators_of_their_seeds(seeds):
    # One entropy word (below 2**32) or two: the state is default_rng's.
    states = _seed_states(np.array(seeds, dtype=np.uint64))
    assert len(states) == len(seeds)
    for seed, state in zip(seeds, states):
        assert isinstance(state, _SeedState)
        ours, theirs = np.random.default_rng(state), np.random.default_rng(seed)
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()
    with pytest.raises(ValueError, match="four uint64"):
        np.random.MT19937(states[0])


def test_replicate_seeds_cross_blocks_as_seed_sequence_does():
    tags = (2, 3, 1)
    pairs = list(_replicate_seeds(20260811, tags, 4000, _SEED_BLOCK + 3))
    assert len(pairs) == _SEED_BLOCK + 3
    for r in (0, 1, 200, _SEED_BLOCK - 1, _SEED_BLOCK, _SEED_BLOCK + 2):
        seed_used, states = pairs[r]
        expected = [derive_seed(20260811, tag, 4000, r) for tag in tags]
        assert seed_used == expected[0] == _seed_sequence(20260811, 2, 4000, r)
        assert list(map(_generator_state, states)) == list(map(_generator_state, expected))
    # Indices at and beyond 2**32 take two entropy words.
    r = np.arange(2**32, 2**32 + 3, dtype=np.uint64)
    assert _seeds(7, 1, 60, r).tolist() == [_seed_sequence(7, 1, 60, int(i)) for i in r]
    assert derive_seed() == _seed_sequence() and derive_seed(0) == _seed_sequence(0)
    with pytest.raises(ValueError, match="nonnegative"):
        derive_seed(7, -1)


# ---------------------------------------------------------------------------
# ExperimentConfig validation
# ---------------------------------------------------------------------------


def test_schedule_constraint_enforced():
    with pytest.raises(ConfigError, match="0 < c2 < c1 <= 1"):
        _small_config(c1=0.5, c2=0.5)
    with pytest.raises(ConfigError, match="0 < c2 < c1 <= 1"):
        _small_config(c1=0.5, c2=0.9)
    with pytest.raises(ConfigError, match="0 < c2 < c1 <= 1"):
        _small_config(c1=1.2, c2=0.5)


def test_grid_must_increase():
    with pytest.raises(ConfigError, match="strictly increasing"):
        _small_config(n_grid=(100, 100))


def test_an_mle_sweep_needs_n_at_least_p():
    # Each replicate's MLE needs n >= p; an oracle expansion point does not.
    with pytest.raises(ConfigError, match="entry 3 is below p=4") as info:
        _small_config(beta_tilde_mode="mle", n_grid=(3, 60))
    assert info.value.field == "n_grid"
    assert _small_config(beta_tilde_mode="mle", n_grid=(4, 60)).n_grid == (4, 60)
    assert _small_config(n_grid=(3, 60)).n_grid == (3, 60)


def test_beta_star_needs_support():
    with pytest.raises(ConfigError, match="nonzero"):
        _small_config(beta_star=CoefVector([0.0, 0.0, 0.0, 0.0]))


def test_alpha_schedule_exponent():
    config = _small_config()
    assert config.alpha_for(100) == pytest.approx(100 ** 0.75)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_experiment_deterministic():
    config = _small_config()
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.records == b.records
    assert a.summary == b.summary


def test_replicate_dominance_holds():
    config = _small_config(replicates=60)
    result = run_experiment(config)
    assert not result.failures
    for rec in result.records:
        if rec.An and rec.Bn:
            assert rec.sign_match, f"events held without sign recovery at {rec}"


def test_penalty_dominated_regime():
    config = _small_config(alpha_coef=1e6, replicates=10)
    result = run_experiment(config)
    for row in result.summary:
        assert row.recovery_rate == 0.0
        assert row.event_rate == 0.0


def test_unpenalized_fit_degrades_recovery():
    scheduled = run_experiment(_small_config(replicates=40))
    unpenalized = run_experiment(_small_config(replicates=40, alpha_coef=0.0))
    last = scheduled.summary[-1]
    last_unpenalized = unpenalized.summary[-1]
    assert last_unpenalized.recovery_rate < last.recovery_rate


def test_mle_mode_runs():
    config = _small_config(
        beta_tilde_mode="mle", n_grid=(120,), replicates=10,
        design=DesignSpec(kind="orthogonal_ish", scale=0.5),
    )
    result = run_experiment(config)
    assert len(result.records) == 10
    assert not result.failures


def test_redrawn_designs_differ_across_replicates():
    config = _small_config(replicates=8, redraw_design=True, n_grid=(60,))
    result = run_experiment(config)
    margins = {rec.irrep_margin for rec in result.records}
    assert len(margins) > 1


def test_irrepresentable_violation_aborts():
    # Near-duplicate columns push the margin below tau.
    config = _small_config(
        design=DesignSpec(kind="correlated_gaussian", rho=0.98, scale=1.0),
        replicates=5,
    )
    with pytest.raises(ConfigError, match="irrepresentability margin"):
        run_experiment(config)


def test_orthogonal_design_recovery_trend():
    # Rates frozen from a pilot of this exact configuration.
    config = ExperimentConfig(
        design=DesignSpec(kind="orthogonal_ish", scale=1.0),
        beta_star=CoefVector([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]),
        n_grid=(250, 1000, 4000),
        c1=1.0,
        c2=0.5,
        alpha_coef=1.0,
        replicates=200,
        seed=321,
        beta_tilde_mode="oracle:1.0",
    )
    result = run_experiment(config)
    rates = [row.recovery_rate for row in result.summary]
    assert rates == [0.475, 0.73, 0.97]
    assert rates == sorted(rates)
    assert rates[-1] > rates[0]


def test_reference_report_factorises_the_active_block_once(cho_factor_calls):
    config = _small_config()
    for n in config.n_grid:
        design = make_design(config.design, n, config.p, derive_seed(config.seed, _TAG_DESIGN, n))
        before = len(cho_factor_calls)
        _reference(config, design)
        assert len(cho_factor_calls) - before == 1


def test_every_reference_design_is_checked_before_the_first_replicate(monkeypatch):
    # Only n=240's margin (0.72167) is below tau; the sweep used to draw the
    # counts of n=60's and n=120's replicates before it reached n=240.
    def no_counts(*args):
        raise AssertionError("counts were drawn")

    monkeypatch.setattr(harness, "simulate", no_counts)
    config = _small_config(n_grid=(60, 120, 240), replicates=3, seed=3, tau=0.7234)
    with pytest.raises(ConfigError, match=r"irrepresentability margin 0\.721665 at n=240 ") as info:
        run_experiment(config)
    assert info.value.field == "design"


@pytest.mark.parametrize("overrides", [
    {},
    {"redraw_design": True},
    {"beta_tilde_mode": "mle", "n_grid": (120,), "tau": 0.0},
], ids=["fixed_design", "redraw_design", "mle"])
def test_failing_lanes_get_the_records_of_a_per_replicate_loop(overrides, monkeypatch):
    # A singular-block threshold just below the reference blocks' smallest
    # eigenvalue fails some replicates' blocks: their design's diagnostics
    # pass raises and is redone replicate by replicate.  Each replicate
    # draws its counts and then, in oracle mode, its expansion point, each
    # in one call from one seed.
    config = _small_config(replicates=30, **overrides)
    reports = run_experiment(config).condition_reports
    tol = 0.999 * min(report.lambda_min_C11 for report in reports.values())
    monkeypatch.setattr(signlasso.conditions, "SINGULAR_TOL", tol)
    calls = []

    def recorded(name, fn):
        def call(*args):
            calls.append((name, args[-1]))
            return fn(*args)
        return call

    monkeypatch.setattr(harness, "simulate", recorded("simulate", simulate))
    monkeypatch.setattr(harness, "oracle_perturbation",
                        recorded("oracle_perturbation", oracle_perturbation))
    records = run_experiment(config).records
    per_replicate = ["simulate"] + ["oracle_perturbation"] * (config.beta_tilde_mode != "mle")
    assert [name for name, _ in calls] == per_replicate * len(records)
    assert all(isinstance(seed, _SeedState) for _, seed in calls)
    assert list(records) == reference_records(config)
    singular = [rec for rec in records if rec.error.startswith("SingularBlockError: ")]
    assert 0 < len(singular) < sum(rec.ok for rec in records)


def test_every_generator_of_a_sweep_comes_from_a_seed_state(monkeypatch):
    # Each n's design, and each replicate's redrawn design, counts and
    # expansion point: every generator is default_rng of a _SeedState.
    seeds, rng = [], np.random.default_rng

    def default_rng(seed):
        seeds.append(seed)
        return rng(seed)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    config = _small_config(replicates=4, redraw_design=True)
    run_experiment(config)
    assert len(seeds) == len(config.n_grid) * (1 + 3 * config.replicates)
    assert all(isinstance(seed, _SeedState) for seed in seeds)


def test_a_replicate_whose_oracle_draw_raises_gets_its_own_failure_record(monkeypatch):
    # The draw fails on about a fifth of the prelim seeds, by a test that an
    # int seed and its _SeedState answer alike: exactly those replicates
    # fail, each with the message of its own draw.
    def unlucky(seed):
        return np.random.default_rng(seed).random() < 0.2

    def fussy(beta_star, n, scale, seed):
        if unlucky(seed):
            raise ValueError("an unlucky seed")
        return oracle_perturbation(beta_star, n, scale, seed)

    monkeypatch.setattr(harness, "oracle_perturbation", fussy)
    config = _small_config(replicates=30)
    records = run_experiment(config).records
    assert list(records) == reference_records(config)
    failed = {
        (rec.n, rec.replicate) for rec in records if rec.error == "ValueError: an unlucky seed"
    }
    expected = {
        (n, r) for n in config.n_grid for r in range(config.replicates)
        if unlucky(derive_seed(config.seed, 3, n, r))
    }
    assert 0 < len(failed) < len(records) and failed == expected


def test_a_lone_failing_pass_keeps_the_records_around_it():
    # The only queued replicate of a design has a singular active block
    # (two equal active columns); the failure records next to it stay.
    config = _small_config(replicates=3)
    n = 60
    solver = config.solver_config(n)
    per_n = _PerN(n, solver, config.beta_star.support, config.beta_star.signs())
    record = partial(ReplicateRecord, n=n, seed_used=0, alpha_n=solver.alpha)
    x = np.random.default_rng(3).standard_normal((n, 3))
    X = DesignMatrix(np.column_stack([x[:, 0], x[:, 0], x[:, 1:]]))
    problem = build_working_problem(X, config.beta_star, np.ones(n, dtype=np.int64))
    lane = _Queued(partial(record, replicate=1), blocked_gram(problem, config.beta_star.support),
                   sign_match=True, kkt_pass=True)
    before = record(replicate=0, ok=False, error="solver did not converge")
    after = record(replicate=2, ok=False, error="solver did not converge")
    records = _diagnosed(config, per_n, [before, lane, after])
    assert records[0] is before and records[2] is after
    assert records[1].replicate == 1 and not records[1].ok
    assert records[1].error.startswith("SingularBlockError: ")


def test_a_queued_replicate_keeps_no_working_problem(monkeypatch):
    # Each replicate's working problem is gone once its blocked Gram is
    # queued: before the next replicate draws its counts, and when its
    # design's one diagnostics pass runs.
    refs, passes = [], []

    def build(*args):
        problem = build_working_problem(*args)
        refs.append(weakref.ref(problem))
        return problem

    def all_dead():
        return all(ref() is None for ref in refs)

    def draw(*args):
        assert all_dead()
        return simulate(*args)

    def diagnose(bgs, *args):
        passes.append(len(bgs))
        assert all_dead()
        return proposition_diagnostics(bgs, *args)

    monkeypatch.setattr(harness, "build_working_problem", build)
    monkeypatch.setattr(harness, "simulate", draw)
    monkeypatch.setattr(harness, "proposition_diagnostics", diagnose)
    config = _small_config(replicates=10)
    assert all(rec.ok for rec in run_experiment(config).records)
    assert len(refs) == 20
    # One pass per design.
    assert passes == [10, 10]


def test_condition_reports_attached_per_n():
    config = _small_config(replicates=5)
    result = run_experiment(config)
    assert set(result.condition_reports) == {60, 120}
    for report in result.condition_reports.values():
        assert report.irrep_margin >= config.tau


# ---------------------------------------------------------------------------
# summaries and serialization
# ---------------------------------------------------------------------------


def test_summary_definitions():
    config = _small_config(replicates=30)
    result = run_experiment(config)
    for row in result.summary:
        ok = [rec for rec in result.records if rec.n == row.n and rec.ok]
        assert row.recovery_rate == pytest.approx(np.mean([r.sign_match for r in ok]))
        assert row.event_rate == pytest.approx(np.mean([r.An and r.Bn for r in ok]))
        assert row.failures == 0
        assert row.recovery_rate >= row.event_rate - 2.0 / np.sqrt(row.replicates)
    assert tuple(summarize_records(config, result.records)) == result.summary


def test_results_csv_has_one_row_per_replicate(tmp_path):
    config = _small_config(replicates=7)
    result = run_experiment(config)
    path = tmp_path / "results.csv"
    write_results_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(config.n_grid) * config.replicates


def _seeded_file_design(tmp_path):
    """A file design: 4000 x 6 standard normals, written with 17 digits so they parse back."""
    path = tmp_path / "X.csv"
    write_matrix_csv(path, np.random.default_rng(424242).standard_normal((4000, 6)))
    return DesignSpec(kind="file", path=str(path))


# sha256 of results.csv followed by summary.csv for reduced versions of the
# canonical acceptance sweep (oracle and MLE expansion points).  A faster
# replicate path must reproduce these bytes exactly: the counts, the signs of
# every fit and the event diagnostics all feed them.  In ``all_failed_3`` the
# solver gets one sweep, so every replicate fails: it pins the empty cells of
# results.csv and the nan rates of summary.csv.  ``redrawn_mle_10`` draws a
# design per replicate; ``file_10`` reads its design from a file, given as a
# function of the test's directory.
GOLDEN_DIGESTS = {
    "canonical_40": ("oracle:1.0", 0.67, 40,
                     "d4d8ce9519acc126b7dda649464260de0a51940132ac47511ac95c4bc0e0827a"),
    "mle_20": ("mle", 0.0, 20,
               "230828790516b49a73f85e8421f2f5f39cf267eee300c8a15e41c4c3ffd868b2"),
    "all_failed_3": ("oracle:1.0", 0.67, 3,
                     "8f4d5d277fc12306711974f48ba64a6ca56ff6f57c114485cfd705c73c433b47",
                     {"max_sweeps": 1}),
    "redrawn_mle_10": ("mle", 0.0, 10,
                       "a805a78cd8e9ba9bdd3138a3d23b1a1820bead7117bffaac8467348b6bf1aa2a",
                       {"design": DesignSpec(kind="iid_gaussian"), "redraw_design": True}),
    "file_10": ("oracle:1.0", 0.67, 10,
                "bd19bce8305b26aca856c9ef610dd4678a105db5c712465996951d059cced443",
                {"design": _seeded_file_design}),
}

# Ok replicates of each sweep above on which both An and Bn hold.
EVENTS_HELD = {"canonical_40": 85, "mle_20": 44, "all_failed_3": 0, "redrawn_mle_10": 17,
               "file_10": 18}


def _golden_sweep(name, tmp_path, **extra):
    """The result of sweep ``name`` with ``extra`` config fields, and its digest."""
    mode, tau, replicates, _, *overrides = GOLDEN_DIGESTS[name]
    overrides = {key: value(tmp_path) if callable(value) else value
                 for key, value in (overrides[0] if overrides else {}).items()}
    config = ExperimentConfig(**{
        "design": DesignSpec(kind="correlated_gaussian", rho=0.2, scale=1.0),
        "beta_star": CoefVector([1.0, -1.0, 0.0, 0.0, 0.0, 0.0]),
        "n_grid": (250, 1000, 4000),
        "c1": 1.0,
        "c2": 0.5,
        "alpha_coef": 1.0,
        "replicates": replicates,
        "seed": 20260811,
        "beta_tilde_mode": mode,
        "tau": tau,
        **overrides,
        **extra,
    })
    result = run_experiment(config)
    write_results_csv(result, tmp_path / "results.csv")
    write_summary_csv(result.summary, tmp_path / "summary.csv")
    h = hashlib.sha256()
    for artifact in ("results.csv", "summary.csv"):
        h.update((tmp_path / artifact).read_bytes())
    return result, h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_reduced_canonical_sweeps_keep_their_golden_digest(name, tmp_path):
    result, digest = _golden_sweep(name, tmp_path)
    # The paper's implication, per replicate: where An and Bn hold, the signs
    # are recovered; and the events do hold on the sweeps that have ok records.
    held = [rec for rec in result.records if rec.ok and rec.An and rec.Bn]
    assert [rec for rec in held if not rec.sign_match] == []
    assert len(held) == EVENTS_HELD[name]
    assert digest == GOLDEN_DIGESTS[name][3]


def test_a_file_design_is_read_once_per_n_also_under_redraw_design(tmp_path, monkeypatch):
    # A file design ignores its seed, so redraw_design leaves its sweep's
    # bytes as they are, and its file is parsed once per sweep, not per n or
    # per replicate.
    parsed = []

    def read(path):
        parsed.append(path)
        return read_matrix_csv(path)

    monkeypatch.setattr(harness, "read_matrix_csv", read)
    result, digest = _golden_sweep("file_10", tmp_path, redraw_design=True)
    assert len(result.config.n_grid) == 3 and len(parsed) == 1
    assert digest == GOLDEN_DIGESTS["file_10"][3]


def test_a_file_design_names_the_first_n_it_cannot_serve(tmp_path, monkeypatch):
    # Parsed once, a 100-row file serves n=60 and is refused at n=120, with
    # the message of a parse per n, before any replicate runs.
    parsed = []

    def read(path):
        parsed.append(path)
        return read_matrix_csv(path)

    def no_replicate(*args):
        raise AssertionError("a replicate ran")

    path = tmp_path / "X.csv"
    write_matrix_csv(path, np.random.default_rng(3).standard_normal((100, 4)))
    monkeypatch.setattr(harness, "read_matrix_csv", read)
    monkeypatch.setattr(harness, "simulate", no_replicate)
    config = _small_config(design=DesignSpec(kind="file", path=str(path)),
                           n_grid=(60, 120, 240), tau=0.0)
    with pytest.raises(ConfigError) as info:
        run_experiment(config)
    assert str(info.value) == (
        f"design.path: design file {path} has shape (100, 4), "
        "need at least 120 rows and exactly 4 columns"
    )
    assert parsed == [str(path)]
