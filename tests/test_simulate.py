import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import spoc.simulate
from spoc import (
    BlowUpError,
    ConfigError,
    InitialCondition,
    InvalidScheduleError,
    ModelSpec,
    RunFormatError,
    SimConfig,
    UpdateSchedule,
    batch_spoc_run,
    builtin_model,
    classical_poc_run,
    coupled_spoc_run,
    load_run,
    moment,
    reference_run,
    save_run,
    spoc_run,
)
from spoc.cli import dispatch
from spoc.rng import BlockStream, block_width, replication_stream
from spoc.simulate import MomentView, _em_step, _versions


def ou_config(**kw):
    base = dict(
        model=builtin_model("mean_field_ou"),
        schedule=UpdateSchedule.harmonic(10**6),
        initial=InitialCondition.point(1.0),
        T=1.0,
        M=30,
        N=400,
        seed=101,
        replications=2,
        milestones=(50, 400),
        measure_backend="full_atoms",
    )
    base.update(kw)
    return SimConfig(**base)


# deterministic pure-drift model: dX = -X dt (no noise, no interaction)
def _decay_drift(t, x, view):
    return -x


def _zero_diffusion(t, x, view):
    return 0.0


def decay_model():
    return ModelSpec(
        name="pure_decay",
        dim=1,
        drift=_decay_drift,
        diffusion=_zero_diffusion,
        interaction_form="moment_only",
        noise_form="measure_free",
    )


# OU expressed through the full measure, for backend cross-validation
def _ou_full_drift(t, x, view):
    mean = view.weights @ view.atoms
    return -2.0 * x - mean


def _ou_full_diffusion(t, x, view):
    second = float(view.weights @ np.sum(view.atoms**2, axis=1))
    return 2.0 - np.sqrt(second)


def ou_full_measure_model():
    return ModelSpec(
        name="ou_full",
        dim=1,
        drift=_ou_full_drift,
        diffusion=_ou_full_diffusion,
        interaction_form="full_measure",
        noise_form="measure_dependent",
    )


# -- config validation ----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        ou_config(T=-1.0)
    with pytest.raises(ConfigError):
        ou_config(checkpoints=(0.513,))  # not a grid time
    with pytest.raises(ConfigError):
        ou_config(milestones=(500,))  # beyond N
    with pytest.raises(ConfigError):
        ou_config(batch_sizes=(100, 100))  # does not sum to N
    with pytest.raises(ConfigError):
        SimConfig(
            model=ou_full_measure_model(),
            schedule=UpdateSchedule.harmonic(100),
            initial=InitialCondition.point(1.0),
            T=1.0, M=10, N=10, seed=1,
            measure_backend="summary_only",
        )


def test_only_runs_that_read_rates_check_the_schedule():
    cfg = ou_config(N=60, milestones=(60,), schedule=UpdateSchedule.explicit([1.0, 0.5]))
    classical_poc_run(cfg)
    reference_run(cfg.model, cfg)
    for run, c in ((spoc_run, cfg), (coupled_spoc_run, cfg),
                   (batch_spoc_run, replace(cfg, batch_sizes=(30, 30)))):
        with pytest.raises(InvalidScheduleError, match="N = 60"):
            run(c)


def test_config_dict_round_trip():
    # milestones on batch boundaries: SimConfig rejects any others
    cfg = ou_config(batch_sizes=(200, 200), milestones=(200, 400), store_paths=True)
    back = SimConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


# -- degenerate and closed-form runs ----------------------------------------------


def test_single_particle_run_is_frozen_dirac():
    cfg = ou_config(N=1, milestones=(1,), replications=1, checkpoints=(0.0, 0.5, 1.0))
    res = spoc_run(cfg)
    for mi in cfg.checkpoint_indices:
        snap = res.snapshots[(0, 1, mi)]
        assert snap.n_atoms == 1
        assert snap.atoms[0, 0] == 1.0
        assert snap.weights[0] == 1.0


def test_pure_decay_follows_euler_iterate_exactly():
    cfg = SimConfig(
        model=decay_model(),
        schedule=UpdateSchedule.harmonic(100),
        initial=InitialCondition.point(1.0),
        T=1.0, M=20, N=5, seed=3, replications=1,
        milestones=(5,), store_paths=True,
    )
    res = spoc_run(cfg)
    dt = cfg.dt
    # emulate the driver's update expression: x + (-x)*dt + 0
    x = 1.0
    expect = [x]
    for _ in range(20):
        x = x + (-x) * dt + 0.0
        expect.append(x)
    for n in range(1, 5):  # particle 1 frozen; the rest follow the iterate
        got = res.paths[0, n, :, 0]
        assert np.array_equal(got, np.asarray(expect))
    assert np.array_equal(res.paths[0, 0, :, 0], np.ones(21))


def test_ou_mean_against_moment_ode():
    cfg = ou_config(N=4000, milestones=(4000,), replications=4,
                    measure_backend="summary_only")
    res = spoc_run(cfg)
    m = res.mean_traj[:, 0, -1, 0].mean()
    # Euler bias at M=30 is ~0.007; MC noise at N=4000 x 4 reps ~0.006
    assert abs(m - np.exp(-3.0)) < 0.03


# -- anytime / determinism ---------------------------------------------------------


def test_anytime_milestones_match_shorter_runs():
    long = spoc_run(ou_config())
    short = spoc_run(ou_config(N=50, milestones=(50,)))
    for r in range(2):
        for mi in (30,):
            a = long.snapshots[(r, 50, mi)]
            b = short.snapshots[(r, 50, mi)]
            assert np.array_equal(a.atoms, b.atoms)
            assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(long.mean_traj[:, 0], short.mean_traj[:, 0])
    # a coupled run, at milestones that end a store gather (32 paths) and a
    # noise take (136 particles at M = 30, R = 2): its gaps are those of a run
    # that stops there
    long = coupled_spoc_run(ou_config(milestones=(64, 136, 400)))
    for l, n in enumerate((64, 136)):
        short = coupled_spoc_run(ou_config(N=n, milestones=(n,)))
        assert np.array_equal(long.gap_kn[:, l], short.gap_kn[:, 0])
        assert np.array_equal(long.gap_at_milestone[:, l], short.gap_at_milestone[:, 0])
        assert np.array_equal(long.run.mean_traj[:, l], short.run.mean_traj[:, 0])


def test_wavefront_peak_memory_is_its_rings_and_one_take():
    # the wavefront holds its path ring, its increment ring and one noise take;
    # the rest (lanes, index arrays) stays under 1 MiB here, so a copy of the
    # path ring or a second take alive at once (about 1.7 and 1.3 MiB) shows
    cfg = SimConfig(model=builtin_model("repulsive3d"), schedule=UpdateSchedule.harmonic(10**6),
                    initial=InitialCondition.point([1.0, 0.0, 0.0]), T=1.2, M=120, N=600,
                    seed=1, replications=4, milestones=(600,), measure_backend="summary_only")
    spoc_run(cfg)  # the first run allocates what every later one reuses
    tracemalloc.start()
    try:
        spoc_run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    M, R, dim = cfg.M, cfg.replications, 3
    width = block_width(dim, M, False, False)
    C = max(M + 1, spoc.simulate._TAKE_BYTES // (8 * width * R))
    rings = 8 * R * dim * ((M + spoc.simulate._STORE_BLOCK) * (M + 1) + (C + M) * M)
    assert peak <= rings + 8 * R * C * width + 2**20


def test_block_stream_is_take_size_invariant():
    # blocks depend only on their position in the stream, not on the take sizes
    a = BlockStream(replication_stream(7, 3), 20).take(5000)
    s = BlockStream(replication_stream(7, 3), 20)
    b = np.concatenate([s.take(n) for n in (1, 20, 999, 7, 3973)])
    assert np.array_equal(a, b)


def test_worker_count_invariance():
    cfg = ou_config(replications=4)
    r1 = spoc_run(cfg, workers=1)
    r4 = spoc_run(cfg, workers=4)
    assert np.array_equal(r1.mean_traj, r4.mean_traj)
    assert np.array_equal(r1.second_traj, r4.second_traj)
    assert sorted(r1.snapshots) == sorted(r4.snapshots)
    for k in r1.snapshots:
        assert np.array_equal(r1.snapshots[k].atoms, r4.snapshots[k].atoms)


def _run_arrays(run):
    out = {"mean_traj": run.mean_traj, "second_traj": run.second_traj, "paths": run.paths}
    for k, snap in run.snapshots.items():
        out[("atoms", *k)], out[("weights", *k)] = snap.atoms, snap.weights
    return out


def _coupled_outputs(workers):
    res = coupled_spoc_run(ou_config(N=40, M=6, replications=3, milestones=(10, 40)),
                           workers=workers)
    return {"gap_kn": res.gap_kn, "gap_at_milestone": res.gap_at_milestone}


def _batch_outputs(workers):
    cfg = ou_config(N=40, M=6, replications=3, batch_sizes=(1, 9, 30), milestones=(10, 40),
                    store_paths=True)
    return _run_arrays(batch_spoc_run(cfg, workers=workers))


def _classical_outputs(workers):
    cfg = ou_config(N=30, M=6, replications=3, milestones=(30,), checkpoints=(0.5, 1.0))
    return _run_arrays(classical_poc_run(cfg, workers=workers))


@pytest.mark.parametrize("outputs", [_coupled_outputs, _batch_outputs, _classical_outputs],
                         ids=lambda f: f.__name__)
def test_chunk_merge_is_worker_count_invariant(outputs):
    one, two = outputs(1), outputs(2)
    assert one.keys() == two.keys()
    for k in one:
        assert np.array_equal(one[k], two[k]), k


def test_backends_agree_exactly_for_moment_models():
    fa = spoc_run(ou_config())
    so = spoc_run(ou_config(measure_backend="summary_only"))
    assert np.array_equal(fa.mean_traj, so.mean_traj)
    assert np.array_equal(fa.second_traj, so.second_traj)
    # snapshot summary equals the atom snapshot's statistics
    snap = fa.snapshots[(0, 400, 30)]
    summ = so.snapshots[(0, 400, 30)]
    assert np.allclose(moment(snap, 1), summ.mean, atol=1e-10)
    assert abs(moment(snap, 2) - summ.raw_second_moment) < 1e-10


# -- batch runs -----------------------------------------------------------------------


def test_batch_all_ones_bit_identical_to_sequential():
    # all-ones batches run the particle-by-particle driver.  The inputs sit on
    # the wavefront's block edges: noise takes of C particles (136 at M = 30,
    # R = 2 with a point initial; 88 with the gaussian one at R = 3), store
    # gathers of B = 32 finished paths and a path ring of M + B rows.
    cases = [
        {},  # N = 400: N % C and N % B are not 0
        {"N": 20, "milestones": (5, 20), "store_paths": True},  # N < B
        {"N": 20, "milestones": (20,), "measure_backend": "summary_only"},
        {"N": 33, "milestones": (32, 33)},  # N = B + 1: one path in the last gather
        {"M": 40, "N": 150, "milestones": (50, 150), "store_paths": True,
         "measure_backend": "summary_only"},  # M > B: the path ring wraps
        {"N": 181, "replications": 3, "initial": InitialCondition.gaussian(0.0, 1.0),
         "milestones": (88, 181), "store_paths": True},  # N = 2C + 5
    ]
    for kw in cases:
        seq = spoc_run(ou_config(**kw))
        bat = batch_spoc_run(ou_config(batch_sizes=(1,) * seq.config.N, **kw))
        assert np.array_equal(seq.mean_traj, bat.mean_traj)
        assert np.array_equal(seq.second_traj, bat.second_traj)
        if seq.config.store_paths:
            assert np.array_equal(seq.paths, bat.paths)
        if seq.config.measure_backend == "full_atoms":
            for k in seq.snapshots:
                assert np.array_equal(seq.snapshots[k].atoms, bat.snapshots[k].atoms)
                assert np.array_equal(seq.snapshots[k].weights, bat.snapshots[k].weights)


def test_batch_two_batches_snapshot_weights():
    sched = UpdateSchedule.power_law(0.5, 100)
    cfg = ou_config(N=4, batch_sizes=(2, 2), milestones=(2, 4), schedule=sched,
                    replications=1)
    res = batch_spoc_run(cfg)
    snap = res.snapshots[(0, 4, 30)]
    a2 = 2.0**-0.5
    want = np.array([(1 - a2) / 2, (1 - a2) / 2, a2 / 2, a2 / 2])
    assert np.allclose(np.sort(snap.weights), np.sort(want), rtol=1e-12)


@pytest.mark.parametrize("batch_sizes, initial", [
    ((1, 3, 6, 20, 30), InitialCondition.point(1.0)),
    ((6, 24, 30), InitialCondition.gaussian(0.0, 1.0)),
], ids=["point_unit_first_batch", "gaussian_first_batch_of_six"])
def test_batch_moments_are_the_snapshot_moments(batch_sizes, initial):
    # the folded moments are those of the measure the snapshot weighs: each
    # batch enters with its empirical mean and its mean of |x|^2
    milestones = tuple(np.cumsum(batch_sizes).tolist())
    cfg = ou_config(N=60, batch_sizes=batch_sizes, milestones=milestones, seed=3,
                    initial=initial)
    res = batch_spoc_run(cfg)
    for r in range(cfg.replications):
        for l, n in enumerate(cfg.milestones):
            snap = res.snapshots[(r, n, 30)]
            assert np.allclose(res.mean_traj[r, l, -1], moment(snap, 1), rtol=0, atol=1e-10)
            assert abs(res.second_traj[r, l, -1] - moment(snap, 2)) <= 1e-10


def test_batch_milestones_must_align(tmp_path, capsys):
    # the config rejects them, before any run or worker process starts
    with pytest.raises(ConfigError) as exc_info:
        ou_config(N=4, batch_sizes=(2, 2), milestones=(3,))
    assert exc_info.value.key == "milestones"
    with pytest.raises(ConfigError) as exc_info:
        ou_config(N=20, batch_sizes=(5, 15), milestones=(7, 20))
    assert exc_info.value.key == "milestones" and "[7]" in str(exc_info.value)
    assert ou_config(N=20, batch_sizes=(5, 15), milestones=(5, 20)).milestones == (5, 20)
    cfg = {**ou_config(N=20, milestones=(20,)).to_dict(), "algorithm": "batch_spoc",
           "batch_sizes": [5, 15], "milestones": [7, 20]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]
    assert dispatch(argv + ["--workers", "2"]) == 2
    assert "[milestones]" in capsys.readouterr().err
    assert not out.exists()


def test_single_batch_is_frozen_initial_sample():
    # one batch with alpha_1 = 1: the measure is the frozen initial empirical
    cfg = ou_config(N=8, batch_sizes=(8,), milestones=(8,), replications=1,
                    checkpoints=(0.0, 1.0),
                    initial=InitialCondition.gaussian(0.0, 1.0))
    res = batch_spoc_run(cfg)
    snap0 = res.snapshots[(0, 8, 0)]
    snapT = res.snapshots[(0, 8, 30)]
    assert np.array_equal(snap0.atoms, snapT.atoms)  # paths frozen at t=0 values
    assert np.allclose(snapT.weights, 1.0 / 8)


# -- classical runs ---------------------------------------------------------------------


def test_classical_single_particle_sees_itself():
    cfg = ou_config(N=1, milestones=(1,), replications=1)
    res = classical_poc_run(cfg)
    snap = res.snapshots[(0, 1, 30)]
    assert snap.n_atoms == 1
    # decoupled dynamics: drift -2x - x = -3x, sigma = 2 - |x|
    assert res.mean_traj.shape == (1, 1, 1, 1)


def test_classical_close_to_sequential_at_matched_budget():
    cfg = ou_config(N=4000, milestones=(4000,), replications=4,
                    measure_backend="summary_only")
    seq = spoc_run(cfg)
    cls = classical_poc_run(cfg)
    gap = abs(seq.mean_traj[:, 0, -1, 0].mean() - cls.mean_traj[:, 0, -1, 0].mean())
    assert gap < 0.05


# -- full-measure interaction ------------------------------------------------------------


def test_full_measure_model_matches_moment_backend():
    kw = dict(
        schedule=UpdateSchedule.harmonic(1000),
        initial=InitialCondition.point(1.0),
        T=0.5, M=10, N=60, seed=9, replications=1, milestones=(60,),
        measure_backend="full_atoms",
    )
    res_full = spoc_run(SimConfig(model=ou_full_measure_model(), **kw))
    res_mom = spoc_run(SimConfig(model=builtin_model("mean_field_ou"), **kw))
    # same dynamics expressed through atoms vs through running summaries
    assert np.allclose(res_full.mean_traj, res_mom.mean_traj, atol=1e-9)
    assert np.allclose(res_full.second_traj, res_mom.second_traj, atol=1e-9)


# -- time-dependent coefficients against a plain per-particle recursion ---------------------


# polynomial in t only, so scalar and array t give the same floating-point results
def _clock_drift(t, x, view):
    return -x + 0.3 * t - 0.5 * view.mean + 0.1 * t * view.raw_second_moment[..., None]


def _clock_diffusion(t, x, view):
    return 0.4 + 0.2 * t


def clock_model():
    return ModelSpec(name="clock", dim=1, drift=_clock_drift, diffusion=_clock_diffusion,
                     interaction_form="moment_only", noise_form="measure_dependent")


def per_particle_reference(cfg):
    """The sequential recursion written plainly: a particle loop, then a step
    loop, with a scalar t.  Returns the grid moments after each particle and
    the paths, shaped like RunResult.paths."""
    model, init, M, N, dt = cfg.model, cfg.initial, cfg.M, cfg.N, cfg.dt
    R, dim = cfg.replications, model.dim
    alphas = cfg.schedule.alphas(N)
    x0_off = dim if init.needs_noise else 0
    width = block_width(dim, M, init.needs_noise, False)
    streams = [BlockStream(replication_stream(cfg.seed, r), width) for r in range(R)]
    mean, second = np.zeros((M + 1, R, dim)), np.zeros((M + 1, R))
    moments, paths = {}, np.zeros((R, N, M + 1, dim))
    for k in range(N):
        block = np.stack([s.take(1)[0] for s in streams])  # (R, width)
        dw = block[:, x0_off:].reshape(R, M, dim) * np.sqrt(dt)
        path = np.empty((M + 1, R, dim))
        path[0] = x = init.from_block(block[:, :x0_off], dim)
        for j in range(M):
            if k > 0:  # particle 1 stays at its initial value
                view = MomentView(mean[j], second[j])
                x = _em_step(model, float(j * dt), x, view, dw[:, j], None, dt)
            path[j + 1] = x
        a = alphas[k]
        for state, value in ((mean, path), (second, np.sum(path**2, axis=2))):
            state[...] = value if a == 1.0 else state + a * (value - state)
        paths[:, k] = path.transpose(1, 0, 2)
        moments[k + 1] = (mean.copy(), second.copy())
    return moments, paths


@pytest.mark.parametrize("backend", ["summary_only", "full_atoms"])
def test_time_dependent_model_matches_per_particle_recursion(backend):
    cfg = ou_config(model=clock_model(), initial=InitialCondition.gaussian(0.3, 0.7),
                    M=7, N=25, milestones=(1, 4, 25), checkpoints=(0.0, 3 / 7, 1.0),
                    replications=3, measure_backend=backend,
                    store_paths=backend == "full_atoms")
    res = spoc_run(cfg)
    moments, paths = per_particle_reference(cfg)
    cp = list(cfg.checkpoint_indices)
    for l, n in enumerate(cfg.milestones):
        mean, second = moments[n]
        assert np.array_equal(res.mean_traj[:, l], mean[cp].transpose(1, 0, 2))
        assert np.array_equal(res.second_traj[:, l], second[cp].T)
        for r in range(3):
            for ci, mi in enumerate(cp):
                snap = res.snapshots[(r, n, mi)]
                if backend == "full_atoms":
                    assert np.array_equal(snap.atoms, paths[r, :n, mi])
                else:
                    assert np.array_equal(snap.mean, mean[mi, r])
                    assert snap.raw_second_moment == second[mi, r]
    if backend == "full_atoms":
        assert np.array_equal(res.paths, paths)


# -- reference and coupled runs ------------------------------------------------------------


def test_reference_moment_closure_ou():
    cfg = ou_config(N=100, milestones=(100,), replications=1)
    ref = reference_run(cfg.model, cfg, n_ref=50)
    assert ref.kind == "moment_closure"
    # mean ODE dm/dt = -3m solved to 1e-8 at dt/10
    assert abs(ref.mean[-1, 0] - np.exp(-3.0)) < 1e-8
    t_fine = ref.fine_times
    assert np.max(np.abs(ref.fine_mean[:, 0] - np.exp(-3.0 * t_fine))) < 1e-8
    # invariant point (0, 4/9): residual of the second-moment equation vanishes
    s_dot = -4 * (4 / 9) - 0.0 + (2 - np.sqrt(4 / 9)) ** 2
    assert abs(s_dot) < 1e-12
    # long-run ODE settles at the invariant point
    cfg_long = ou_config(N=100, milestones=(100,), T=8.0, M=240, replications=1)
    ref_long = reference_run(cfg_long.model, cfg_long, n_ref=10)
    assert abs(ref_long.mean[-1, 0]) < 1e-8
    assert abs(ref_long.second[-1] - 4.0 / 9.0) < 1e-6
    assert ref.samples[30].n_atoms == 50


def test_reference_surrogate_for_models_without_closure():
    cfg = ou_config(model=builtin_model("curie_weiss"), N=50, milestones=(50,),
                    replications=1)
    ref = reference_run(cfg.model, cfg, n_ref=200)
    assert ref.kind == "surrogate_classical"
    assert ref.n_ref == 200
    assert ref.samples[30].n_atoms == 200


def test_surrogate_reference_runs_the_model_it_is_given():
    curie_weiss = builtin_model("curie_weiss")
    cfg = ou_config(N=20, M=6, replications=3, milestones=(20,))
    ref = reference_run(curie_weiss, cfg, n_ref=60)
    same = reference_run(curie_weiss, replace(cfg, model=curie_weiss), n_ref=60)
    assert ref.kind == same.kind == "surrogate_classical"
    assert np.array_equal(ref.mean, same.mean)
    assert np.array_equal(ref.second, same.second)
    assert ref.samples.keys() == same.samples.keys()
    for mi, mu in ref.samples.items():
        assert np.array_equal(mu.atoms, same.samples[mi].atoms)
        assert np.array_equal(mu.weights, same.samples[mi].weights)


def test_surrogate_reference_refuses_to_drop_paths():
    cfg = ou_config(model=builtin_model("curie_weiss"), N=50, milestones=(50,),
                    replications=1)
    with pytest.raises(ConfigError) as exc_info:
        reference_run(cfg.model, cfg, n_ref=200, store_paths=True)
    assert exc_info.value.key == "store_paths"


def test_coupled_gap_zero_for_measure_free_dynamics():
    cfg = SimConfig(
        model=ModelSpec(
            name="decay_with_ode",
            dim=1,
            drift=_decay_drift,
            diffusion=_zero_diffusion,
            interaction_form="moment_only",
            noise_form="measure_free",
            moment_ode=lambda t, m, s: (-m, -2.0 * s),
        ),
        schedule=UpdateSchedule.harmonic(100),
        initial=InitialCondition.gaussian(0.0, 1.0),
        T=1.0, M=10, N=40, seed=5, replications=2, milestones=(10, 40),
    )
    cop = coupled_spoc_run(cfg)
    assert np.all(cop.gap_kn == 0.0)
    assert np.all(cop.gap_at_milestone == 0.0)


def test_coupled_gap_decreases_for_ou():
    cfg = ou_config(N=2000, milestones=(1, 100, 2000), replications=4,
                    measure_backend="summary_only")
    cop = coupled_spoc_run(cfg)
    kn = cop.gap_kn.mean(axis=0)
    assert kn[0] == 0.0  # frozen pair at n = 1
    assert kn[2] < kn[1]
    assert np.all(cop.gap_kn >= 0.0)


def test_coupled_requires_moment_ode():
    cfg = ou_config(model=builtin_model("curie_weiss"), N=50, milestones=(50,))
    with pytest.raises(ConfigError):
        coupled_spoc_run(cfg)


# -- schedules with measure resets ----------------------------------------------------------


def test_explicit_unit_tail_resets_measure():
    sched = UpdateSchedule.explicit([1.0, 1.0, 0.5])
    cfg = ou_config(N=3, schedule=sched, milestones=(3,), replications=1)
    res = spoc_run(cfg)
    snap = res.snapshots[(0, 3, 30)]
    # particle 1 got weight zero at the alpha_2 = 1 reset and was pruned
    assert snap.n_atoms == 2
    assert np.allclose(np.sort(snap.weights), [0.5, 0.5])


# -- blow-up ---------------------------------------------------------------------------------


def test_blowup_reports_context():
    cfg = ou_config(
        model=builtin_model("curie_weiss", {"beta": 1.0, "K": 0.5, "sigma": 1.0}),
        initial=InitialCondition.point(50.0),  # cubic drift explodes at this dt
        N=10, milestones=(10,), replications=1,
    )
    with pytest.raises(BlowUpError) as exc_info:
        spoc_run(cfg)
    err = exc_info.value
    assert (err.particle, err.step, err.replication) == (2, 2, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_reference_names_itself():
    # OU at dt = 100: the moment ODE and its decoupled paths both diverge
    cfg = ou_config(T=20000.0, M=200, N=50, milestones=(10, 20, 50), replications=1)
    with pytest.raises(BlowUpError, match="^moment-closure reference: particle 1 ") as exc_info:
        reference_run(cfg.model, cfg)
    err = exc_info.value
    assert (err.particle, err.step, err.replication) == (1, 2, 0)


def test_blowup_reports_lowest_particle_across_replications():
    # a wide gaussian initial: the first particle to diverge is a late one, in
    # the second replication
    cfg = ou_config(
        model=builtin_model("curie_weiss", {"beta": 1.0, "K": 0.5, "sigma": 1.0}),
        initial=InitialCondition.gaussian(0.0, 2.5),
        N=200, milestones=(200,), replications=2,
    )
    with pytest.raises(BlowUpError) as exc_info:
        spoc_run(cfg)
    err = exc_info.value
    assert (err.particle, err.step, err.replication) == (110, 5, 1)


# cubic blow-up model: dX = 50 X^3 dt, no noise and no interaction, so each
# particle follows its own deterministic Euler iterate until it overflows
def _cubic_drift(t, x, view):
    return 50.0 * x**3


def cubic_config(**kw):
    model = ModelSpec(name="cubic", dim=1, drift=_cubic_drift, diffusion=_zero_diffusion,
                      interaction_form="moment_only", noise_form="measure_free")
    base = dict(model=model, initial=InitialCondition.gaussian(0.0, 0.2), M=20, N=50,
                milestones=(50,))
    return ou_config(**{**base, **kw})


def test_batch_blowup_names_the_failing_particle():
    cfg = cubic_config(seed=1, batch_sizes=(1, 49), replications=1)
    with pytest.raises(BlowUpError) as exc_info:
        batch_spoc_run(cfg)
    err = exc_info.value
    # the lowest particle of the second batch that is out of range at the first bad step
    width = block_width(1, cfg.M, True, False)
    x = 0.2 * BlockStream(replication_stream(1, 0), width).take(cfg.N)[1:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, cfg.M + 1):
            x = x + 50.0 * x**3 * cfg.dt
            if not np.all(np.abs(x) <= 1e8):
                break
    assert (err.particle, err.step) == (2 + int(np.argmin(np.abs(x) <= 1e8)), m)
    assert (err.particle, err.step, err.replication) == (10, 5, 0)


@pytest.mark.parametrize("workers", [1, 2])
def test_classical_blowup_reports_context(workers):
    # two workers raise what one raises: the earliest (step, replication, particle)
    with pytest.raises(BlowUpError) as exc_info:
        classical_poc_run(cubic_config(seed=4, replications=2), workers=workers)
    err = exc_info.value
    assert (err.particle, err.step, err.replication) == (18, 5, 1)


def _blowup_context(run, cfg, workers=1):
    with pytest.raises(BlowUpError) as exc_info:
        run(cfg, workers=workers)
    err = exc_info.value
    return err.particle, err.step, err.replication


# with std 0.1 and seeds 3, 35 and 76, a higher particle of another replication
# leaves the range on an earlier wave than the lowest bad particle
@pytest.mark.parametrize("run, seed, kw", [
    (spoc_run, 4, dict(initial=InitialCondition.gaussian(0.0, 0.15))),
    (spoc_run, 3, dict(initial=InitialCondition.gaussian(0.0, 0.1))),
    (spoc_run, 35, dict(initial=InitialCondition.gaussian(0.0, 0.1))),
    (spoc_run, 76, dict(initial=InitialCondition.gaussian(0.0, 0.1))),
    (batch_spoc_run, 4, dict(batch_sizes=(1, 9, 15, 25))),
], ids=["wavefront", "wavefront_seed3", "wavefront_seed35", "wavefront_seed76", "batch"])
def test_blowup_context_is_worker_count_invariant(run, seed, kw):
    cfg = cubic_config(seed=seed, replications=4, **kw)
    contexts = [_blowup_context(run, cfg, workers) for workers in (1, 2)]
    if run is spoc_run:  # the particle-by-particle run names the same cell
        contexts.append(_blowup_context(batch_spoc_run, replace(cfg, batch_sizes=(1,) * cfg.N)))
    assert len(set(contexts)) == 1


def _cubic_bad_steps(cfg, replication=0):
    """First step at which each particle's deterministic cubic iterate is out
    of range (0 where it never is); particle 1 is frozen, so it reads 0."""
    width = block_width(1, cfg.M, True, False)
    x = 0.2 * BlockStream(replication_stream(cfg.seed, replication), width).take(cfg.N)[:, 0]
    steps = np.zeros(cfg.N, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, cfg.M + 1):
            x = x + 50.0 * x**3 * cfg.dt
            steps[(steps == 0) & ~(np.abs(x) <= 1e8)] = m
    steps[0] = 0
    return steps


def test_wavefront_blowup_waits_for_a_lower_particle_that_diverges_later():
    cfg = cubic_config(seed=139, replications=1)
    steps = _cubic_bad_steps(cfg)
    bad = np.flatnonzero(steps)
    # cell (k, j) is written on wave k + j - 1 (k 0-based): a higher particle
    # goes out of range on an earlier wave than the lowest one
    waves = bad + steps[bad] - 1
    assert waves[1:].min() < waves[0]
    with pytest.raises(BlowUpError) as exc_info:
        spoc_run(cfg)
    err = exc_info.value
    assert (err.particle, err.step) == (bad[0] + 1, steps[bad[0]])
    assert (err.particle, err.step, err.replication) == (6, 20, 0)


def test_wavefront_blowup_of_the_last_particle_in_the_tail_waves():
    cfg = cubic_config(seed=139, replications=1, N=6, milestones=(6,))
    steps = _cubic_bad_steps(cfg)
    # only particle N goes out of range, on a wave after the last one that
    # starts a particle
    assert np.flatnonzero(steps).tolist() == [cfg.N - 1]
    assert cfg.N - 1 + steps[-1] - 1 >= cfg.N
    with pytest.raises(BlowUpError) as exc_info:
        spoc_run(cfg)
    err = exc_info.value
    assert (err.particle, err.step, err.replication) == (6, 20, 0)


@pytest.mark.parametrize("run, backend", [
    (spoc_run, "full_atoms"), (spoc_run, "summary_only"), (coupled_spoc_run, "summary_only"),
], ids=["full_atoms", "summary", "coupled"])
def test_wavefront_blowup_at_the_initial_point(run, backend):
    # particle 1 never moves and is not checked; particle 2 is out of range at t_0
    cfg = ou_config(initial=InitialCondition.point(1e9), N=10, milestones=(10,),
                    replications=3, measure_backend=backend)
    with pytest.raises(BlowUpError) as exc_info:
        run(cfg)
    err = exc_info.value
    assert (err.particle, err.step, err.replication) == (2, 0, 0)


def test_wavefront_run_with_only_the_frozen_particle_out_of_range(monkeypatch):
    # particle 1 starts beyond the range and never moves, every other particle
    # stays in it: the detector fires, the rerun finds no bad path and returns
    cfg = ou_config(model=decay_model(), initial=InitialCondition.gaussian(0.0, 1e8 / 1.2),
                    N=8, M=6, replications=2, seed=85, milestones=(8,), store_paths=True)
    chunk, passes = spoc.simulate._wavefront_chunk, []

    def spy(*args, **kw):
        passes.append(kw.get("check_paths", False))
        return chunk(*args, **kw)

    monkeypatch.setattr(spoc.simulate, "_wavefront_chunk", spy)
    res = spoc_run(cfg)
    assert passes == [False, True]
    assert not np.abs(res.paths[:, 0]).max() <= 1e8
    assert np.abs(res.paths[:, 1:]).max() <= 1e8
    ones = batch_spoc_run(replace(cfg, batch_sizes=(1,) * cfg.N))
    assert _run_arrays(res).keys() == _run_arrays(ones).keys()
    for key, value in _run_arrays(res).items():
        assert np.array_equal(value, _run_arrays(ones)[key]), key


# -- persistence -----------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    cfg = ou_config(N=50, milestones=(10, 50), replications=2, store_paths=True,
                    checkpoints=(0.5, 1.0))
    res = spoc_run(cfg)
    save_run(res, tmp_path / "run")
    back = load_run(tmp_path / "run")
    assert back.algorithm == "spoc"
    assert back.milestones == res.milestones
    assert np.array_equal(back.mean_traj, res.mean_traj)
    assert np.array_equal(back.second_traj, res.second_traj)
    assert np.array_equal(back.paths, res.paths)
    for k, v in res.snapshots.items():
        assert np.array_equal(back.snapshots[k].atoms, v.atoms)
        assert np.array_equal(back.snapshots[k].weights, v.weights)
    # one atom store, every grid column of it, in one file
    assert back.atoms is back.paths and back.paths.shape == (2, 50, 31, 1)
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["atoms.bin",
                                                                      "manifest.json",
                                                                      "summary.csv"]


def test_snapshot_weights_round_trip_bit_for_bit(tmp_path):
    # harmonic weights at these counts sum to 1 only up to an ulp, so a loader
    # that renormalized them would move some of their bits
    cfg = ou_config(N=30, M=2, milestones=(3, 5, 6, 7, 30), replications=1)
    res = spoc_run(cfg)
    save_run(res, tmp_path / "run")
    back = load_run(tmp_path / "run")
    for k, snap in res.snapshots.items():
        assert np.array_equal(back.snapshots[k].weights, snap.weights)


_ROUND_TRIP_RUNS = {
    "wavefront": lambda: spoc_run(ou_config(N=120, M=6, milestones=(7, 60, 120),
                                            checkpoints=(0.0, 0.5, 1.0))),
    "batch_uneven": lambda: batch_spoc_run(ou_config(N=120, M=6, batch_sizes=(1, 5, 14, 100),
                                                     milestones=(6, 20, 120))),
    "classical_full_atoms": lambda: classical_poc_run(ou_config(N=80, M=6, milestones=(80,),
                                                                checkpoints=(0.5, 1.0))),
    "workers_2": lambda: spoc_run(ou_config(N=90, M=6, replications=3, milestones=(30, 90)),
                                  workers=2),
    "wavefront_paths": lambda: spoc_run(ou_config(N=60, M=6, milestones=(7, 60),
                                                  checkpoints=(0.5, 1.0), store_paths=True)),
    "batch_paths": lambda: batch_spoc_run(ou_config(N=60, M=6, batch_sizes=(1, 9, 50),
                                                    milestones=(10, 60), store_paths=True)),
    "full_measure_paths": lambda: spoc_run(ou_config(model=ou_full_measure_model(), N=30, M=5,
                                                     milestones=(10, 30), checkpoints=(0.4, 1.0),
                                                     store_paths=True)),
    "classical_paths": lambda: classical_poc_run(ou_config(N=40, M=6, milestones=(40,),
                                                           checkpoints=(0.5,), store_paths=True)),
}


@pytest.mark.parametrize("case", sorted(_ROUND_TRIP_RUNS))
def test_round_trip_snapshots_bit_for_bit(tmp_path, monkeypatch, case):
    res = _ROUND_TRIP_RUNS[case]()
    expected = res
    if case == "workers_2":
        expected = spoc_run(res.config, workers=1)
    if res.config.model.name == "ou_full":  # load_run rebuilds builtin models only
        monkeypatch.setattr(ModelSpec, "from_dict",
                            classmethod(lambda cls, d: ou_full_measure_model()))
    save_run(res, tmp_path / "run")
    back = load_run(tmp_path / "run")
    assert (tmp_path / "run" / "atoms.bin").exists()
    assert not (tmp_path / "run" / "snapshots").exists()
    assert sorted(back.snapshots) == sorted(expected.snapshots)
    for k, snap in expected.snapshots.items():
        assert np.array_equal(back.snapshots[k].atoms, snap.atoms), k
        assert np.array_equal(back.snapshots[k].weights, snap.weights), k
    if res.config.store_paths:
        cfg = res.config
        assert back.paths.shape == (cfg.replications, cfg.N, cfg.M + 1, cfg.model.dim)
        assert np.array_equal(back.paths, expected.paths)
        for (r, n, m), snap in expected.snapshots.items():  # the checkpoint columns
            assert np.array_equal(snap.atoms, expected.paths[r, :n, m]), (r, n, m)
    else:
        assert back.paths is None and expected.paths is None


def test_save_run_removes_files_the_run_does_not_have(tmp_path):
    save_run(spoc_run(ou_config(N=20, milestones=(20,), store_paths=True)), tmp_path / "run")
    # a spoc-run-v2 run kept its paths in a second file
    (tmp_path / "run" / "paths.bin").write_bytes(b"SPOCPATH")
    save_run(spoc_run(ou_config(N=20, milestones=(20,), measure_backend="summary_only")),
             tmp_path / "run")
    back = load_run(tmp_path / "run")
    assert back.paths is None and back.atoms is None
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["manifest.json",
                                                                      "summary.csv"]


@pytest.mark.parametrize("damage", ["missing", "truncated", "other_shape", "missing_summary",
                                    "truncated_summary"])
def test_load_run_rejects_a_broken_atom_store(tmp_path, damage):
    save_run(spoc_run(ou_config(N=20, milestones=(20,), store_paths=True)), tmp_path / "run")
    atoms, summary = tmp_path / "run" / "atoms.bin", tmp_path / "run" / "summary.csv"
    if damage == "missing_summary":
        summary.unlink()
    elif damage == "truncated_summary":
        # cut inside the last number: every row still parses, but the newline is gone
        summary.write_bytes(summary.read_bytes()[:-3])
    elif damage == "missing":
        atoms.unlink()
    elif damage == "truncated":
        atoms.write_bytes(atoms.read_bytes()[:-3])
    else:  # a whole store, of a run with one particle fewer
        save_run(spoc_run(ou_config(N=19, milestones=(19,), store_paths=True)), tmp_path / "b")
        atoms.write_bytes((tmp_path / "b" / "atoms.bin").read_bytes())
    with pytest.raises(RunFormatError, match="summary.csv" if "summary" in damage else "atoms.bin"):
        load_run(tmp_path / "run")


def test_load_run_reads_a_schedule_horizon_of_n(tmp_path):
    # a new manifest carries the kind's default max_n; one written before
    # runs stopped setting it carries max_n = N, and both load to the same run
    cfg = SimConfig.from_dict({**ou_config(N=60, milestones=(20, 60)).to_dict(),
                               "schedule": {"kind": "geometric", "q": 0.99}})
    res = spoc_run(cfg)
    save_run(res, tmp_path / "run")
    path = tmp_path / "run" / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["config"]["schedule"] == {"kind": "geometric", "max_n": 1000, "q": 0.99}
    manifest["config"]["schedule"]["max_n"] = 60
    path.write_text(json.dumps(manifest))
    back = load_run(tmp_path / "run")
    assert back.config.schedule.max_n == 60
    assert np.array_equal(back.mean_traj, res.mean_traj)
    for k, snap in res.snapshots.items():
        assert np.array_equal(back.snapshots[k].atoms, snap.atoms)
        assert np.array_equal(back.snapshots[k].weights, snap.weights)


def test_load_run_rejects_other_schema(tmp_path):
    save_run(spoc_run(ou_config(N=20, milestones=(20,))), tmp_path / "run")
    manifest = tmp_path / "run" / "manifest.json"
    text = manifest.read_text()
    # a spoc-run-v2 atoms.bin held checkpoint columns only, even in a paths run
    for old in ("spoc-run-v1", "spoc-run-v2"):
        manifest.write_text(text.replace("spoc-run-v3", old))
        with pytest.raises(RunFormatError, match=old):
            load_run(tmp_path / "run")


def test_versions_record_the_installed_scipy():
    # read from the package metadata, without importing scipy
    import scipy

    assert _versions()["scipy"] == scipy.__version__


def test_save_load_round_trip_summary_backend(tmp_path):
    cfg = ou_config(N=60, milestones=(20, 60), replications=2,
                    measure_backend="summary_only")
    res = spoc_run(cfg)
    save_run(res, tmp_path / "run")
    back = load_run(tmp_path / "run")
    assert np.array_equal(back.mean_traj, res.mean_traj)
    assert np.array_equal(back.second_traj, res.second_traj)
    assert sorted(back.snapshots) == sorted(res.snapshots)
    for k, snap in res.snapshots.items():
        assert np.array_equal(back.snapshots[k].mean, snap.mean)
        assert back.snapshots[k].raw_second_moment == snap.raw_second_moment
    assert back.paths is None


def test_power_law_r1_equals_harmonic():
    a = UpdateSchedule.power_law(1.0, 500).alphas(500)
    b = UpdateSchedule.harmonic(500).alphas(500)
    assert np.array_equal(a, b)
