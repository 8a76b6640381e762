from dataclasses import replace

import numpy as np
import pytest

from spoc import (
    BlowUpError,
    ConfigError,
    InitialCondition,
    ModelSpec,
    RunFormatError,
    SimConfig,
    UpdateSchedule,
    batch_spoc_run,
    builtin_model,
    classical_poc_run,
    coupled_spoc_run,
    load_run,
    reference_run,
    save_run,
    spoc_run,
)
from spoc.measures import summary_stats
from spoc.rng import BlockStream, block_width, replication_stream
from spoc.simulate import MomentView, _em_step, _versions, load_paths


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


def test_config_dict_round_trip():
    cfg = ou_config(batch_sizes=(200, 200), store_paths=True)
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
    stats = summary_stats(snap)
    assert np.allclose(stats.mean, summ.mean, atol=1e-10)
    assert abs(stats.raw_second_moment - summ.raw_second_moment) < 1e-10


# -- batch runs -----------------------------------------------------------------------


def test_batch_all_ones_bit_identical_to_sequential():
    seq = spoc_run(ou_config())
    bat = batch_spoc_run(ou_config(batch_sizes=(1,) * 400))
    assert np.array_equal(seq.mean_traj, bat.mean_traj)
    assert np.array_equal(seq.second_traj, bat.second_traj)
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


def test_batch_milestones_must_align():
    cfg = ou_config(N=4, batch_sizes=(2, 2), milestones=(3,))
    with pytest.raises(ConfigError):
        batch_spoc_run(cfg)


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


@pytest.mark.parametrize("run, kw", [
    (spoc_run, dict(initial=InitialCondition.gaussian(0.0, 0.15))),
    (batch_spoc_run, dict(batch_sizes=(1, 9, 15, 25))),
], ids=["wavefront", "batch"])
def test_blowup_context_is_worker_count_invariant(run, kw):
    cfg = cubic_config(seed=4, replications=4, **kw)
    contexts = []
    for workers in (1, 2):
        with pytest.raises(BlowUpError) as exc_info:
            run(cfg, workers=workers)
        err = exc_info.value
        contexts.append((err.particle, err.step, err.replication))
    assert contexts[0] == contexts[1]


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
    assert (tmp_path / "run" / "manifest.json").exists()
    assert (tmp_path / "run" / "paths.bin").exists()
    arr = load_paths(tmp_path / "run" / "paths.bin")
    assert np.array_equal(arr, res.paths)


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
}


@pytest.mark.parametrize("case", sorted(_ROUND_TRIP_RUNS))
def test_round_trip_snapshots_bit_for_bit(tmp_path, case):
    res = _ROUND_TRIP_RUNS[case]()
    expected = res
    if case == "workers_2":
        expected = spoc_run(res.config, workers=1)
    save_run(res, tmp_path / "run")
    back = load_run(tmp_path / "run")
    assert (tmp_path / "run" / "atoms.bin").exists()
    assert not (tmp_path / "run" / "snapshots").exists()
    assert sorted(back.snapshots) == sorted(expected.snapshots)
    for k, snap in expected.snapshots.items():
        assert np.array_equal(back.snapshots[k].atoms, snap.atoms), k
        assert np.array_equal(back.snapshots[k].weights, snap.weights), k


def test_save_run_removes_files_the_run_does_not_have(tmp_path):
    save_run(spoc_run(ou_config(N=20, milestones=(20,), store_paths=True)), tmp_path / "run")
    save_run(spoc_run(ou_config(N=20, milestones=(20,), measure_backend="summary_only")),
             tmp_path / "run")
    back = load_run(tmp_path / "run")
    assert back.paths is None and back.snapshots.atoms_cp is None
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["manifest.json",
                                                                      "summary.csv"]


def test_load_run_rejects_other_schema(tmp_path):
    save_run(spoc_run(ou_config(N=20, milestones=(20,))), tmp_path / "run")
    manifest = tmp_path / "run" / "manifest.json"
    manifest.write_text(manifest.read_text().replace("spoc-run-v2", "spoc-run-v1"))
    with pytest.raises(RunFormatError, match="spoc-run-v1"):
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
