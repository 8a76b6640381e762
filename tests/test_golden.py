"""Golden SHA-256 digests of driver outputs for small fixed configs.

The other bitwise tests compare the drivers with themselves (anytime
prefixes, worker counts, batch degeneracy); a change that moved every bit
the same way would pass them.  These digests pin the bits themselves, so a
rewrite of the drivers is checked against the behaviour they replace.

The cases cover the three builtin models, point and gaussian initials, the
summary and full_atoms backends, sequential, batch, coupled and classical
runs, both reference kinds, an explicit unit-tail schedule, a full-measure
model with the additive-plus-measure-free noise form, the summary.csv
bytes of one `spoc simulate`, and the tables of three rate studies (sliced
W_2 against a surrogate, exact 1-d W_2 against a moment closure, i.i.d.).

The digests were made with the platform and library versions in
GENERATED_WITH.  Float results may differ in the last bits under another
numpy build or CPU, so a mismatch there says nothing about the code.  To
print the digests of the current code, run `python tests/test_golden.py`
with `src` on PYTHONPATH; regenerating them is a change of the bitwise
contract and must be recorded as such.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from spoc import (
    InitialCondition,
    ModelSpec,
    SimConfig,
    UpdateSchedule,
    WeightedEmpirical,
    batch_spoc_run,
    builtin_model,
    classical_poc_run,
    convergence_study,
    coupled_spoc_run,
    iid_convergence_study,
    reference_run,
    spoc_run,
)
from spoc.analysis import METRIC_W2
from spoc.cli import dispatch

GENERATED_WITH = {"numpy": "2.4.6", "python": "3.11.7", "system": "Linux", "machine": "x86_64"}


# -- two models outside the builtins, for the branches no builtin reaches -------


def _pull_drift(t, x, view):
    return view.weights @ view.atoms - x


def _tanh_diffusion(t, x, view):
    return 0.5 + 0.1 * np.tanh(x[..., 0])


def full_pull_model():
    """Full-measure interaction with the sigma(t, x) dW + dB noise form."""
    return ModelSpec(name="full_pull", dim=1, drift=_pull_drift, diffusion=_tanh_diffusion,
                     interaction_form="full_measure",
                     noise_form="additive_plus_measure_free", additive_amplitude=0.3)


def _dual_drift(t, x, view):
    return -2.0 * x - view.mean


def _half_diffusion(t, x, view):
    return 0.5


def _dual_moment_ode(t, m, s):
    # dX = (-2X - EX) dt + 0.5 dW + 0.3 dB in one dimension
    return -3.0 * m, -4.0 * s - 2.0 * float(m @ m) + 0.25 + 0.09


def dual_moment_model():
    """Moment interaction with the additive-plus-measure-free noise form and a
    closed moment system, so it can drive coupled runs."""
    return ModelSpec(name="dual_ou", dim=1, drift=_dual_drift, diffusion=_half_diffusion,
                     interaction_form="moment_only",
                     noise_form="additive_plus_measure_free", additive_amplitude=0.3,
                     moment_ode=_dual_moment_ode)


# -- digests --------------------------------------------------------------------


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _plain_key(key):
    """A snapshot key with plain-int parts, so that the digest hashes the key's
    numbers and not the integer type a driver happens to build it from."""
    return tuple(int(k) for k in key) if isinstance(key, tuple) else int(key)


def _snapshots_digest(snapshots: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(snapshots):
        snap = snapshots[key]
        h.update(repr(_plain_key(key)).encode())
        if isinstance(snap, WeightedEmpirical):
            h.update(_digest(snap.atoms, snap.weights).encode())
        else:
            h.update(_digest(snap.mean, snap.raw_second_moment).encode())
    return h.hexdigest()


def _run_digests(run) -> dict:
    out = {
        "mean_traj": _digest(run.mean_traj),
        "second_traj": _digest(run.second_traj),
        "snapshots": _snapshots_digest(run.snapshots),
    }
    if run.paths is not None:
        out["paths"] = _digest(run.paths)
    return out


def _config(model, initial, **kw):
    base = dict(model=model, schedule=UpdateSchedule.harmonic(10**6), initial=initial,
                T=1.0, M=8, N=60, seed=4242, replications=2)
    base.update(kw)
    return SimConfig(**base)


# -- cases ------------------------------------------------------------------------


def case_ou_point_summary(tmp):
    cfg = _config(builtin_model("mean_field_ou"), InitialCondition.point(1.0),
                  M=10, N=120, milestones=(1, 7, 40, 120), checkpoints=(0.0, 0.5, 1.0),
                  measure_backend="summary_only")
    return _run_digests(spoc_run(cfg))


def case_curie_weiss_gaussian_full_paths(tmp):
    cfg = _config(builtin_model("curie_weiss", {"beta": 1.0, "K": 0.5, "sigma": 1.0}),
                  InitialCondition.gaussian(0.5, 1.0), milestones=(10, 60),
                  checkpoints=(0.5, 1.0), measure_backend="full_atoms", store_paths=True)
    return _run_digests(spoc_run(cfg))


def case_repulsive3d_point_full(tmp):
    cfg = _config(builtin_model("repulsive3d"), InitialCondition.point([1.0, 0.0, 0.0]),
                  M=6, N=40, milestones=(5, 40), measure_backend="full_atoms")
    return _run_digests(spoc_run(cfg))


def case_full_measure_dual_noise(tmp):
    cfg = _config(full_pull_model(), InitialCondition.gaussian(0.0, 1.0),
                  schedule=UpdateSchedule.power_law(0.7, 10**6), M=5, N=30,
                  milestones=(10, 30), store_paths=True)
    return _run_digests(spoc_run(cfg))


def case_batch_ou_full(tmp):
    cfg = _config(builtin_model("mean_field_ou"), InitialCondition.gaussian(0.0, 0.5),
                  batch_sizes=(1, 3, 6, 20, 30), milestones=(4, 30, 60),
                  measure_backend="full_atoms")
    return _run_digests(batch_spoc_run(cfg))


def case_coupled_dual_noise(tmp):
    cfg = _config(dual_moment_model(), InitialCondition.gaussian(0.2, 0.5), N=50,
                  milestones=(1, 10, 50), measure_backend="summary_only")
    res = coupled_spoc_run(cfg)
    return {**_run_digests(res.run), "gap_kn": _digest(res.gap_kn),
            "gap_at_milestone": _digest(res.gap_at_milestone)}


def case_classical_ou_full(tmp):
    cfg = _config(builtin_model("mean_field_ou"), InitialCondition.gaussian(1.0, 0.5),
                  N=80, checkpoints=(0.0, 0.5, 1.0), measure_backend="full_atoms")
    return _run_digests(classical_poc_run(cfg))


def case_classical_full_measure(tmp):
    cfg = _config(full_pull_model(), InitialCondition.point(0.5), N=40, M=5)
    return _run_digests(classical_poc_run(cfg))


def case_unit_tail_schedule(tmp):
    values = [1.0, 1.0, 1.0, 0.5, 0.5, 0.4, 0.25, 0.25, 0.2, 0.2, 0.1, 0.1]
    cfg = _config(builtin_model("mean_field_ou"), InitialCondition.point(1.0),
                  schedule=UpdateSchedule.explicit(values), M=4, N=12,
                  milestones=(3, 4, 6, 12), measure_backend="full_atoms")
    return _run_digests(spoc_run(cfg))


def _reference_digests(ref) -> dict:
    out = {"mean": _digest(ref.mean), "second": _digest(ref.second),
           "samples": _snapshots_digest(ref.samples)}
    if ref.paths is not None:
        out["paths"] = _digest(ref.paths)
    return out


def case_reference_moment_closure(tmp):
    cfg = _config(dual_moment_model(), InitialCondition.gaussian(0.0, 1.0), N=50,
                  checkpoints=(0.5, 1.0))
    return _reference_digests(reference_run(cfg.model, cfg, store_paths=True))


def case_reference_surrogate(tmp):
    cfg = _config(builtin_model("curie_weiss"), InitialCondition.gaussian(0.5, 1.0),
                  M=5, N=20, checkpoints=(0.0, 1.0))
    return _reference_digests(reference_run(cfg.model, cfg))


def case_cli_simulate_summary(tmp):
    cfg = tmp / "cfg.json"
    cfg.write_text('{"model": {"name": "mean_field_ou"}, "schedule": {"kind": "harmonic"},'
                   ' "initial": {"kind": "gaussian", "mean": 1.0, "std": 0.5}, "T": 1.0,'
                   ' "M": 10, "N": 100, "seed": 77, "replications": 2,'
                   ' "milestones": [10, 100]}')
    code = dispatch(["simulate", "--config", str(cfg), "--out", str(tmp / "run")])
    assert code == 0
    return {"summary.csv": hashlib.sha256((tmp / "run" / "summary.csv").read_bytes()).hexdigest()}


def _table_digests(table) -> dict:
    return {"per_replication": _digest(table.per_replication),
            "rows": _digest([(r.n, r.estimate, r.ci_half_width) for r in table.rows])}


def case_study_sliced_surrogate(tmp):
    # sliced W_2 in 3-d against the 10N-atom classical surrogate
    cfg = _config(builtin_model("repulsive3d"), InitialCondition.point([1.0, 0.0, 0.0]),
                  M=6, N=60, replications=3, milestones=(7, 25, 60))
    table, _ = convergence_study(cfg, cfg.milestones, METRIC_W2)
    return _table_digests(table)


def case_study_w1d_moment_closure(tmp):
    # exact 1-d W_2 against the decoupled moment-closure sample
    cfg = _config(builtin_model("mean_field_ou"), InitialCondition.gaussian(1.0, 0.5),
                  N=80, replications=3, milestones=(9, 40, 80))
    table, _ = convergence_study(cfg, cfg.milestones, METRIC_W2)
    return _table_digests(table)


def case_study_iid(tmp):
    table, _ = iid_convergence_study(UpdateSchedule.harmonic(10**6), (10, 100, 1000),
                                     replications=3, seed=11, n_nodes=512)
    return _table_digests(table)


CASES = {name[len("case_"):]: fn for name, fn in globals().items() if name.startswith("case_")}

GOLDEN = {
    "batch_ou_full": {
        "mean_traj": "92380e15a0cc3f09757cacaef603e7a94e685c9793340adc914ff6923939e8e3",
        "second_traj": "f492bfef8de73c1e10a630f107a51e919822c11c1eb30e4d44416c230f5a7091",
        "snapshots": "133892238ef15374d4ae7dd8d694449317482ec771e23f473803f32f3cc63e9f",
    },
    "classical_full_measure": {
        "mean_traj": "51fc005ac6a8ad97a616eac4650dbe4a873d72ebcdd6ead7c3bab370d9f91ffb",
        "second_traj": "9de2cbfd49fd26d083d119a22f6f1f1e777fcec8b48a13a6b19d79dcd3c637ee",
        "snapshots": "9885317b7442bc146baa23e1fd065410d7e9579140391b02630855b396666898",
    },
    "classical_ou_full": {
        "mean_traj": "3a991227e744afb1ad7be27e3bfc70a8bfb6357316f65b62e5aac34d81137827",
        "second_traj": "3c0711cde19b3dfc429a27e96979633e35e9a5afab8a5cf6fc15bf0eb4cafa8a",
        "snapshots": "0faa2b8df83fb6b38797e3b36fabc2eb64faf310de4fedee0c47bd2e4031e190",
    },
    "cli_simulate_summary": {
        "summary.csv": "42e5951bc7d29b9d943518cfa45fa8f25a0692fcefb1d70df36de7a0760db74c",
    },
    "coupled_dual_noise": {
        "gap_at_milestone": "255078d0266bb30fd2d03c3e3cd1d5a2ea230a32aa237d627edd41a0c9111191",
        "gap_kn": "56b3e1fb801b46d6c2aa0017de5e0f728944688c3a7516004fa41db20aa2fcee",
        "mean_traj": "0ba1485d334f0473608269504b25a76bd620c7d8efe447a2d28c85074c70553f",
        "second_traj": "37c664237612353bf217bd703b87e01221ed16758a3fc7260aa24265e91f075d",
        "snapshots": "b61b45ce80ea472748acf5f4dce14e4287cbe5383b803c3165de69f91dc1dcaa",
    },
    "curie_weiss_gaussian_full_paths": {
        "mean_traj": "59a7b6ae38d7c0337222e4e2a52719c4383d87c6aafb332c1ca3d3dbde446bcc",
        "paths": "388648d065579f12d83827c09ea5f1eab348a48f27acf329cc25914d4ead6269",
        "second_traj": "0dd8776e5a6e05fc752a4a546cae3680e3bf315e966d574da2ebcfdd06ab5689",
        "snapshots": "5f4b7ad16a2a5830efb083de367fde4deb7cdb438f6fd8e13e890dbecd94b6c5",
    },
    "full_measure_dual_noise": {
        "mean_traj": "e99a7f5611a479e91e7af55ead51896dbc35f15ba2db19bec1add337f955b158",
        "paths": "c4bb1c74920e9b6c5b78ee1abf8a9337190ab3bd6a21829ae5725473043c50fc",
        "second_traj": "4d682964cec1c1b677850bf5e1f3da894e4be3c7520d39180685610ce3335b7b",
        "snapshots": "068065118b4493ecc0127299fb5ec2568668ce310e5874f03659415531af832d",
    },
    "ou_point_summary": {
        "mean_traj": "735cdc614af04b0fb42713400fdf2435510791f7d067ad809251a6d3a51d83bf",
        "second_traj": "53074d5c3581e11a869300b8e9d55bb0ffc48d3bcadb8cfd82b143df0b7a670f",
        "snapshots": "614ab810da399c1e35ab1c966dc5733ca5c2ee34c8af08f9e11bdf2a4207092a",
    },
    "reference_moment_closure": {
        "mean": "457ec462ecacf94a1d09a0141f34492602478aefa99852f463eb5853712f2feb",
        "paths": "6f66cd533bc7a7463782709d4b110909edc499e4e58885a6d3cdfc6d327dc171",
        "samples": "1f996266b2e6fcf9b3f8002aca5ae55ad15d440b4e55530820724a8d19458296",
        "second": "dbc64095ec23bec69fefe245b744ff1b97e4fba0f5393405e153a70272317fc6",
    },
    "reference_surrogate": {
        "mean": "cfd63ba494030df612682bccc32b1cac78e12b6017782cbb0d35cb3c325f9b9b",
        "samples": "0296c68263f449502f5c46323f05384283bbf529f03fa4ebd9f8b6b5d3977a93",
        "second": "0a27851437ac4ce38739bbf762d24ed6c3cba17d7287f9a910726024e7b47949",
    },
    "repulsive3d_point_full": {
        "mean_traj": "e1d3b46598521b7e4fc29a34791be5009ea0a84e1caab0bbf19bd76ad688969a",
        "second_traj": "f4136d2c232bbfbdfbae3e1fb77198e28c6ba31b66ad2fbbbfc2d63e705050e0",
        "snapshots": "11c15c7764cc1a02295c4ee84f0fe5fdd1cc50ab94cc6291a900c8f9a49aaefe",
    },
    "study_iid": {
        "per_replication": "94f06f57c28a9b9fa5844fbb9fca2b86f9746a92c652823892f179bd80afd288",
        "rows": "bb5462c8df5fadbd7c2989d8528dc435104236d19f1c59fba307abc76d6764dd",
    },
    "study_sliced_surrogate": {
        "per_replication": "d63f9db170dbfe42997c52a98600bcf9e01159681fad70244a2d6c45cb6fdfe6",
        "rows": "5de7fdd1b11ccb43a936863cd07970300d8ef12ec36254c4767baa62ee9425ee",
    },
    "study_w1d_moment_closure": {
        "per_replication": "61eb7378e70058c9025ddec1b41cbbe041619ec00a793227680d734cb5416080",
        "rows": "43c36ccda89f984a7b26bce8f407dab3d8d2c42a38f6068141d2bbb3b85c6644",
    },
    "unit_tail_schedule": {
        "mean_traj": "d5a3f518e8fb8803907e7aaab7c94134ef52b27f0d6f70486d801e1b04bdba49",
        "second_traj": "3aec45f2603e3735551d7a2c26f132ee018bc188a2511c1d605161d5d560a9ff",
        "snapshots": "35e2a0f7da992462443670971911167c1d3c336e60f28be0230b1e015533759d",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    assert CASES[name](tmp_path) == GOLDEN[name], (
        f"outputs of case {name!r} changed; the digests were made with {GENERATED_WITH}"
    )


if __name__ == "__main__":
    import pprint
    import tempfile

    digests = {}
    with tempfile.TemporaryDirectory() as d:
        for name, fn in CASES.items():
            (Path(d) / name).mkdir()
            digests[name] = fn(Path(d) / name)
    pprint.pprint(digests, width=100)
