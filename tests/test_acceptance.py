"""Acceptance suite: twelve numbered criteria, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every numeric check goes through an independent oracle (theta-grid
search, permutation enumeration, hand arithmetic) or a construction whose
answer is known in closed form; tolerances are stated inline.
"""

import itertools
import json
import os
import re
import shutil

import numpy as np
import pytest

from pairtraj.cli import main as cli_main
from pairtraj.clustering import align_to_anchor, cluster_geo1, cluster_geo2, cluster_mds
from pairtraj.evaluation import silhouette, stability_statistic, stability_sweep
from pairtraj.mds import embed
from pairtraj.procrustes import (
    DistanceMatrix,
    distance,
    distance_matrix,
    distance_with_alignment,
)
from pairtraj.segmentation import Encounter, segment_with_knots
from pairtraj.synthetic import knotted_interaction, make_family_dataset
from pairtraj.trajectory import Interaction, Trajectory
from pairtraj.transport import DiscreteMeasure, empirical_measure, model_measure, wasserstein
from pairtraj.workers import fork_map, one_blas_thread

from oracles import (
    enumerate_uniform_wasserstein,
    match_rate,
    planted,
    random_interaction,
    random_rotation,
    rho_sq,
    rigid_copy,
    theta_grid_distance,
)


def check(num: int, ok: bool, text: str) -> None:
    """The one visible verdict line per criterion."""
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {text}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def planted12():
    """Shared 12-point planted set with its distance matrix and mds model."""
    data, labels = planted(np.random.default_rng(6), per_family=4, T=21)
    matrix = distance_matrix(data)
    model = cluster_mds(data, matrix, beta=4, k=3, seed=0)
    return data, labels, matrix, model


def test_criterion_1_metric_axioms():
    rng = np.random.default_rng(1)
    worst_self = worst_sym = worst_tri = 0.0
    for _ in range(200):
        a, b, c = (random_interaction(rng, 51) for _ in range(3))
        worst_self = max(worst_self, distance(a, a))
        dab, dba = distance(a, b), distance(b, a)
        worst_sym = max(worst_sym, abs(dab - dba))
        worst_tri = max(worst_tri, distance(a, c) - (dab + distance(b, c)))
    ok = worst_self <= 1e-10 and worst_sym <= 1e-9 and worst_tri <= 1e-8
    check(
        1, ok,
        f"metric axioms on 200 triples (T=51): self {worst_self:.2e} <= 1e-10, "
        f"symmetry {worst_sym:.2e} <= 1e-9, triangle slack {worst_tri:.2e} <= 1e-8",
    )


def test_criterion_2_invariance():
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(100):
        a = random_interaction(rng, 51)
        moved = rigid_copy(a, random_rotation(rng), rng.uniform(-5.0, 5.0, size=2))
        if i % 2 == 0:
            moved = moved.swapped()
        worst = max(worst, distance(a, moved))
    check(
        2, worst <= 1e-9,
        f"rigid motion + order swap invariance on 100 interactions: "
        f"max distance to transformed copy {worst:.2e} <= 1e-9",
    )


def test_criterion_3_closed_form_vs_grid():
    rng = np.random.default_rng(3)
    w_t = np.full(51, 1.0 / 51)
    pairs = [(random_interaction(rng, 51), random_interaction(rng, 51)) for _ in range(50)]

    def gaps(pair):
        """The closed form's relative gap to the grid, and |det R - 1|."""
        a, b = pair
        grid = theta_grid_distance(a, b, w_t, n_grid=100_000)
        _, alignment = distance_with_alignment(a, b)
        return abs(distance(a, b) - grid) / grid, abs(np.linalg.det(alignment.rotation) - 1.0)

    # the grid oracle is most of this test's time, so its pairs go on the fork
    # map; its matrix products on threaded BLAS would contend with the workers
    with one_blas_thread():
        worst_rel, worst_det = np.max(list(fork_map(gaps, pairs)), axis=0)
    ok = worst_rel <= 1e-5 and worst_det <= 1e-10
    check(
        3, ok,
        f"closed form vs 1e5-point theta grid on 50 pairs: relative gap "
        f"{worst_rel:.2e} <= 1e-5, |det R - 1| {worst_det:.2e} <= 1e-10",
    )


def test_criterion_4_anchor_alignment_upper_bound():
    rng = np.random.default_rng(4)
    anchor = random_interaction(rng, 51)
    w_t = np.full(51, 1.0 / 51)
    worst = 0.0
    for _ in range(50):
        a, b = random_interaction(rng, 51), random_interaction(rng, 51)
        _, ali_a, ali_b = align_to_anchor([anchor, a, b])
        euclid = float(np.sqrt(rho_sq(ali_a, ali_b, w_t)))
        worst = max(worst, distance(a, b) - euclid)
    check(
        4, worst <= 1e-8,
        f"common-anchor alignment on 50 pairs: aligned mismatch is an upper "
        f"bound, max (true - aligned) {worst:.2e} <= 1e-8",
    )


def test_criterion_5_mds_fidelity():
    rng = np.random.default_rng(5)
    points = rng.normal(size=(20, 3))
    deltas = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
    emb = embed(DistanceMatrix(deltas), beta=3, seed=0)
    rec = np.sqrt(((emb.points[:, None] - emb.points[None]) ** 2).sum(-1))
    realize_err = float(np.abs(rec - deltas).max())

    # hub at distance 1 from three mutually distance-2 points: realizing the
    # outer triangle forces circumradius 2/sqrt(3) > 1, so no Euclidean
    # configuration exists in any dimension
    star = np.full((4, 4), 2.0)
    star[0] = star[:, 0] = 1.0
    np.fill_diagonal(star, 0.0)
    matrix = DistanceMatrix(star)
    gram = -0.5 * (matrix.entries**2)
    gram -= gram.mean(0)
    gram -= gram.mean(1)[:, None]
    curved = float(np.linalg.eigvalsh((gram + gram.T) / 2).min()) < -1e-9
    stresses = [embed(matrix, beta, seed=0).stress for beta in range(1, matrix.n)]
    monotone = all(s2 <= s1 + 1e-12 for s1, s2 in zip(stresses, stresses[1:]))

    ok = realize_err <= 1e-6 and emb.stress <= 1e-10 and curved and monotone
    check(
        5, ok,
        f"20-point realizable matrix: max pair error {realize_err:.2e} <= 1e-6, "
        f"stress {emb.stress:.2e} <= 1e-10; non-Euclidean matrix "
        f"(min Gram eig < 0: {curved}): stress non-increasing in beta {monotone}",
    )


def test_criterion_6_medoid_optimality(planted12):
    data, _, matrix, model = planted12
    d2 = matrix.entries**2
    best = min(
        float(d2[:, trip].min(axis=1).sum())
        for trip in itertools.combinations(range(len(data)), 3)
    )
    gap = abs(model.objective - best)
    check(
        6, gap <= 1e-9,
        f"12-point medoid objective vs C(12,3) enumeration: |{model.objective:.6f} "
        f"- {best:.6f}| = {gap:.2e} <= 1e-9",
    )


def test_criterion_7_planted_recovery():
    rates = {"mds": [], "geo1": [], "geo2": []}
    ratios = []
    for seed in range(20):
        data, labels = make_family_dataset(seed, per_family=50)
        matrix = distance_matrix(data, workers=os.cpu_count())
        mds_model = cluster_mds(data, matrix, beta=2, k=3, seed=seed)
        geo1_model = cluster_geo1(data, k=3, seed=seed)
        geo2_model = cluster_geo2(data, k=3, seed=seed)
        rates["mds"].append(match_rate(mds_model.assignments, labels, 3))
        rates["geo1"].append(match_rate(geo1_model.assignments, labels, 3))
        rates["geo2"].append(match_rate(geo2_model.assignments, labels, 3))
        within = matrix.entries[labels[:, None] == labels[None]]
        between = matrix.entries[labels[:, None] != labels[None]]
        ratios.append(within.mean() / between.mean())
    mins = {m: min(r) for m, r in rates.items()}
    ok = max(ratios) <= 0.1 and all(v >= 0.95 for v in mins.values())
    check(
        7, ok,
        f"3 planted families, 150 points, 20 seeds (within/between <= "
        f"{max(ratios):.3f}): min recovery mds {mins['mds']:.3f}, geo1 "
        f"{mins['geo1']:.3f}, geo2 {mins['geo2']:.3f}, all >= 0.95",
    )


def test_criterion_8_stability_statistic():
    # cluster {0,1,2} with d01=d02=1, d12=2; point 3 alone; ordered-pair
    # squared sum = 2*(1+1+4) = 12, so the statistic is 12/(2*4) = 1.5 exactly
    entries = np.array(
        [
            [0.0, 1.0, 1.0, 5.0],
            [1.0, 0.0, 2.0, 5.0],
            [1.0, 2.0, 0.0, 5.0],
            [5.0, 5.0, 5.0, 0.0],
        ]
    )
    hand = DistanceMatrix(entries)
    value = stability_statistic(hand, [0, 0, 0, 1])
    exact = value == 1.5

    rng = np.random.default_rng(8)
    data = [random_interaction(rng, 21) for _ in range(6)]
    matrix = distance_matrix(data)
    grid = stability_sweep(
        data, matrix, "mds", "k", (2, 6), "beta", (2, 3), seed=0,
        base={"n_init": 2, "max_iter": 100},
    )
    k_equal_n_zero = bool(np.all(grid.values[1] == 0.0))

    z = np.array([0, 1, 0, 2, 1, 2])
    relabeled = np.array([2, 0, 2, 1, 0, 1])  # same partition, new names
    invariant = stability_statistic(matrix, z) == stability_statistic(matrix, relabeled)

    ok = exact and k_equal_n_zero and invariant
    check(
        8, ok,
        f"stability: 4-point hand case = {value} (exactly 1.5: {exact}), "
        f"k=n sweep cells all 0: {k_equal_n_zero}, relabel invariant: {invariant}",
    )


def test_criterion_9_wasserstein(planted12):
    rng = np.random.default_rng(9)
    atoms = [random_interaction(rng, 21) for _ in range(6)]
    F = DiscreteMeasure(tuple(atoms[:3]), np.full(3, 1.0 / 3))
    G = DiscreteMeasure(tuple(atoms[3:]), np.full(3, 1.0 / 3))
    cost = np.array([[distance(a, b) for b in G.atoms] for a in F.atoms])
    worst_enum = max(
        abs(wasserstein(F, G, r) - enumerate_uniform_wasserstein(cost, r))
        for r in (1.0, 2.0, 4.0)
    )

    a, b = atoms[0], atoms[1]
    single_a = DiscreteMeasure((a,), np.ones(1))
    single_b = DiscreteMeasure((b,), np.ones(1))
    worst_single = max(
        abs(wasserstein(single_a, single_b, r) - distance(a, b)) for r in (1.0, 2.0, 4.0)
    )

    data, _, _, model = planted12
    w2 = wasserstein(model_measure(model), empirical_measure(data), 2.0)
    bound = model.objective / model.n + 1e-8
    within_bound = w2**2 <= bound

    ok = worst_enum <= 1e-9 and worst_single <= 1e-9 and within_bound
    check(
        9, ok,
        f"Wasserstein: 3-atom vs permutation enumeration gap {worst_enum:.2e} "
        f"<= 1e-9 (r in 1,2,4), single-atom gap {worst_single:.2e} <= 1e-9, "
        f"W2^2 {w2**2:.4f} <= objective/n + 1e-8 = {bound:.4f}",
    )


def test_criterion_10_silhouette():
    # clusters {0,1,2} and {3,4,5}; within distances 1,2,1 in each, all
    # between distances 4: a = (1.5, 1.0, 1.5), b = 4, s = (b-a)/b
    entries = np.full((6, 6), 4.0)
    for base in (0, 3):
        block = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        entries[base : base + 3, base : base + 3] = block
    hand = silhouette(DistanceMatrix(entries), [0, 0, 0, 1, 1, 1])
    expected = np.array([0.625, 0.75, 0.625, 0.625, 0.75, 0.625])
    hand_exact = bool(np.all(hand == expected))

    rng = np.random.default_rng(10)
    data = [random_interaction(rng, 21) for _ in range(10)]
    values = silhouette(distance_matrix(data), rng.integers(0, 3, size=10))
    bounded = bool(np.all(values >= -1.0) and np.all(values <= 1.0))

    sep = np.zeros((6, 6))
    sep[:3, 3:] = 7.0
    sep[3:, :3] = 7.0
    ones = silhouette(DistanceMatrix(sep), [0, 0, 0, 1, 1, 1])
    all_ones = bool(np.all(ones == 1.0))

    ok = hand_exact and bounded and all_ones
    check(
        10, ok,
        f"silhouette: 6-point hand case exact {hand_exact}, random case in "
        f"[-1,1] {bounded}, zero-diameter separated clusters all 1s {all_ones}",
    )


def test_criterion_11_segmentation():
    t = np.linspace(0.0, 1.0, 121)
    cubic = Interaction(
        Trajectory(np.column_stack([t**3 - t, 2.0 * t**2 + 1.0]), t),
        Trajectory(np.column_stack([0.5 * t**3 + t, -(t**2)]), t),
    )
    _, cps = segment_with_knots(Encounter("cubic", cubic), None)
    clean = cps.points == ()

    hits = {}
    for knots in ((60,), (40, 80)):
        good = 0
        for seed in range(20):
            inter = knotted_interaction(np.random.default_rng(seed), knots)
            _, found = segment_with_knots(Encounter(f"s{seed}", inter), None)
            if len(found.points) == len(knots) and all(
                abs(g - k) <= 2 for g, k in zip(found.points, knots)
            ):
                good += 1
        hits[knots] = good
    ok = clean and all(v >= 18 for v in hits.values())
    check(
        11, ok,
        f"segmentation: exact cubic gives no change points ({clean}); planted "
        f"knots within +-2 under auto tolerance on {hits[(60,)]}/20 one-kink "
        f"and {hits[(40, 80)]}/20 two-kink seeds (need >= 18)",
    )


def _normalized(path: str) -> bytes:
    """Artifact bytes with the creation timestamp blanked out."""
    with open(path, "rb") as handle:
        return re.sub(rb'"created": "[^"]*"', b'"created": "-"', handle.read())


def _pipeline(out: str) -> None:
    def run(*argv):
        assert cli_main(list(argv)) == 0

    common = ("--output-dir", out, "--seed", "3", "--set", "num_samples=31")
    run("generate", "--set", "kind=families", "--set", "per_family=4", *common)
    dataset = os.path.join(out, "dataset.csv")
    run("distances", "--input", dataset, *common)
    run("cluster", "--method", "mds", "--input", dataset, "--set", "k=3",
        "--set", "n_init=4", *common)
    model = os.path.join(out, "model.json")
    run("evaluate", "--model", model, "--input", dataset, *common)
    run("stability", "--method", "mds", "--input", dataset,
        "--grid", "k=2,3;beta=2,3", "--set", "n_init=2", *common)
    run("wasserstein", "--a", model, "--b", dataset, "--input", dataset, *common)
    run("transfer", "--primitives", model, "--input", dataset, *common)
    enc = os.path.join(out, "enc")
    run("generate", "--set", "kind=encounters", "--set", "count=1",
        "--output-dir", enc, "--seed", "11", "--set", "num_samples=121")
    run("segment", "--input", os.path.join(enc, "dataset.csv"),
        "--output-dir", enc, "--seed", "11")


def _artifacts(out: str) -> dict[str, bytes]:
    """Primary CSV/JSON artifacts; the binary distance cache is not one."""
    found = {}
    for root, _, names in os.walk(out):
        for name in names:
            if name.endswith((".csv", ".json")):
                path = os.path.join(root, name)
                found[os.path.relpath(path, out)] = _normalized(path)
    return found


def test_criterion_12_determinism(tmp_path):
    out = str(tmp_path / "run")
    _pipeline(out)
    snapshot = _artifacts(out)
    shutil.rmtree(out)
    _pipeline(out)
    repeat = _artifacts(out)
    same_files = sorted(snapshot) == sorted(repeat)
    identical = same_files and all(snapshot[k] == repeat[k] for k in snapshot)
    check(
        12, identical,
        f"two identical full-pipeline runs: {len(snapshot)} artifacts "
        f"byte-identical with timestamps excluded ({identical})",
    )
