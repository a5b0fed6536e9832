import dataclasses
import itertools
import math

import numpy as np
import pytest

from blockadesim import optics
from blockadesim.optics import (
    DetectorModel,
    beam_splitter,
    detect_all_probabilities,
    detect_outcomes,
    group_occupations,
    phase_shift,
    score_patterns,
)
from blockadesim.state_algebra import (
    ATOL_STATE,
    DensityOperator,
    EnsembleQudit,
    HybridState,
    OpticalMode,
    fidelity,
    partial_trace,
)
from helpers import (
    assert_valid,
    element,
    pattern_weights_loop,
    random_optical_pair,
    random_state,
)

RT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# independent beam-splitter oracle: expand the creation-operator polynomial
# ((a_j + i a_i)/sqrt2)^m ((a_i + i a_j)/sqrt2)^n by coefficient convolution

def _poly_mul(a, b):
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1), complex)
    for (p, q), c in np.ndenumerate(a):
        if c != 0:
            out[p:p + b.shape[0], q:q + b.shape[1]] += c * b
    return out


def _poly_pow(base, exponent):
    out = np.ones((1, 1), complex)
    for _ in range(exponent):
        out = _poly_mul(out, base)
    return out


def splitter_oracle(m, n):
    image_i = np.zeros((2, 2), complex)
    image_i[1, 0] = 1j * RT2   # a_i -> i a_i / sqrt2 ...
    image_i[0, 1] = RT2        # ... + a_j / sqrt2
    image_j = np.zeros((2, 2), complex)
    image_j[1, 0] = RT2
    image_j[0, 1] = 1j * RT2
    poly = _poly_mul(_poly_pow(image_i, m), _poly_pow(image_j, n))
    amps = {}
    for (p, q), c in np.ndenumerate(poly):
        if c != 0:
            amps[(p, q)] = c * math.sqrt(
                math.factorial(p) * math.factorial(q)
                / (math.factorial(m) * math.factorial(n))
            )
    return amps


def test_beam_splitter_matches_polynomial_oracle():
    subs = (OpticalMode(4, "a"), OpticalMode(4, "b"))
    for m, n in itertools.product(range(3), repeat=2):
        state = beam_splitter(HybridState.basis(subs, (m, n)), 0, 1)
        oracle = splitter_oracle(m, n)
        for key in set(oracle) | {k for k, _ in state.amplitudes.items()}:
            assert abs(state.amplitude(key) - oracle.get(key, 0.0)) < 1e-12, (m, n, key)


def test_hom_identity_frozen():
    subs = (OpticalMode(2, "a"), OpticalMode(2, "b"))
    out = beam_splitter(HybridState.basis(subs, (1, 1)), 0, 1)
    assert abs(out.amplitude((0, 2)) - 1j * RT2) < 1e-12
    assert abs(out.amplitude((2, 0)) - 1j * RT2) < 1e-12
    assert abs(out.amplitude((1, 1))) < 1e-12
    assert len(out) == 2


def test_beam_splitter_unitary_on_randoms():
    # <Ua|Ub> = <a|b>, with b from its own generator
    rng = np.random.default_rng(42)
    rng_b = np.random.default_rng(43)
    for _ in range(200):
        st = random_optical_pair(rng)
        other = random_optical_pair(rng_b)
        out = beam_splitter(st, 0, 1)
        assert abs(out.norm() - 1.0) < 1e-12
        assert abs(out.inner(beam_splitter(other, 0, 1)) - st.inner(other)) < 1e-12


def test_beam_splitter_vacuum_and_single_photon():
    subs = (OpticalMode(2, "a"), OpticalMode(2, "b"))
    vac = beam_splitter(HybridState.basis(subs, (0, 0)), 0, 1)
    assert vac.amplitude((0, 0)) == pytest.approx(1.0)
    one = beam_splitter(HybridState.basis(subs, (1, 0)), 0, 1)
    assert abs(one.amplitude((1, 0)) - 1j * RT2) < 1e-12
    assert abs(one.amplitude((0, 1)) - RT2) < 1e-12


def test_beam_splitter_cutoff_overflow_raises():
    subs = (OpticalMode(2, "a"), OpticalMode(2, "b"))
    st = HybridState.basis(subs, (2, 1))
    with pytest.raises(ValueError, match="cutoff"):
        beam_splitter(st, 0, 1)
    with pytest.raises(ValueError):
        beam_splitter(st, 0, 0)
    with pytest.raises(ValueError):
        beam_splitter(st, 0, 2)
    ens = HybridState((EnsembleQudit("A"), OpticalMode(2, "m")), {("g", 0): 1.0})
    with pytest.raises(ValueError):
        beam_splitter(ens, 0, 1)


def test_hom_cancellation_survives_despite_cutoff_two():
    # |1,1> on cutoff-2 modes never produces occupation 3, so no overflow
    subs = (OpticalMode(2, "a"), OpticalMode(2, "b"))
    out = beam_splitter(HybridState.basis(subs, (1, 1)), 0, 1)
    assert abs(out.norm() - 1.0) < 1e-12


def test_phase_shift():
    subs = (OpticalMode(2, "a"), OpticalMode(2, "b"))
    st = HybridState(subs, {(0, 0): 0.5, (1, 0): 0.5, (2, 0): RT2})
    out = phase_shift(st, 0, math.pi / 2)
    assert abs(out.amplitude((0, 0)) - 0.5) < 1e-12
    assert abs(out.amplitude((1, 0)) - 0.5j) < 1e-12
    assert abs(out.amplitude((2, 0)) + RT2) < 1e-12
    # additive composition
    a = phase_shift(phase_shift(st, 0, 0.3), 0, 0.4)
    b = phase_shift(st, 0, 0.7)
    assert a.allclose(b, atol=1e-12)
    assert abs(out.norm() - st.norm()) < 1e-12


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.5)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=-0.1)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.5, dark_count_rate_hz=-1.0)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.5, gate_time_s=0.0)
    det = DetectorModel(efficiency=0.5, dark_count_rate_hz=20.0, gate_time_s=5e-6)
    assert det.dark_click_probability == pytest.approx(1.0 - math.exp(-1e-4))
    assert DetectorModel.ideal().dark_click_probability == 0.0


def test_detect_outcomes_two_photon_loss_frozen():
    # two photons, eta = 0.3: click probability 1 - 0.7^2 = 0.51
    subs = (OpticalMode(2, "m"),)
    st = HybridState.basis(subs, (2,))
    det = DetectorModel(efficiency=0.3)
    outcomes = {o: (p, post) for o, p, post in detect_outcomes(DensityOperator.from_pure(st),
                                                                0, det)}
    assert outcomes[True][0] == pytest.approx(0.51, abs=1e-12)
    assert outcomes[False][0] == pytest.approx(0.49, abs=1e-12)
    post = outcomes[True][1]
    assert element(post, (0,), (0,)) == pytest.approx(1.0)  # mode reset to vacuum


def test_detect_outcomes_completeness_on_randoms():
    rng = np.random.default_rng(8)
    det = DetectorModel(efficiency=0.6, dark_count_rate_hz=50.0, gate_time_s=5e-6)
    for _ in range(100):
        subs = (EnsembleQudit("A"), OpticalMode(2, "m"))
        st = random_state(rng, subs)
        outcomes = detect_outcomes(DensityOperator.from_pure(st), 1, det)
        total = sum(p for _, p, _ in outcomes)
        assert abs(total - 1.0) < 1e-10
        for _, p, post in outcomes:
            if post is not None:
                assert_valid(post, atol=1e-10)


def test_detect_outcomes_on_density_input():
    subs = (OpticalMode(2, "m"),)
    rho = DensityOperator.mixture([
        (0.5, DensityOperator.from_pure(HybridState.basis(subs, (0,)))),
        (0.5, DensityOperator.from_pure(HybridState.basis(subs, (1,)))),
    ])
    det = DetectorModel(efficiency=0.4)
    outcomes = {o: p for o, p, _ in detect_outcomes(rho, 0, det)}
    assert outcomes[True] == pytest.approx(0.2, abs=1e-12)
    assert outcomes[False] == pytest.approx(0.8, abs=1e-12)


def test_detection_destroys_occupation_coherence():
    # (|g,0> + |s,1>)/sqrt2: after an inconclusive no-click, the photon number
    # still tagged which path, so no g/s coherence may survive
    subs = (EnsembleQudit("A"), OpticalMode(2, "m"))
    st = HybridState(subs, {("g", 0): RT2, ("s", 1): RT2})
    det = DetectorModel(efficiency=0.4)
    outcomes = {o: (p, post) for o, p, post in detect_outcomes(DensityOperator.from_pure(st),
                                                                1, det)}
    p_none, post = outcomes[False]
    assert p_none == pytest.approx(0.5 + 0.5 * 0.6, abs=1e-12)
    assert abs(element(post, ("g", 0), ("s", 0))) < 1e-12
    assert element(post, ("g", 0), ("g", 0)).real == pytest.approx(0.5 / 0.8)
    assert element(post, ("s", 0), ("s", 0)).real == pytest.approx(0.3 / 0.8)


def test_detect_all_matches_sequential_composition():
    # independent factorization oracle: P(o1, o2) = P(o1) P(o2 | o1), and the
    # joint post state is the post state of the second conditioning
    rng = np.random.default_rng(77)
    subs = (EnsembleQudit("A"), OpticalMode(2, "m1"), OpticalMode(2, "m2"))
    detectors = (
        DetectorModel(efficiency=0.55, dark_count_rate_hz=30.0, gate_time_s=5e-6),
        DetectorModel(efficiency=0.55, dark_count_rate_hz=3e4, gate_time_s=5e-6),
    )
    for det in detectors:
        for _ in range(25):
            st = random_state(rng, subs)
            table = detect_all_probabilities(group_occupations(st, (1, 2)), det)
            assert set(table) == set(itertools.product((False, True), repeat=2))
            assert abs(sum(p for p, _ in table.values()) - 1.0) < 1e-10
            sequential = {}
            for o1, p1, post1 in detect_outcomes(DensityOperator.from_pure(st), 1, det):
                if post1 is None:
                    continue
                for o2, p2, post12 in detect_outcomes(post1, 2, det):
                    sequential[(o1, o2)] = (p1 * p2, post12)
            for pattern, (p, post) in table.items():
                p_seq, post_seq = sequential.get(pattern, (0.0, None))
                assert p == pytest.approx(p_seq, abs=1e-10)
                if post is None or post_seq is None:
                    assert p < 1e-10 and p_seq < 1e-10
                    continue
                keys = set(post.elements) | set(post_seq.elements)
                for ket, bra in keys:
                    assert element(post, ket, bra) == pytest.approx(
                        element(post_seq, ket, bra), abs=1e-10)


def _weight_bits(table):
    return [(pattern, tuple(w.hex() for w in weights)) for pattern, weights in table]


def test_pattern_weights_product_form_matches_the_loop_bit_for_bit():
    rng = np.random.default_rng(13)
    detectors = [DetectorModel(efficiency=eta, dark_count_rate_hz=rate)
                 for eta in (0.0, 0.37, 0.5, 0.91, 1.0) for rate in (0.0, 3e4)]
    zeros = 0
    for det in detectors:
        for n_modes in range(1, 7):
            cutoffs = tuple(int(c) for c in rng.integers(1, 4, size=n_modes))
            occupations = [tuple(int(rng.integers(0, c + 1)) for c in cutoffs)
                           for _ in range(12)]
            occupations.append((0,) * n_modes)
            got = optics._pattern_weights(det, cutoffs, occupations)
            assert _weight_bits(got) == _weight_bits(
                pattern_weights_loop(det, cutoffs, occupations))
            zeros += sum(w == 0.0 for _, weights in got for w in weights)
            # no occupation tuples: every pattern still comes back, weightless
            empty = optics._pattern_weights(det, cutoffs, [])
            assert empty == [(pattern, ()) for pattern in
                             itertools.product((False, True), repeat=n_modes)]
    assert zeros > 0  # eta 0 or 1 without dark counts gives exact zeros


def _table_bits(table):
    def bits(z):
        return z.real.hex(), z.imag.hex()
    return [(pattern, prob.hex(), None if post is None else
             [(pair, bits(v)) for pair, v in post.elements.items()])
            for pattern, (prob, post) in table.items()]


def test_branch_products_are_built_once_per_grouping(monkeypatch):
    built = []
    build = optics._branch_product
    monkeypatch.setattr(optics, "_branch_product",
                        lambda branch, shared: built.append(branch) or build(branch, shared))
    rng = np.random.default_rng(21)
    subs = (EnsembleQudit("A"), OpticalMode(2, "m1"), EnsembleQudit("B"), OpticalMode(2, "m2"))
    st = random_state(rng, subs, max_terms=30)
    detectors = (DetectorModel(efficiency=0.3, dark_count_rate_hz=3e4),
                 DetectorModel(efficiency=1.0))
    groups = group_occupations(st, (3, 1))
    shared = [detect_all_probabilities(groups, det) for det in detectors]
    assert len(built) == len(groups.branches) > 1
    for det, table in zip(detectors, shared):
        fresh = detect_all_probabilities(group_occupations(st, (3, 1)), det)
        assert _table_bits(table) == _table_bits(fresh)
    assert len(built) == 3 * len(groups.branches)

    # the cache is immutable all the way down, like the grouping itself
    assert isinstance(groups.products, tuple)
    for norm, pairs, values in groups.products:
        assert isinstance(norm, float) and isinstance(pairs, tuple) and isinstance(values, tuple)
        assert all(isinstance(pair, tuple) for pair in pairs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        groups.products = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        del groups.products


def test_detect_outcomes_builds_no_validated_operator(monkeypatch):
    st = HybridState((EnsembleQudit("A"), OpticalMode(2, "m")), {("g", 0): RT2, ("s", 2): RT2})
    rho = DensityOperator.from_pure(st)

    def refuse(*args):
        raise AssertionError("post states need no label validation")

    monkeypatch.setattr(DensityOperator, "__init__", refuse)
    outcomes = detect_outcomes(rho, 1, DetectorModel(efficiency=0.4))
    assert [p for _, p, _ in outcomes] == pytest.approx([0.5 + 0.5 * 0.36, 0.5 * 0.64])


def test_detect_all_zero_probability_patterns_have_no_post():
    subs = (OpticalMode(2, "m1"), OpticalMode(2, "m2"))
    st = HybridState.basis(subs, (0, 0))
    table = detect_all_probabilities(group_occupations(st, (0, 1)), DetectorModel.ideal())
    assert table[(False, False)][0] == pytest.approx(1.0)
    for pattern in ((True, False), (False, True), (True, True)):
        p, post = table[pattern]
        assert p == 0.0 and post is None


def test_score_patterns_matches_the_density_operator_table():
    # the scalar scorer against the post states it avoids building: the same
    # probability bit for bit, and overlap sum / probability = fidelity
    rng = np.random.default_rng(5)
    subs = (EnsembleQudit("A"), OpticalMode(2, "m1"), EnsembleQudit("B"), OpticalMode(2, "m2"))
    detectors = (DetectorModel(efficiency=0.0), DetectorModel(efficiency=0.45),
                 DetectorModel(efficiency=1.0), DetectorModel(efficiency=0.8, dark_count_rate_hz=3e4))
    for det in detectors:
        for _ in range(10):
            groups = group_occupations(random_state(rng, subs, max_terms=30), (3, 1))
            targets = [random_state(rng, subs, max_terms=8) for _ in range(3)]
            table = detect_all_probabilities(groups, det)
            scores = score_patterns(groups, det, targets)
            assert list(scores) == list(table)
            for pattern, (prob, post) in table.items():
                p, overlaps = scores[pattern]
                assert p.hex() == prob.hex() and len(overlaps) == len(targets)
                if post is None:
                    assert overlaps == (0.0,) * len(targets)
                    continue
                for target, overlap in zip(targets, overlaps):
                    assert overlap / p == pytest.approx(fidelity(post, target), abs=1e-12)
    # a pattern at or below the table's probability threshold heralds nothing
    faint = HybridState((EnsembleQudit("A"), OpticalMode(2, "m")), {("g", 0): 1.0, ("s", 1): 1e-7})
    groups = group_occupations(faint, (1,))
    assert detect_all_probabilities(groups, DetectorModel.ideal())[(True,)] == (0.0, None)
    assert score_patterns(groups, DetectorModel.ideal(), [faint])[(True,)] == (0.0, (0.0,))
    with pytest.raises(TypeError):
        score_patterns(random_state(rng, subs), DetectorModel.ideal(), ())


def test_group_occupations_validation():
    st = HybridState.basis((OpticalMode(2, "m1"), OpticalMode(2, "m2")), (0, 0))
    with pytest.raises(ValueError):
        group_occupations(st, (0, 0))
    with pytest.raises(ValueError):
        group_occupations(st, ())
    with pytest.raises(TypeError):
        group_occupations(DensityOperator.from_pure(st), (0, 1))


def test_detect_on_invalid_mode():
    st = HybridState((EnsembleQudit("A"), OpticalMode(2, "m")), {("g", 1): 1.0})
    with pytest.raises(ValueError):
        detect_outcomes(DensityOperator.from_pure(st), 0, DetectorModel.ideal())


def test_density_functions_refuse_anything_but_a_density_operator():
    subs = (EnsembleQudit("A"), OpticalMode(2, "m"))
    pure = HybridState.basis(subs, ("g", 1))
    det = DetectorModel.ideal()
    maps = (
        lambda obj: fidelity(obj, pure),
        lambda obj: partial_trace(obj, (0,)),
        lambda obj: detect_outcomes(obj, 1, det),
        lambda obj: DensityOperator.mixture([(1.0, obj)]),
    )
    for apply in maps:
        apply(DensityOperator.from_pure(pure))
        with pytest.raises(TypeError):
            apply(pure)
    # the joint table takes a grouping only
    detect_all_probabilities(group_occupations(pure, (1,)), det)
    for obj in (pure, DensityOperator.from_pure(pure)):
        with pytest.raises(TypeError):
            detect_all_probabilities(obj, det)
