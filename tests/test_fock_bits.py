"""The Fock engine's cached index paths give the bits of the plain forms.

`tensor`, `condition_on_counts`, `EntangledPairState.from_density`,
`repeater.pair_family_projection` and the two repeater protocols read their
index sets, splitter adjoints and phase factors from per-basis caches.  The
references here are the plain forms of the same steps: `np.ix_` blocks, a
boolean off-form mask, a zero-padded projected matrix, a splitter adjoint
and phase factors formed on every call.  Every matrix must match byte for
byte (so the sign of every zero too) and every probability, leakage and
fidelity must have the same `float.hex`.
"""
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entscope import fock, oracle, repeater
from entscope.fock import (
    DensityOperator,
    EntangledPairState,
    _basis_array,
    _basis_rows,
    dimension,
    pair_rows,
)


def ref_photon_support(rho):
    nonzero = rho.matrix != 0
    live = nonzero.any(axis=0) | nonzero.any(axis=1)
    totals = _basis_array(rho.mode_count, rho.photon_cutoff).sum(axis=1)
    return int(totals[live].max(initial=0))


def ref_tensor(a, b):
    cutoff = ref_photon_support(a) + ref_photon_support(b)
    modes = a.mode_count + b.mode_count
    occ_a = _basis_array(a.mode_count, a.photon_cutoff)
    occ_b = _basis_array(b.mode_count, b.photon_cutoff)
    ia, ib = np.nonzero(occ_a.sum(axis=1)[:, None] + occ_b.sum(axis=1) <= cutoff)
    joint = _basis_rows(modes, cutoff, np.hstack((occ_a[ia], occ_b[ib])))
    dim = dimension(modes, cutoff)
    out = np.zeros((dim, dim), dtype=complex)
    out[np.ix_(joint, joint)] = a.matrix[np.ix_(ia, ia)] * b.matrix[np.ix_(ib, ib)]
    return DensityOperator(modes, cutoff, out)


def ref_condition_on_counts(rho, counts):
    keep = tuple(m for m in range(rho.mode_count) if m not in counts)
    occs = _basis_array(rho.mode_count, rho.photon_cutoff)
    items = sorted(counts.items())
    sel = np.flatnonzero((occs[:, [m for m, _ in items]] == [c for _, c in items]).all(axis=1))
    new_rows = _basis_rows(len(keep), rho.photon_cutoff, occs[np.ix_(sel, keep)])
    prob = float(np.real(rho.matrix[sel, sel].sum()))
    if prob <= 0.0:
        return 0.0, None
    dim_new = dimension(len(keep), rho.photon_cutoff)
    out = np.zeros((dim_new, dim_new), dtype=complex)
    out[np.ix_(new_rows, new_rows)] = rho.matrix[np.ix_(sel, sel)]
    return prob, DensityOperator(len(keep), rho.photon_cutoff, out / prob)


def ref_apply_beam_splitter(state, mode_a, mode_b, transmissivity, phase=0.0):
    u, _ = fock._bs_unitary(state.mode_count, state.photon_cutoff, mode_a, mode_b,
                            float(transmissivity), float(phase))
    return DensityOperator(state.mode_count, state.photon_cutoff,
                           u @ state.matrix @ u.conjugate().T)


def ref_apply_phase(state, mode, delta):
    phases = np.exp(1j * delta * _basis_array(state.mode_count, state.photon_cutoff)[:, mode])
    return DensityOperator(state.mode_count, state.photon_cutoff,
                           state.matrix * np.outer(phases, phases.conjugate()))


def ref_vacuum(mode_count, photon_cutoff):
    return DensityOperator.pure(mode_count, photon_cutoff, {(0,) * mode_count: 1.0 + 0.0j})


def ref_from_density(rho, atol=fock.FORM_TOL):
    rows = pair_rows(rho.photon_cutoff)
    m = rho.matrix
    w0, p01, p10, w2 = (m[rows, rows].real.tolist() + [0.0])[:4]
    off = complex(m[rows[2], rows[1]])
    mask = np.ones_like(m, dtype=bool)
    mask[rows, rows] = mask[rows[2], rows[1]] = mask[rows[1], rows[2]] = False
    stray = float(np.abs(m[mask]).max()) if mask.any() else 0.0
    if stray > atol:
        raise ValueError(f"density matrix is not of pair-family form "
                         f"(off-form entry {stray:.3e} > {atol:.0e})")
    if abs(p01 - p10) > atol:
        raise ValueError(f"one-photon sector unbalanced by {abs(p01 - p10):.3e}")
    w1 = p01 + p10
    if w1 > atol:
        c = min(abs(off) / (w1 / 2.0), 1.0)
        psi = float(np.angle(off))
    else:
        w1, c, psi = 0.0, 0.0, 0.0
    total = w0 + w1 + w2
    if not total > 0.0:
        raise ValueError(f"weights must have a positive sum, got {total} "
                         f"(vacuum {w0}, one-photon {w1}, |11> {w2})")
    return EntangledPairState(w0 / total, w1 / total, c, psi, w2 / total)


def ref_pair_family_projection(rho, atol=1e-9):
    inside = pair_rows(rho.photon_cutoff)
    sel = np.ix_(inside, inside)
    kept = np.zeros_like(rho.matrix)
    kept[sel] = rho.matrix[sel]
    weight = float(np.real(np.trace(kept)))
    leakage = max(float(np.real(np.trace(rho.matrix))) - weight, 0.0)
    if weight <= 1e-15:
        return EntangledPairState(1.0, 0.0, 0.0, 0.0), leakage
    one = inside[1:3]
    p01, p10 = kept[one, one].real.tolist()
    if abs(p01 - p10) > atol:
        kept[one, one] = (p01 + p10) / 2.0
        leakage += abs(p01 - p10) / 2.0
    reduced = DensityOperator(2, rho.photon_cutoff, kept / weight)
    return ref_from_density(reduced, atol=atol), leakage


def _ref_heralds(rho, monitor_a, monitor_b):
    total = 0.0
    acc = None
    for counts, flip in (({monitor_a: 1, monitor_b: 0}, False),
                         ({monitor_a: 0, monitor_b: 1}, True)):
        prob, cond = ref_condition_on_counts(rho, counts)
        if cond is None:
            continue
        if flip:
            cond = ref_apply_phase(cond, 0, math.pi)
        total += prob
        acc = cond.matrix * prob if acc is None else acc + cond.matrix * prob
    if acc is None:
        return 0.0, None
    return total, DensityOperator(2, rho.photon_cutoff, acc / total)


def ref_sscg_distill(a, b, t_low, t_high):
    rho = ref_tensor(a.to_density(), b.to_density())
    rho = ref_apply_beam_splitter(rho, 0, 2, t_low)
    rho = ref_apply_beam_splitter(rho, 1, 3, t_high, phase=math.pi)
    prob, cond = _ref_heralds(rho, 3, 2)
    if cond is None:
        return repeater.ProtocolResult(0.0, None)
    kept = 1.0 - float(cond.matrix[0, 0].real)
    if kept <= 1e-15:
        return repeater.ProtocolResult(0.0, None)
    matrix = cond.matrix.copy()
    matrix[0, 0] = 0.0
    cond = DensityOperator(2, cond.photon_cutoff, matrix / kept)
    pair, leakage = ref_pair_family_projection(cond)
    return repeater.ProtocolResult(prob * kept, pair, cond, leakage)


def ref_entanglement_swap(a, b):
    rho = ref_tensor(a.to_density(), b.to_density())
    rho = ref_apply_beam_splitter(rho, 1, 2, 0.5)
    prob, cond = _ref_heralds(rho, 1, 2)
    if cond is None:
        return repeater.ProtocolResult(0.0, None)
    cond = ref_apply_phase(cond, 0, -math.pi / 2.0)
    return repeater.ProtocolResult(prob, ref_from_density(cond), cond)


def _hex(values):
    return [float(v).hex() for v in values]


def _assert_same_pair(got, want):
    assert _hex(dataclasses.astuple(got)) == _hex(dataclasses.astuple(want))
    assert float(got.fidelity()).hex() == float(want.fidelity()).hex()


def _assert_same_density(got, want):
    assert (got.mode_count, got.photon_cutoff) == (want.mode_count, want.photon_cutoff)
    assert got.matrix.dtype == want.matrix.dtype and got.matrix.shape == want.matrix.shape
    assert np.array_equal(got.matrix, want.matrix)
    assert got.matrix.tobytes() == want.matrix.tobytes()


def _assert_same_result(got, want):
    assert _hex((got.success_probability, got.leakage)) == \
        _hex((want.success_probability, want.leakage))
    assert (got.output is None) == (want.output is None)
    if want.output is not None:
        _assert_same_pair(got.output, want.output)
        _assert_same_density(got.output_density, want.output_density)


def _outcome(step, *args):
    """A step's result, or its ValueError's message."""
    try:
        return step(*args)
    except ValueError as exc:
        return str(exc)


def _assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_result(got, want)


def _distillation_grid():
    for t_low, t_high in oracle.DISTILL_SPLITTERS:
        for w0_a in oracle.DISTILL_WEIGHT_GRID:
            for w0_b in oracle.DISTILL_WEIGHT_GRID:
                for c in oracle.DISTILL_COHERENCE_GRID:
                    for psi in (0.0, 0.7):
                        yield (EntangledPairState(w0_a, 1.0 - w0_a, c, psi),
                               EntangledPairState(w0_b, 1.0 - w0_b, c, 0.0), t_low, t_high)


def _swap_grid():
    for w0_a in (0.0, 0.2, 0.4):
        for w0_b in (0.0, 0.3):
            for c in (0.5, 1.0):
                for psi_a, psi_b in ((0.0, 0.0), (0.8, -0.3)):
                    yield (EntangledPairState(w0_a, 1.0 - w0_a, c, psi_a),
                           EntangledPairState(w0_b, 1.0 - w0_b, c, psi_b))


def test_distillation_grid_is_bit_identical():
    cases = list(_distillation_grid())
    assert len(cases) == oracle.check_distillation().cases
    for a, b, t_low, t_high in cases:
        _assert_same_result(repeater.sscg_distill(a, b, t_low, t_high),
                            ref_sscg_distill(a, b, t_low, t_high))


def test_swap_grid_is_bit_identical():
    cases = list(_swap_grid())
    assert len(cases) == oracle.check_swap().cases
    for a, b in cases:
        _assert_same_result(repeater.entanglement_swap(a, b), ref_entanglement_swap(a, b))


def _family(double):
    w2 = st.floats(0.05, 0.4) if double else st.just(0.0)
    return st.builds(
        lambda w0, w2, c, psi: EntangledPairState(w0 * (1.0 - w2), (1.0 - w0) * (1.0 - w2),
                                                  c, psi, w2),
        st.floats(0.0, 0.6), w2, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), double=st.booleans(), t_low=st.floats(0.0, 1.0),
       t_high=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_protocols_on_family_states_are_bit_identical(data, double, t_low, t_high):
    """With |11> weight the joint cutoff is 4, the distilled output leaves the
    family and is reprojected (rebalanced too, with an asymmetric t_high),
    and the swap output may be off-form: the same error then."""
    a, b = data.draw(_family(double)), data.draw(_family(double))
    t_high = 1.0 - t_low if t_high is None else t_high
    _assert_same_outcome(_outcome(repeater.sscg_distill, a, b, t_low, t_high),
                         _outcome(ref_sscg_distill, a, b, t_low, t_high))
    _assert_same_outcome(_outcome(repeater.entanglement_swap, a, b),
                         _outcome(ref_entanglement_swap, a, b))


def _random_state(modes, cutoff, support, seed):
    """A random PSD state whose rows above support photons are zero."""
    occs = _basis_array(modes, cutoff)
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(len(occs), 3)) + 1j * rng.normal(size=(len(occs), 3))
    g[occs.sum(axis=1) > support] = 0.0
    rho = g @ g.conjugate().T
    return DensityOperator(modes, cutoff, rho / np.trace(rho).real)


@st.composite
def _states(draw, modes=st.integers(1, 3), cutoffs=st.integers(1, 4)):
    modes, cutoff = draw(modes), draw(cutoffs)
    support = draw(st.integers(0, cutoff))
    return _random_state(modes, cutoff, support, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=100, deadline=None)
@given(a=_states(), b=_states())
def test_tensor_and_photon_support_are_bit_identical(a, b):
    assert a.photon_support() == ref_photon_support(a)
    _assert_same_density(a.tensor(b), ref_tensor(a, b))


@settings(max_examples=100, deadline=None)
@given(rho=_states(st.integers(2, 4), st.integers(1, 3)), data=st.data())
def test_condition_on_counts_is_bit_identical(rho, data):
    modes = data.draw(st.lists(st.integers(0, rho.mode_count - 1), min_size=1,
                               max_size=rho.mode_count - 1, unique=True))
    counts = {m: data.draw(st.integers(0, rho.photon_cutoff)) for m in modes}
    prob, cond = fock.condition_on_counts(rho, counts)
    ref_prob, ref_cond = ref_condition_on_counts(rho, counts)
    assert float(prob).hex() == float(ref_prob).hex()
    assert (cond is None) == (ref_cond is None)
    if cond is not None:
        _assert_same_density(cond, ref_cond)


@settings(max_examples=100, deadline=None)
@given(rho=_states(), data=st.data(), t=st.floats(0.0, 1.0), phi=st.floats(-4.0, 4.0))
def test_splitter_and_phase_are_bit_identical(rho, data, t, phi):
    mode = data.draw(st.integers(0, rho.mode_count - 1))
    _assert_same_density(fock.apply_phase(rho, mode, phi), ref_apply_phase(rho, mode, phi))
    if rho.mode_count > 1:
        other = data.draw(st.integers(0, rho.mode_count - 1).filter(lambda m: m != mode))
        _assert_same_density(fock.apply_beam_splitter(rho, mode, other, t, phi),
                             ref_apply_beam_splitter(rho, mode, other, t, phi))


@settings(max_examples=50, deadline=None)
@given(rho=_states(st.integers(1, 4), st.integers(0, 3)), pnr=st.booleans())
def test_outcome_distribution_is_the_same_in_blocks_of_one_occupation(rho, pnr):
    """A table summed one occupation per block carries its sums over from
    block to block: the same keys and bits as one block."""
    detector = fock.DetectorModel(0.7, 0.01, pnr)
    whole = fock.outcome_distribution(rho, detector)
    with mock.patch.object(fock, "_BLOCK_ELEMENTS", 1):
        blocks = fock.outcome_distribution(rho, detector)
    assert list(blocks) == list(whole)
    assert _hex(blocks.values()) == _hex(whole.values())
    assert all(type(v) is float for v in whole.values())


@pytest.mark.parametrize("modes, cutoff", [(1, 0), (2, 0), (4, 0), (2, 3), (3, 2)])
def test_vacuum_is_bit_identical(modes, cutoff):
    _assert_same_density(DensityOperator.vacuum(modes, cutoff), ref_vacuum(modes, cutoff))


@settings(max_examples=150, deadline=None)
@given(rho=_states(st.just(2)), noise=st.sampled_from([0.0, 1e-13, 1e-6]),
       atol=st.sampled_from([fock.FORM_TOL, 1e-9, 1.0]))
def test_family_read_back_and_projection_are_bit_identical(rho, noise, atol):
    """A random two-mode state is mostly off-form; a family member plus a
    little noise is not."""
    for state in (rho, _near_family(rho, noise)):
        got = _outcome(repeater.pair_family_projection, state, atol)
        want = _outcome(ref_pair_family_projection, state, atol)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            _assert_same_pair(got[0], want[0])
            assert float(got[1]).hex() == float(want[1]).hex()
        got = _outcome(EntangledPairState.from_density, state, atol)
        want = _outcome(ref_from_density, state, atol)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            _assert_same_pair(got, want)


def _near_family(rho, noise):
    """rho's diagonal and one-photon coherence at its own cutoff, plus noise."""
    rows = pair_rows(rho.photon_cutoff)
    out = np.zeros_like(rho.matrix)
    out[rows, rows] = rho.matrix[rows, rows]
    out[rows[1], rows[2]] = out[rows[2], rows[1]] = rho.matrix[rows[2], rows[1]]
    out[rows[1], rows[1]] = out[rows[2], rows[2]]
    return DensityOperator(2, rho.photon_cutoff, out + noise * rho.matrix)


def _raise(*args, **kwargs):
    raise AssertionError("the closed form made a Fock call")


def test_closed_form_helpers_make_no_fock_call():
    """The distillation and swap closed forms stand apart from the circuit
    route: no DensityOperator, no pair-family matrix and no Fock circuit
    while they run."""
    runs = []
    splitters = [(oracle._splitter_unitary(4, 1, 3, t_high, phase=math.pi)
                  @ oracle._splitter_unitary(4, 0, 2, t_low)).tolist()
                 for t_low, t_high in oracle.DISTILL_SPLITTERS]
    swap = oracle._splitter_unitary(4, 1, 2, 0.5).tolist()
    for a, b, t_low, t_high in _distillation_grid():
        u = splitters[[s[0] for s in oracle.DISTILL_SPLITTERS].index(t_low)]
        runs.append(lambda a=a, b=b, u=u: oracle._two_photon_conditionals(
            a, b, u, (0, 1), (2, 3), lambda m: math.pi if m == 2 else 0.0))
    for a, b in _swap_grid():
        runs.append(lambda a=a, b=b: oracle._two_photon_conditionals(
            a, b, swap, (0, 3), (1, 2), lambda m: -math.pi / 2.0))
        runs.append(lambda a=a: oracle._herald_click_prob(a, (0, 1), swap, (1, 2)))
        runs.append(lambda b=b: oracle._qubit_components(b, 2, 3, swap))
    expected = [run() for run in runs]
    fock_functions = [name for name, value in vars(fock).items()
                      if callable(value) and getattr(value, "__module__", None) == fock.__name__
                      and not isinstance(value, type)]
    with mock.patch.object(DensityOperator, "__init__", _raise), \
            mock.patch.object(EntangledPairState, "to_density", _raise), \
            mock.patch.object(EntangledPairState, "from_density", _raise), \
            mock.patch.object(EntangledPairState, "from_pair_block", _raise), \
            mock.patch.multiple(fock, **{name: _raise for name in fock_functions}), \
            mock.patch.multiple(oracle, **{name: _raise for name in (
                "sscg_distill", "entanglement_swap", "pair_rows", "dimension",
                "two_telescope_distribution", "direct_distribution")}), \
            mock.patch.multiple(repeater, **{name: _raise for name in (
                "apply_beam_splitter", "apply_phase", "condition_on_counts",
                "pair_family_projection", "sscg_distill", "entanglement_swap")}):
        assert [run() for run in runs] == expected
