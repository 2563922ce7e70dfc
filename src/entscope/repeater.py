"""Single-rail entanglement distribution: links, distillation, swapping, chains.

The states flowing through a repeater chain live in a three-parameter family
(`fock.EntangledPairState`): a vacuum weight, a balanced one-photon sector
with coherence c and phase psi (the interferometric arrival state is the
member with c e^{i psi} = v), and a double-excitation |11> weight from
imperfect pair sources.  Loss and dephasing keep the family
closed; so do the distillation and swapping circuits below for states with no
double excitation.  Every protocol step is realized as an exact circuit on
the Fock simulator and then read back into the family, so the parameterized
bookkeeping can always be cross-checked against the raw density matrix.

Conventions: fidelity is always with respect to (|01> + |10>)/sqrt(2);
protocol heralds condition on exactly one photon detected across the two
monitored outputs (photon-number-resolving monitors), and distillation
additionally drops herald events that leave the kept modes empty (see
`sscg_distill`); time is measured in attempt slots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fock import (
    FORM_TOL,
    DensityOperator,
    EntangledPairState,
    apply_beam_splitter,
    apply_phase,
    condition_on_counts,
    pair_rows,
)

DEFAULT_SPLIT_LOW = 0.15
DEFAULT_SPLIT_HIGH = 0.85


@dataclass(frozen=True)
class LinkModel:
    """One physical channel between neighbouring nodes.

    transmission() = 10^(-attenuation_db_per_km * length_km / 10) * extra;
    `extra` covers everything that is not fibre attenuation (coupling,
    pointing; 0.01 for the satellite preset).  phase_noise_sigma is the
    standard deviation of the relative-phase kick per transit, in radians.
    """

    length_km: float = 0.0
    attenuation_db_per_km: float = 0.2
    extra_transmission: float = 1.0
    phase_noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.length_km < 0:
            raise ConfigError(f"length_km must be >= 0, got {self.length_km}")
        if self.attenuation_db_per_km < 0:
            raise ConfigError("attenuation_db_per_km must be >= 0, "
                              f"got {self.attenuation_db_per_km}")
        if not 0.0 < self.extra_transmission <= 1.0:
            raise ConfigError("extra_transmission must be in (0, 1], "
                              f"got {self.extra_transmission}")
        if self.phase_noise_sigma < 0:
            raise ConfigError("phase_noise_sigma must be >= 0")
        try:  # heralded_pair_state dephases by exp(-sigma ** 2 / 2)
            self.phase_noise_sigma ** 2
        except OverflowError:
            raise ConfigError(f"phase_noise_sigma: sigma ** 2 overflows, "
                              f"got {self.phase_noise_sigma!r}") from None
        if not self.transmission() > 0.0:  # 10^(-0.2 * 1e5 / 10) underflows
            raise ConfigError(f"transmission must be positive, got {self.transmission()} "
                              f"at length_km {self.length_km}")

    def transmission(self) -> float:
        return 10.0 ** (-self.attenuation_db_per_km * self.length_km / 10.0) \
            * self.extra_transmission

    @classmethod
    def satellite(cls, phase_noise_sigma: float = 0.0) -> "LinkModel":
        """Free-space downlink preset: overall transmission 0.01."""
        return cls(length_km=0.0, attenuation_db_per_km=0.0,
                   extra_transmission=0.01, phase_noise_sigma=phase_noise_sigma)


def pair_family_projection(rho: DensityOperator, atol: float = 1e-9
                           ) -> tuple[EntangledPairState, float]:
    """Project onto the at-most-one-photon-per-mode subspace and read back.

    Returns (state, leakage).  Leakage counts the discarded probability in
    higher occupations plus the trace-distance cost of rebalancing an uneven
    one-photon sector, so a zero leakage means the input was exactly of
    family form.  Used when double excitations or asymmetric splitter
    settings push a protocol output outside the exact family.
    """
    inside = pair_rows(rho.photon_cutoff)
    sel = np.ix_(inside, inside)
    kept = np.zeros_like(rho.matrix)
    kept[sel] = rho.matrix[sel]
    weight = float(np.real(np.trace(kept)))
    leakage = max(rho.trace() - weight, 0.0)
    if weight <= 1e-15:
        return EntangledPairState(1.0, 0.0, 0.0, 0.0), leakage
    one = inside[1:3]  # (0, 1) and (1, 0)
    p01, p10 = kept[one, one].real.tolist()
    if abs(p01 - p10) > atol:
        kept[one, one] = (p01 + p10) / 2.0
        leakage += abs(p01 - p10) / 2.0
        # Rebalancing can strand an off-diagonal above sqrt(p01' p10');
        # from_density clamps the read-back coherence at 1.
    reduced = DensityOperator(2, rho.photon_cutoff, kept / weight)
    # Coherences between the kept sector and discarded occupations are gone;
    # within the kept sector the projection is exact.
    return EntangledPairState.from_density(reduced, atol=atol), leakage


# ---------------------------------------------------------------------------
# Channel steps
# ---------------------------------------------------------------------------

def transmit_pair(pair: EntangledPairState, link: LinkModel,
                  rng: np.random.Generator | None = None) -> EntangledPairState:
    """Send both arms of a pair through the link (loss + phase noise).

    Each arm independently keeps its photon with probability
    link.transmission().  In analytic mode (rng None) the phase noise
    dephases the coherence by exp(-sigma^2/2); in Monte Carlo mode a single
    relative-phase kick is drawn instead and the coherence is untouched.
    Asymmetric per-arm loss leaves the balanced family and is not modeled.
    """
    eta = link.transmission()
    w1, w2 = pair.one_photon_weight, pair.two_photon_weight
    w1_new = eta * w1 + 2.0 * eta * (1.0 - eta) * w2
    w2_new = eta * eta * w2
    w0_new = 1.0 - w1_new - w2_new
    denom = w1 + 2.0 * (1.0 - eta) * w2
    c = pair.coherence * (w1 / denom) if denom > 0 else 0.0
    psi = pair.phase
    sigma = link.phase_noise_sigma
    if rng is None:
        c *= math.exp(-sigma * sigma / 2.0)
    elif sigma > 0:
        psi = float(psi + rng.normal(0.0, sigma))
    if w1_new <= FORM_TOL:
        c, psi = 0.0, 0.0
    return EntangledPairState(w0_new, w1_new, c, psi, w2_new)


def heralded_pair_state(link: LinkModel,
                        double_excitation_weight: float = 0.0) -> EntangledPairState:
    """State delivered by a successful heralded generation over the link.

    Loss is absorbed by the retry-until-herald loop, so only the link's phase
    noise (as analytic dephasing) and the source's double-excitation weight
    degrade the delivered pair.
    """
    if not 0.0 <= double_excitation_weight < 1.0:
        raise ConfigError("double_excitation_weight must be in [0, 1)")
    c = math.exp(-link.phase_noise_sigma ** 2 / 2.0)
    return EntangledPairState(0.0, 1.0 - double_excitation_weight, c, 0.0,
                              double_excitation_weight)


# ---------------------------------------------------------------------------
# Distillation and swapping (exact circuits)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolResult:
    """Success probability and heralded output of a two-pair protocol step.

    output is the family form (projected if double excitations leak out of
    it; `leakage` records the discarded weight).  output_density is the exact
    unprojected conditional state for oracle comparisons.  output is None
    when the step cannot succeed.
    """

    success_probability: float
    output: EntangledPairState | None
    output_density: DensityOperator | None = None
    leakage: float = 0.0


def _monitored_heralds(rho: DensityOperator, monitor_a: int,
                       monitor_b: int) -> tuple[float, DensityOperator | None]:
    """Condition on exactly one photon detected across two monitored modes.

    Mixes the two single-photon heralds.  For the herald where monitor_b
    fired, the remaining two modes get a phase of pi on mode 0 relative to
    the monitor_a branch.
    """
    cutoff = rho.photon_cutoff
    total = 0.0
    acc = None
    for counts, flip in (({monitor_a: 1, monitor_b: 0}, False),
                         ({monitor_a: 0, monitor_b: 1}, True)):
        prob, cond = condition_on_counts(rho, counts)
        if cond is None:
            continue
        if flip:
            cond = apply_phase(cond, 0, math.pi)
        total += prob
        acc = cond.matrix * prob if acc is None else acc + cond.matrix * prob
    if acc is None:
        return 0.0, None
    return total, DensityOperator(2, cutoff, acc / total)


def sscg_distill(a: EntangledPairState, b: EntangledPairState,
                 t_low: float = DEFAULT_SPLIT_LOW,
                 t_high: float = DEFAULT_SPLIT_HIGH) -> ProtocolResult:
    """One round of unbalanced-splitter distillation consuming pairs a and b.

    The two left-side modes meet on a splitter of transmissivity t_low, the
    two right-side modes on one of t_high, and one output of each splitter is
    monitored.  Success keeps the state iff exactly one photon is detected at
    the monitors and the kept modes are not left empty; two detections mean
    no photons remain and the output is discarded.  The kept modes are a's
    original pair of modes.

    A lone input photon (vacuum-mixed inputs) can itself trigger the single
    click, leaving nothing behind.  Those events are excluded from the
    success statistics here: in this single-rail setting every downstream
    consumer of the pair post-selects on detecting the photon, so an emptied
    register costs rate, not fidelity.  With them included no splitter choice
    could ever raise the fidelity of a vacuum-mixed input (the lone-photon
    click probability is exactly 1/2, independent of the splitters).

    The family reprojection is exact when t_high = 1 - t_low (the defaults;
    the reflection symmetry rebalances the mixed one-photon output) and the
    inputs carry no double excitation.
    """
    if not (0.0 <= t_low <= 1.0 and 0.0 <= t_high <= 1.0):
        raise ValueError("splitter transmissivities must be in [0, 1]")
    rho = a.to_density().tensor(b.to_density())
    # The relative pi between the two splitters plus the pi feed-forward on
    # the left-monitor herald are calibration choices under the package
    # splitter convention; together they make a left-monitor and a
    # right-monitor success produce the same output state for perfect
    # inputs (checked against the circuit in the tests).
    rho = apply_beam_splitter(rho, 0, 2, t_low)
    rho = apply_beam_splitter(rho, 1, 3, t_high, phase=math.pi)
    prob, cond = _monitored_heralds(rho, 3, 2)
    if cond is None:
        return ProtocolResult(0.0, None)
    vacuum_part = float(cond.matrix[0, 0].real)
    kept = 1.0 - vacuum_part
    if kept <= 1e-15:
        return ProtocolResult(0.0, None)
    matrix = cond.matrix.copy()
    matrix[0, 0] = 0.0
    cond = DensityOperator(2, cond.photon_cutoff, matrix / kept)
    prob *= kept
    pair, leakage = pair_family_projection(cond)
    return ProtocolResult(prob, pair, cond, leakage)


def entanglement_swap(a: EntangledPairState, b: EntangledPairState) -> ProtocolResult:
    """Linear-optics swap: pairs (1,2) and (2,3) become a pair (1,3).

    The two middle-node modes interfere on a balanced splitter and both
    outputs are monitored; exactly one click heralds success (probability 1/2
    for ideal inputs).  Each herald imposes a known +-pi/2 phase on the
    surviving pair, which is corrected here, so the output phase is
    psi_a + psi_b.
    """
    rho = a.to_density().tensor(b.to_density())
    rho = apply_beam_splitter(rho, 1, 2, 0.5)
    # Herald on monitor 1 leaves the outer pair with an extra +pi/2 on the
    # outer-left arm; the monitor-2 branch gets -pi/2.  Both are undone below
    # (the monitor-1 branch via the base correction, the monitor-2 branch via
    # the relative correction of +pi).
    prob, cond = _monitored_heralds(rho, 1, 2)
    if cond is None:
        return ProtocolResult(0.0, None)
    cond = apply_phase(cond, 0, -math.pi / 2.0)
    return ProtocolResult(prob, EntangledPairState.from_density(cond), cond)


def optimize_distill_splitter(a: EntangledPairState, b: EntangledPairState,
                              steps: int = 199) -> tuple[float, ProtocolResult]:
    """Best t_low (with t_high = 1 - t_low) for output fidelity; golden-section
    refinement after a coarse scan."""
    def fid(t: float) -> float:
        res = sscg_distill(a, b, t, 1.0 - t)
        return res.output.fidelity() if res.output is not None else 0.0

    grid = np.linspace(0.005, 0.995, steps)
    best = grid[int(np.argmax([fid(t) for t in grid]))]
    lo, hi = max(best - 0.01, 0.0), min(best + 0.01, 1.0)
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = fid(x1), fid(x2)
    for _ in range(40):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = fid(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = fid(x1)
    t_best = (lo + hi) / 2.0
    return float(t_best), sscg_distill(a, b, t_best, 1.0 - t_best)


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainPolicy:
    """Scheduling and distillation policy for a repeater chain.

    distill_rounds[k] = rounds applied at nesting level k (level 0 = freshly
    generated segment pairs, level k = pairs produced by the k-th swap
    layer); missing levels default to 0.  with_memory selects the
    generate-both-halves-then-swap schedule; the memoryless alternative
    requires everything to succeed in one slot and cannot distill.
    double_excitation_weight is carried by every generated pair.
    """

    distill_rounds: tuple[int, ...] = ()
    with_memory: bool = True
    double_excitation_weight: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "distill_rounds",
                           tuple(int(r) for r in self.distill_rounds))
        if any(r < 0 for r in self.distill_rounds):
            raise ConfigError("distill_rounds entries must be >= 0")
        if not self.with_memory and any(self.distill_rounds):
            raise ConfigError("distillation requires with_memory=True (schedule = "
                              "memory): pairs must wait for each other")
        if not 0.0 <= self.double_excitation_weight < 1.0:
            raise ConfigError("double_excitation_weight must be in [0, 1)")

    def rounds_at(self, level: int) -> int:
        return self.distill_rounds[level] if level < len(self.distill_rounds) else 0


@dataclass(frozen=True)
class ChainResult:
    rate: float
    fidelity: float
    distill_rounds_used: int
    final_state: EntangledPairState
    expected_slots: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if not -1e-12 <= self.fidelity <= 1.0 + 1e-12:
            raise ValueError(f"fidelity must be in [0, 1], got {self.fidelity}")


def _expected_max_geometric(e1: float, e2: float) -> float:
    """E[max] of two independent geometrics given their means.

    Exact for geometric segment times; deeper levels feed their expected
    times back in as if geometric, which is the documented approximation of
    the analytic schedule model.
    """
    q1, q2 = 1.0 / e1, 1.0 / e2
    return e1 + e2 - 1.0 / (q1 + q2 - q1 * q2)


@dataclass(frozen=True)
class _PlanNode:
    """One distinct node of a chain's schedule tree.

    A leaf (children None) is heralded generation: geometric attempts with
    per-attempt success p, one attempt per slot.  Any other node
    repeats an attempt -- sample children[0], then children[1], keep the
    later delivery time -- until a coin with probability p succeeds: a swap,
    or a distillation round (both children the same node).  state, slots,
    used and prob_slot are the analytic model's values for the node output.
    """

    state: EntangledPairState
    slots: float
    used: int
    prob_slot: float
    p: float
    children: tuple[int, int] | None = None


def _chain_plan(links: list[LinkModel], policy: ChainPolicy) -> list[_PlanNode]:
    """The chain's schedule tree with children before parents, root last.

    Identical subtrees (the same links) share one node; the analytic values
    are computed once per node, in the float order of the nested schedule.
    """
    plan: list[_PlanNode] = []
    built: dict[tuple[LinkModel, ...], int] = {}

    def distill(idx: int, rounds: int) -> int:
        for _ in range(rounds):
            node = plan[idx]
            step = sscg_distill(node.state, node.state)
            if step.output is None or step.success_probability <= 0.0:
                break
            p = step.success_probability
            plan.append(_PlanNode(
                step.output, _expected_max_geometric(node.slots, node.slots) / p,
                node.used + 1, node.prob_slot, p, (idx, idx)))
            idx = len(plan) - 1
        return idx

    def build(segment_links: tuple[LinkModel, ...]) -> int:
        if segment_links in built:
            return built[segment_links]
        if len(segment_links) == 1:
            link = segment_links[0]
            q = link.transmission()
            plan.append(_PlanNode(
                heralded_pair_state(link, policy.double_excitation_weight),
                1.0 / q, 0, q, q))
            idx = distill(len(plan) - 1, policy.rounds_at(0))
        else:
            mid = (len(segment_links) + 1) // 2
            a, b = build(segment_links[:mid]), build(segment_links[mid:])
            left, right = plan[a], plan[b]
            swap = entanglement_swap(left.state, right.state)
            if swap.output is None or swap.success_probability <= 0.0:
                raise ConfigError("chain cannot produce entanglement (swap never succeeds)")
            p = swap.success_probability
            plan.append(_PlanNode(
                swap.output, _expected_max_geometric(left.slots, right.slots) / p,
                left.used + right.used, left.prob_slot * right.prob_slot * p, p,
                (a, b)))
            idx = distill(len(plan) - 1,
                          policy.rounds_at(_depth_of(len(segment_links))))
        built[segment_links] = idx
        return idx

    build(tuple(links))
    return plan


def _depth_of(n_segments: int) -> int:
    return max(math.ceil(math.log2(n_segments)), 0) if n_segments > 1 else 0


# Smallest success probability the Monte Carlo draws a geometric from:
# numpy's int64 geometric stops at 2**63 - 1, which a draw at 2**-56 reaches
# with probability about e**-128.
MC_MIN_PROB = 2.0 ** -56


def chain_simulate(segments: int, links: LinkModel | list[LinkModel],
                   policy: ChainPolicy | None = None,
                   rng: np.random.Generator | None = None,
                   n_trials: int = 1000) -> ChainResult:
    """End-to-end rate and fidelity of a repeater chain.

    Analytic mode (rng None): with_memory uses the nested schedule with the
    geometric-composition approximation for expected times (exact for a
    single swap level); memoryless mode is exact (all segments and swaps must
    succeed within one slot).  Monte Carlo mode samples the schedule's
    delivery times over n_trials and reports rate = trials / total slots;
    the state and fidelity always come from the analytic ensemble average.
    It raises ConfigError where a geometric it draws from has success
    probability below MC_MIN_PROB; memoryless chains whose per-slot
    probability underflows to 0 raise in both modes.

    The with-memory Monte Carlo draws exactly what a recursive scalar
    sampler would -- one rng.geometric per generation, then one rng.random
    per swap or distillation coin, depth first, left before right -- and
    leaves rng where that sampler leaves it, so a seed gives the same
    result either way (see _mc_total_slots).
    """
    if segments < 1:
        raise ConfigError(f"segments must be >= 1, got {segments}")
    if rng is not None and n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    link_list = list(links) if isinstance(links, (list, tuple)) else [links] * segments
    if len(link_list) != segments:
        raise ConfigError(f"need one link per segment ({segments}), "
                          f"got {len(link_list)}")
    policy = policy or ChainPolicy()
    plan = _chain_plan(link_list, policy)
    root = plan[-1]
    if not policy.with_memory and root.prob_slot == 0.0:
        raise ConfigError("memoryless chain: the per-slot success probability "
                          "underflows to 0")
    slots = root.slots if policy.with_memory else 1.0 / root.prob_slot
    if rng is not None:
        drawn = min(node.p for node in plan if node.children is None) \
            if policy.with_memory else root.prob_slot
        if drawn < MC_MIN_PROB:
            raise ConfigError(f"monte-carlo: success probability {drawn:.6e} per "
                              f"geometric draw is below 2**-56, where int64 draws "
                              f"saturate; use mode = analytic")
        if policy.with_memory:
            total = _mc_total_slots(plan, rng, n_trials)
        else:
            total = float(rng.geometric(root.prob_slot, size=n_trials).sum(dtype=float))
        slots = total / n_trials
    return ChainResult(rate=min(1.0 / slots, 1.0), fidelity=root.state.fidelity(),
                       distill_rounds_used=root.used, final_state=root.state,
                       expected_slots=slots)


# ---------------------------------------------------------------------------
# Monte Carlo over the plan
# ---------------------------------------------------------------------------

# Uniforms per window of the table evaluator.  Tables are rebuilt per window,
# so memory is bounded by it, not by trial length.  A node gets tables when
# TABLE_SPAN of its samples are expected to fit in one window.
MC_WINDOW = 4096
TABLE_SPAN = 16

# numpy's Generator.geometric draws by sequential search, one next_double
# per sample, at p >= this literal and by inversion of an exponential below.
_GEOMETRIC_SEARCH_MIN_P = 0.333333333333333333333333


def _geometric_search_sums(p: float) -> np.ndarray:
    """numpy's running sums for the sequential-search geometric sampler.

    Its loop (sum = prod = p; while U > sum: prod *= 1 - p; sum += prod)
    returns the first k with U <= sums[k - 1].  The table stops where the
    sum stops changing; prod itself need not reach 0 (for p < 1/2 it sticks
    at the smallest subnormal).  A U above the last sum, which numpy's loop
    never leaves, maps to len(sums) + 1.
    """
    total = prod = p
    sums = [total]
    while True:
        prod *= 1.0 - p
        nxt = total + prod
        if nxt == total:
            return np.array(sums)
        total = nxt
        sums.append(total)


def _geometric_from_uniforms(sums: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Geometric samples rng.geometric(p) would return for next doubles u."""
    return np.searchsorted(sums, u) + 1


def _expected_reads(plan: list[_PlanNode]) -> list[float]:
    """Mean number of uniforms (leaf draws plus coins) per sample of each node."""
    reads: list[float] = []
    for node in plan:
        if node.children is None:
            reads.append(1.0)
        else:
            a, b = node.children
            reads.append((reads[a] + reads[b] + 1.0) / node.p)
    return reads


class _ScalarDraws:
    """Draws straight from the generator, one call per leaf or coin."""

    def __init__(self, plan: list[_PlanNode], rng: np.random.Generator) -> None:
        self.plan, self.rng = plan, rng

    def whole(self, idx: int) -> float | None:
        node = self.plan[idx]
        if node.children is None:
            return float(self.rng.geometric(node.p))
        return None

    def coin(self, p: float) -> bool:
        return self.rng.random() < p

    def finish(self) -> None:
        pass


class _BlockDraws:
    """Uniforms drawn a window of W = width at a time, with outcome tables.

    For each window u[0:W] and each tabled plan node, end[j] and val[j] say
    where a sample of the node starting at offset j stops (the offset of its
    next unread uniform) and what delivery time it returns.  An end of
    INV = W + 1 marks a sample that runs past the window; offsets W and INV
    are invalid starts.  A leaf reads one uniform; a repeat node chains its
    attempts, each of which ends at the coin after its two children, and a
    retry chain is summed by pointer jumping.  Only valid for plans whose
    leaves all take the search branch (integer slot counts, so the order of
    additions does not matter).
    """

    def __init__(self, plan: list[_PlanNode], rng: np.random.Generator,
                 width: int) -> None:
        self.plan, self.rng, self.width = plan, rng, width
        self.sums = {i: _geometric_search_sums(node.p)
                     for i, node in enumerate(plan) if node.children is None}
        # Leaves always get tables; a node whose samples rarely fit in a
        # window is descended instead.
        self.tabled = [i for i, (node, reads) in enumerate(zip(plan, _expected_reads(plan)))
                       if node.children is None or reads * TABLE_SPAN <= width]
        n = width + 2
        # Coins read at an invalid offset look successful and end at INV.
        self.u = np.full(n, -1.0)
        self.step = np.minimum(np.arange(1, n + 1), width + 1)
        self.end: list[np.ndarray | None] = [None] * len(plan)
        self.val: list[np.ndarray | None] = [None] * len(plan)
        self.pos = width
        self.saved = None

    def _slide(self) -> None:
        w, n = self.width, self.width + 2
        self.saved = self.rng.bit_generator.state
        self.rng.random(out=self.u[:w])
        for idx in self.tabled:
            node = self.plan[idx]
            if node.children is None:
                val = np.zeros(n, dtype=np.int64)
                val[:w] = _geometric_from_uniforms(self.sums[idx], self.u[:w])
                self.end[idx], self.val[idx] = self.step, val
                continue
            a, b = node.children
            mid = self.end[a]
            coin_at = self.end[b][mid]
            value = np.maximum(self.val[a], self.val[b][mid])
            ok = self.u[coin_at] < node.p
            after = self.step[coin_at]
            # An attempt from offset j ends at after[j]; if its coin fails,
            # the node retries from there.  packed = (end << 32) + summed
            # value (a window's values sum far below 2**32), with a zero sink
            # at index n for finished chains.
            packed = np.zeros(n + 1, dtype=np.int64)
            np.multiply(after << 32, ok, out=packed[:n])
            packed[:n] += value
            nxt = np.full(n + 1, n)
            np.maximum(after, ok * n, out=nxt[:n])
            while nxt.min() < n:
                packed += packed[nxt]
                nxt = nxt[nxt]
            self.end[idx] = packed[:n] >> 32
            self.val[idx] = packed[:n] & 0xFFFFFFFF
        self.pos = 0

    def whole(self, idx: int) -> int | None:
        if self.pos == self.width:
            self._slide()
        end = self.end[idx]
        if end is None or end[self.pos] > self.width:
            return None
        value = int(self.val[idx][self.pos])
        self.pos = int(end[self.pos])
        return value

    def coin(self, p: float) -> bool:
        if self.pos == self.width:
            self._slide()
        self.pos += 1
        return bool(self.u[self.pos - 1] < p)

    def finish(self) -> None:
        """Rewind the generator to just after the last uniform consumed."""
        if self.saved is not None and self.pos < self.width:
            self.rng.bit_generator.state = self.saved
            self.rng.random(self.pos)


def _sample(plan: list[_PlanNode], idx: int, draws) -> float:
    """One delivery time of plan node idx: whole from `draws` where it can
    give one (a leaf, or a table entry that fits the window), else attempt
    by attempt through the node's children."""
    value = draws.whole(idx)
    if value is not None:
        return value
    node = plan[idx]
    a, b = node.children
    t = max(_sample(plan, a, draws), _sample(plan, b, draws))
    while not draws.coin(node.p):
        t += max(_sample(plan, a, draws), _sample(plan, b, draws))
    return t


def _mc_total_slots(plan: list[_PlanNode], rng: np.random.Generator,
                    n_trials: int) -> float:
    """Summed delivery time of n_trials root samples.

    Plans whose leaves all draw by numpy's search branch use _BlockDraws:
    each leaf and coin reads one double, so rng.random(W) holds the doubles
    the scalar calls would read, and integer sums make the result exact.
    Any other plan draws scalar by scalar.
    """
    tabulable = all(node.p >= _GEOMETRIC_SEARCH_MIN_P
                    for node in plan if node.children is None)
    draws = _BlockDraws(plan, rng, MC_WINDOW) if tabulable else _ScalarDraws(plan, rng)
    root = len(plan) - 1
    total = float(sum(_sample(plan, root, draws) for _ in range(n_trials)))
    draws.finish()
    return total


def figure_of_merit(rate: float, efficiency: float, bandwidth_nm: float) -> float:
    """Scalar score rate * efficiency * bandwidth (nm); spectral coincidence
    budget feeding the sensitivity calculator."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {efficiency}")
    if bandwidth_nm < 0:
        raise ValueError(f"bandwidth_nm must be >= 0, got {bandwidth_nm}")
    return rate * efficiency * bandwidth_nm
