"""Global passive adversary: rate-monitoring inference over observable traffic.

The attacker sees every transmission count in the network, never packet
contents, kinds or route metadata; a node missing from a trace's node_tx
sent nothing. The topology is public, but rate monitoring never needs it.
Link counts stand for relayed-flow evidence (a designated next hop). Every
nonzero count is evidence, and there is no rate threshold.

Scheme knowledge is public: the attacker knows whether the deployed variant
runs synchronized cover traffic, and each attack reads it from the variant.
Without cover, forwarding is a causal relay wave and time correlation pins
each chain's head and tail; with cover, every chain node transmits every
interval, timing is uninformative, and any transmitting node of a
uniform-rate chain is a source candidate (that is exactly what route
extrapolation forces).
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass

from .protocols import ScenarioPlan
from .rng import substream
from .simengine import TrafficTrace, run


class NoTrafficError(ValueError):
    """The observation holds no link traffic, so there is no chain to attack."""


def observe(trace: TrafficTrace) -> TrafficTrace:
    """The attacker's copy of a trace: the same counts, detached from it."""
    return TrafficTrace(node_tx=dict(trace.node_tx),
                        link_tx=dict(trace.link_tx))


def traffic_branches(obs: TrafficTrace) -> tuple[tuple[int, ...], ...]:
    """Decompose the active links (count above 0) into maximal simple
    chains, each its node tuple from head to tail: a chain runs from its
    higher-count end, so the silent end is the sink side.

    Chains are cut at structural junctions (active-degree != 2) and at
    rate-anomalous nodes whose count matches neither active neighbor: two
    parallel paths sharing their end nodes form a degree-2 cycle, but the
    shared ends still stand out by transmitting double rate (or nothing).
    Only link ends are stops, so a silent sink ends its chain through its
    inbound link. Adjacency order never matters: stops and their first
    steps go in sorted order, and any other node has exactly two neighbors.

    A walk starts only at a stop and passes through none, so the one link
    a later walk could repeat is the one this walk arrives by at its far
    stop; only that link is marked, from the far stop's side. A component
    without a stop is a cycle: once the stops are walked, each node still
    unwalked, in sorted order, becomes a stop and is walked, so each cycle
    is cut at its lowest node, after the chains that end at stops. A
    self-link, or one link active in both orientations, raises ValueError.
    """
    node_tx = obs.node_tx
    adj: dict[int, list[int]] = defaultdict(list)
    for (i, j), count in obs.link_tx.items():
        if count > 0:
            if i == j:
                raise ValueError(f"trace holds the self-link ({i}, {j})")
            if j in adj[i]:
                raise ValueError(f"trace holds the link ({i}, {j}) "
                                 "in both orientations")
            adj[i].append(j)
            adj[j].append(i)

    stops = set()
    for n, near in adj.items():
        if len(near) != 2:
            stops.add(n)
        else:
            own = node_tx.get(n, 0)
            a, b = near
            if node_tx.get(a, 0) != own and node_tx.get(b, 0) != own:
                stops.add(n)
    arrived: set[tuple[int, int]] = set()
    chains: list[tuple[int, ...]] = []

    def walk(start: int) -> None:
        for nxt in sorted(adj[start]):
            if (start, nxt) in arrived:
                continue
            chain = [start]
            prev, cur = start, nxt
            while cur not in stops:
                chain.append(cur)
                a, b = adj[cur]
                prev, cur = cur, b if a == prev else a
            chain.append(cur)
            arrived.add((cur, prev))
            if node_tx.get(start, 0) < node_tx.get(cur, 0):
                chain.reverse()
            chains.append(tuple(chain))

    for start in sorted(stops):
        walk(start)
    walked = {n for chain in chains for n in chain}
    for cut in sorted(adj.keys() - walked):
        if cut not in walked:
            stops.add(cut)
            walk(cut)
            walked.update(chains[-1])
    return tuple(chains)


def _pools(chain: tuple[int, ...], cover: bool
           ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Source and destination pools of one chain: with cover traffic every
    transmitter could be the source and every receiver the destination;
    without it, time correlation exposes the head and the tail
    themselves."""
    if cover:
        return chain[:-1], chain[1:]
    return chain[:1], chain[-1:]


def endpoint_candidates(obs: TrafficTrace, cover_traffic: bool = True
                        ) -> tuple[frozenset[int], frozenset[int]]:
    """Candidate source and destination sets under rate monitoring: the
    union of every chain's pools (_pools)."""
    sources: set[int] = set()
    dests: set[int] = set()
    for chain in traffic_branches(obs):
        src_pool, dst_pool = _pools(chain, cover_traffic)
        sources.update(src_pool)
        dests.update(dst_pool)
    return frozenset(sources), frozenset(dests)


def guess_endpoints(obs: TrafficTrace, rng: random.Random,
                    cover_traffic: bool = True
                    ) -> tuple[int, int, tuple[int, ...]]:
    """One attack: pick a chain uniformly, then endpoints within it.

    Returns (source_guess, dest_guess, picked_chain). Each guess is
    uniform over the picked chain's pool (_pools), which realizes the
    guess-one-of-N arithmetic the candidate sets announce.
    """
    chains = traffic_branches(obs)
    if not chains:
        raise NoTrafficError("no active traffic to attack")
    pick = chains[rng.randrange(len(chains))]
    src_pool, dst_pool = _pools(pick, cover_traffic)
    source = src_pool[rng.randrange(len(src_pool))]
    dest = dst_pool[rng.randrange(len(dst_pool))]
    return source, dest, pick


@dataclass(frozen=True)
class AttackVerdict:
    source_guess: int
    dest_guess: int
    correct_source: bool
    correct_dest: bool
    on_real_path: bool  # the picked chain holds the true source


@dataclass(frozen=True)
class AttackSummary:
    """Monte Carlo attack outcome: the verdict of every trial and the plan
    of the first. An attack rate is its hit count over the trials, with
    the Wilson 95% interval of that count."""

    verdicts: tuple[AttackVerdict, ...]
    first_plan: ScenarioPlan

    @property
    def trials(self) -> int:
        return len(self.verdicts)

    @property
    def hits(self) -> tuple[int, int, int]:
        """Trials that named the source, the destination, and both."""
        return (sum(v.correct_source for v in self.verdicts),
                sum(v.correct_dest for v in self.verdicts),
                sum(v.correct_source and v.correct_dest for v in self.verdicts))

    @property
    def empirical_anonymity(self) -> float:
        """1 - source success rate, the measured counterpart of the
        analytical single-candidate anonymity."""
        return 1.0 - self.hits[0] / self.trials

    def empirical_anonymity_ci(self) -> tuple[float, float]:
        lo, hi = wilson_interval(self.hits[0], self.trials)
        return 1.0 - hi, 1.0 - lo


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The bound at an all-fail or all-succeed end is exactly 0 or 1; the
    float formula can miss it by rounding.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, centre - half)
    high = 1.0 if successes == trials else min(1.0, centre + half)
    return low, high


def attack_trials(plan_factory, trials: int, seed: int = 0) -> AttackSummary:
    """Run (scenario, attack) pairs with fresh per-trial randomness.

    plan_factory(rng) supplies the scenario for each trial; guesses come
    from the observation and the public scheme only (whether the plan's
    variant runs cover traffic), and are scored here against the plan's
    ground truth.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    verdicts = []
    for t in range(trials):
        plan = plan_factory(substream(seed, f"scenario-{t}"))
        if t == 0:
            first_plan = plan
        src, dst, chain = guess_endpoints(
            observe(run(plan)), substream(seed, f"attack-{t}"),
            plan.variant.uses_cover)
        verdicts.append(AttackVerdict(
            source_guess=src, dest_guess=dst,
            correct_source=src == plan.source,
            correct_dest=dst == plan.dest,
            on_real_path=plan.source in chain))
    return AttackSummary(verdicts=tuple(verdicts), first_plan=first_plan)


def unlinkability_score(obs: TrafficTrace) -> float:
    """1 minus the coefficient of variation of transmit counts over actively
    transmitting nodes, clamped to [0, 1].

    1.0 means perfectly rate-uniform cover (nothing for a rate monitor to
    latch onto); 0.0 means the count structure fully exposes the flow.
    Silent sinks never transmit, so they sit outside the population.
    """
    counts = [c for c in obs.node_tx.values() if c > 0]
    if not counts:
        raise ValueError("no active transmitters to score")
    if min(counts) == max(counts):
        return 1.0  # pstdev is exactly 0
    import statistics  # here, so a command that never needs it skips loading it

    mean = statistics.fmean(counts)
    cv = statistics.pstdev(counts) / mean
    return 1.0 - min(1.0, cv)


def verdicts_to_csv(summary: AttackSummary) -> str:
    lines = ["trial,source_guess,dest_guess,correct_source,correct_dest"]
    for t, v in enumerate(summary.verdicts):
        lines.append(f"{t},{v.source_guess},{v.dest_guess},"
                     f"{int(v.correct_source)},{int(v.correct_dest)}")
    return "\n".join(lines) + "\n"
