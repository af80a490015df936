"""Adversarial pipeline against claimed liveness solvers.

Walks the connectivity chain measuring how many exit states a machine
spends per step, and mounts the pumping construction: a (bounded-)generic
block, a forcing suffix, and a pump count at which the machine provably
cannot tell a live input from a dead one. For machines that genuinely pay
a state at a step, the pump premise fails and the outcome is an honest
NotFound with the reason. A differential fuzzer against the subset-NFA
oracle serves as fallback.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Union

from . import exits, owl, sequence, tdfa
from .exits import LR, RL, GenericCertificate
from .owl import OwlString, OwlSymbol
from .tdfa import Tdfa

MAX_PUMPED_LEN = 10**6  # pump builds no longer input; it reports NotFound instead
MAX_LISTED_LEN = 1000  # a counterexample's JSON lists no longer input in full


@dataclass(frozen=True)
class NotFound:
    """Reasoned absence of a counterexample; expected for correct machines."""

    reason: str
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"found": False, "reason": self.reason, "detail": self.detail}


@dataclass(frozen=True)
class Counterexample:
    """A certified machine error.

    kind "pump": two inputs of different liveness that the machine decides
    identically. kind "fuzz": a single input where the decision contradicts
    the liveness oracle.
    """

    kind: str
    machine_name: str
    verdict: str
    inputs: tuple[OwlString, ...]
    decisions: tuple[str, ...]
    liveness: tuple[bool, ...]
    t: Optional[int] = None
    theta: Optional[OwlString] = None
    pump_symbol: Optional[OwlSymbol] = None
    t_star: Optional[int] = None
    context: Optional[tuple[OwlSymbol, OwlSymbol]] = None

    def to_json(self) -> dict:
        obj = {
            "found": True,
            "kind": self.kind,
            "machine": self.machine_name,
            "verdict": self.verdict,
            "decisions": list(self.decisions),
            "liveness": list(self.liveness),
            "input_lengths": [len(z) for z in self.inputs],
        }
        obj["inputs"] = [
            z.to_json() if len(z) <= MAX_LISTED_LEN else None for z in self.inputs
        ]
        if self.t is not None:
            obj["t"] = self.t
            obj["t_star"] = self.t_star
            obj["theta"] = self.theta.to_json()
            obj["pump_symbol"] = self.pump_symbol.to_json()
            obj["context"] = [s.to_json() for s in self.context]
        return obj


PumpResult = Union[Counterexample, NotFound]


def _verify_counterexample(m: Tdfa, cex: Counterexample) -> None:
    """Independent re-check before returning: liveness via both oracles and
    decisions via a fresh simulation."""
    for z, dec, live in zip(cex.inputs, cex.decisions, cex.liveness):
        if owl.is_live(z) != live or owl.nfa_live(z) != live:
            raise AssertionError("liveness oracle disagrees with recorded value")
        if tdfa.decide(m, z) != dec:
            raise AssertionError("re-simulation disagrees with recorded decision")
    if cex.kind == "pump":
        if cex.liveness[0] == cex.liveness[1]:
            raise AssertionError("pump inputs do not differ in liveness")
        if cex.decisions[0] != cex.decisions[1]:
            raise AssertionError("pump decisions are not identical")
    else:
        (z,), (dec,), (live,) = cex.inputs, cex.decisions, cex.liveness
        if (dec == tdfa.ACCEPT) == live:
            raise AssertionError("fuzz input is decided correctly")


def _descend_both(m, target, max_ext_len, starts=(None, None)):
    """The LR and the RL certificate for target, each descended from its
    start (None: the representative)."""
    return tuple(
        exits.descend_generic(m, target, max_ext_len, side=side, start=start)
        for side, start in zip((LR, RL), starts)
    )


def pump(m: Tdfa, t: int, max_ext_len: int = 1) -> PumpResult:
    """Pumping attack at chain step t (1-based).

    Builds a bounded-generic block for the earlier property, the forcing
    suffix into the later one, and checks that the block's exit states
    continue as permutations across one pumped copy. If they do, pumping
    to the product of the permutation orders makes the machine blind to
    the copies, and the separation context turns that into two inputs of
    different liveness decided identically.
    """
    h = m.h
    n = sequence.chain_length(h)
    if not 1 <= t <= n:
        raise ValueError(f"t={t} outside [1, {n}] for h={h}")
    c_prev, c_next = itertools.islice(sequence.build_sequence(h), t - 1, t + 1)

    # theta = y_LR.y_RL inherits both certificates; c_prev^2 = c_prev keeps it in.
    lr, rl = _descend_both(m, c_prev, max_ext_len)
    theta = lr.y + rl.y
    if owl.connectivity(theta) != c_prev:
        raise AssertionError("composed generic candidate left the property")
    x_sym = owl.suffix_of_choice_witness(c_prev, c_next)
    x = OwlString(h, [x_sym])
    block = x + theta  # the pumped unit x.theta

    # Both maps continue theta's exit sets (their domains) across theta x
    # theta; each is built and verified before either is checked.
    maps = (
        ("alpha", LR, exits.alpha(m, theta, block)),
        ("beta", RL, exits.beta(m, theta + x, theta)),
    )
    t_star = 1
    for name, side, pm in maps:
        if not exits.is_permutation(pm):
            return NotFound(
                f"{name} is not a permutation of the {side} exit set",
                {"t": t, "exit_size": len(pm.domain), "image_size": len(pm.image)},
            )
        t_star *= exits.permutation_order(pm)

    u, v, _swapped = owl.separation_context(c_prev, c_next)
    ustr, vstr = OwlString(h, [u]), OwlString(h, [v])
    short = ustr + theta + vstr
    pumped_len = len(short) + t_star * len(block)
    if pumped_len > MAX_PUMPED_LEN:
        return NotFound(
            "pumped input exceeds the size cap",
            {"t": t, "t_star": t_star, "pumped_len": pumped_len, "cap": MAX_PUMPED_LEN},
        )
    pumped = ustr + theta + block.repeat(t_star) + vstr

    d_short = tdfa.decide(m, short)
    d_pumped = tdfa.decide(m, pumped)
    if d_short != d_pumped:
        return NotFound(
            "machine decides the two inputs differently",
            {"t": t, "t_star": t_star, "short": d_short, "pumped": d_pumped},
        )
    live_short, live_pumped = owl.is_live(short), owl.is_live(pumped)
    wrong = short if (d_short == tdfa.ACCEPT) != live_short else pumped
    cex = Counterexample(
        kind="pump",
        machine_name=m.name,
        verdict=f"machine errs on the {'short' if wrong is short else 'pumped'} input",
        inputs=(short, pumped),
        decisions=(d_short, d_pumped),
        liveness=(live_short, live_pumped),
        t=t,
        theta=theta,
        pump_symbol=x_sym,
        t_star=t_star,
        context=(u, v),
    )
    _verify_counterexample(m, cex)
    return cex


def _decrements(sizes: list[int]) -> int:
    return sum(1 for p, n in itertools.pairwise(sizes) if n < p)


@dataclass(frozen=True)
class ExitChainReport:
    """Bounded exit-size estimates along the whole chain: `certs[t]` is the
    (LR, RL) certificate pair of chain step t, whose exit sizes are a_t and
    b_t."""

    machine_name: str
    h: int
    certs: tuple[tuple[GenericCertificate, GenericCertificate], ...]
    max_ext_len: int

    @property
    def a_sizes(self) -> list[int]:
        return [lr.exit_size for lr, _ in self.certs]

    @property
    def b_sizes(self) -> list[int]:
        return [rl.exit_size for _, rl in self.certs]

    @property
    def a_decrements(self) -> int:
        return _decrements(self.a_sizes)

    @property
    def b_decrements(self) -> int:
        return _decrements(self.b_sizes)

    @property
    def implied_bound(self) -> int:
        return max(self.a_decrements, self.b_decrements)

    def to_json(self) -> dict:
        chain = [
            {"t": t, "a": lr.exit_size, "b": rl.exit_size, "lr": lr.to_json(), "rl": rl.to_json()}
            for t, (lr, rl) in enumerate(self.certs)
        ]
        return {
            "machine": self.machine_name,
            "h": self.h,
            "chain": chain,
            "a_sizes": self.a_sizes,
            "b_sizes": self.b_sizes,
            "a_decrements": self.a_decrements,
            "b_decrements": self.b_decrements,
            "implied_bound": self.implied_bound,
            "caveat": (
                "exit sizes are bounded-search estimates "
                f"(max_ext_len={self.max_ext_len})"
            ),
        }


def exit_chain(m: Tdfa, max_ext_len: int = 1) -> ExitChainReport:
    """Descend both exit sizes for every chain property.

    Each step seeds its descent with the previous step's string extended by
    the forcing suffix, so the estimates inherit the monotonicity the exact
    sizes have and cannot bounce upward from search noise. A seed has
    connectivity C_{t-1} C_t = C_t, or `descend_generic` refuses it.
    """
    chain = sequence.build_sequence(m.h)
    prev = next(chain)
    certs = [_descend_both(m, prev, max_ext_len)]
    for target in chain:
        suffix = OwlString(m.h, [owl.suffix_of_choice_witness(prev, target)])
        starts = [exits.extend(c.y, suffix, c.side) for c in certs[-1]]
        certs.append(_descend_both(m, target, max_ext_len, starts))
        prev = target
    return ExitChainReport(m.name, m.h, tuple(certs), max_ext_len)


def differential_fuzz(
    m: Tdfa,
    max_len: int = 4,
    exhaustive: bool = False,
    samples: int = 1000,
    seed: int = 0,
) -> PumpResult:
    """Compare the machine against the liveness oracle on many strings."""
    by_length = Counter()
    for z in _fuzz_strings(m.h, max_len, exhaustive, samples, seed):
        by_length[len(z)] += 1
        dec = tdfa.decide(m, z)
        live = owl.nfa_live(z)
        if (dec == tdfa.ACCEPT) != live:
            cex = Counterexample(
                kind="fuzz",
                machine_name=m.name,
                verdict="decision contradicts the liveness oracle",
                inputs=(z,),
                decisions=(dec,),
                liveness=(live,),
            )
            _verify_counterexample(m, cex)
            return cex
    detail = {
        "strings_checked": sum(by_length.values()),
        "strings_checked_by_length": {str(n): by_length[n] for n in sorted(by_length)},
    }
    return NotFound("no disagreement within budget", detail)


def _fuzz_strings(h: int, max_len: int, exhaustive: bool, samples: int, seed: int):
    if exhaustive:
        syms = owl.all_symbols(h)
        for n in range(max_len + 1):
            for combo in itertools.product(syms, repeat=n):
                yield OwlString(h, combo)
    else:
        rng = random.Random(seed)
        bits = h * h
        for _ in range(samples):
            n = rng.randint(0, max_len)
            yield OwlString(h, [OwlSymbol.from_mask(h, rng.getrandbits(bits)) for _ in range(n)])
