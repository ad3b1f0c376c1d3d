"""Offline trace analysis: summary stats, emergency episodes, hot samples.

Consumes the shared trace schema (live :class:`~repro.telemetry.trace.
TraceRecorder` contents or a parsed JSONL file) and produces the
numbers the paper's evaluation section is built from: how long each
thermal emergency lasted (Tables 7-8 count the *time*, this also
recovers the *episodes*), which samples ran hottest, and how the duty
command was distributed.  ``python -m repro trace <file>`` renders
:func:`render_report` over an exported trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.telemetry.trace import TraceEvent, TraceRecord

#: Default emergency threshold [degC] (ThermalConfig default).
DEFAULT_EMERGENCY_C = 102.0


@dataclass(frozen=True)
class Episode:
    """One contiguous run of samples in thermal emergency."""

    #: Sample index of the first emergency sample.
    start_index: int
    #: Sample index of the last emergency sample (inclusive).
    end_index: int
    #: Number of retained samples in the episode.
    samples: int
    #: Hottest temperature reached during the episode [degC].
    peak_temp: float
    #: Sum of per-sample emergency fractions (sub-sample time units).
    emergency_sample_equivalents: float

    @property
    def span(self) -> int:
        """Inclusive sample-index span of the episode."""
        return self.end_index - self.start_index + 1


def _in_emergency(record: TraceRecord, threshold: float) -> bool:
    if record.emergency_fraction > 0.0:
        return True
    return (
        not math.isnan(record.max_temp) and record.max_temp > threshold
    )


def emergency_episodes(
    records: Sequence[TraceRecord],
    threshold: float = DEFAULT_EMERGENCY_C,
) -> list[Episode]:
    """Group emergency samples into contiguous episodes.

    A sample is "in emergency" when its sub-sample emergency fraction
    is positive (the engine's closed-form accounting) or, lacking that,
    when its end-of-sample hottest temperature exceeds ``threshold``.
    Consecutive *retained* samples join one episode; on a decimated
    trace, episode sample counts are lower bounds at the retained
    resolution.
    """
    episodes: list[Episode] = []
    start = None
    last = None
    count = 0
    peak = -math.inf
    weight = 0.0
    for record in records:
        if _in_emergency(record, threshold):
            if start is None:
                start = record.index
                count = 0
                peak = -math.inf
                weight = 0.0
            last = record.index
            count += 1
            weight += record.emergency_fraction or 1.0
            if not math.isnan(record.max_temp):
                peak = max(peak, record.max_temp)
        elif start is not None:
            episodes.append(Episode(start, last, count, peak, weight))
            start = None
    if start is not None:
        episodes.append(Episode(start, last, count, peak, weight))
    return episodes


def hottest_samples(
    records: Sequence[TraceRecord], n: int = 10
) -> list[TraceRecord]:
    """The ``n`` hottest retained samples, hottest first."""
    keyed = [r for r in records if not math.isnan(r.max_temp)]
    keyed.sort(key=lambda r: r.max_temp, reverse=True)
    return keyed[: max(0, n)]


def _stats(values: list[float]) -> dict:
    finite = [v for v in values if not math.isnan(v)]
    if not finite:
        return {"count": 0, "mean": None, "min": None, "max": None}
    return {
        "count": len(finite),
        "mean": sum(finite) / len(finite),
        "min": min(finite),
        "max": max(finite),
    }


def summarize(
    records: Sequence[TraceRecord],
    events: Sequence[TraceEvent] = (),
    threshold: float = DEFAULT_EMERGENCY_C,
) -> dict:
    """Headline numbers for one trace (plain data, render-agnostic)."""
    episodes = emergency_episodes(records, threshold)
    event_kinds: dict[str, int] = {}
    events_by_core: dict[int, dict[str, int]] = {}
    for event in events:
        event_kinds[event.kind] = event_kinds.get(event.kind, 0) + 1
        # Multicore traces tag per-core events with a "core" data
        # field; traces written before that field existed simply
        # produce an empty breakdown.
        core = (event.data or {}).get("core")
        if isinstance(core, int) and not isinstance(core, bool):
            per_core = events_by_core.setdefault(core, {})
            per_core[event.kind] = per_core.get(event.kind, 0) + 1
    # Sweep-orchestration breakdown: "sweep.*" events come from the
    # fault-tolerant orchestrator (retries, timeouts, resume skips),
    # "cache.*" events from the cross-sweep result cache (hit/miss
    # summaries), and "shard.*" events from the distributed coordinator
    # that older versions shipped (kept so their traces still render).
    # Traces written before these layers existed carry no such events
    # and produce an empty breakdown.
    orchestration: dict[str, dict[str, int]] = {}
    for kind, count in event_kinds.items():
        prefix, _, suffix = kind.partition(".")
        if prefix in ("sweep", "shard", "cache") and suffix:
            orchestration.setdefault(prefix, {})[suffix] = count
    saturated = sum(
        1
        for r in records
        if not math.isnan(r.post_saturation)
        and not math.isnan(r.pre_saturation)
        and r.pre_saturation != r.post_saturation
    )
    engaged = sum(1 for r in records if not math.isnan(r.duty) and r.duty < 1.0)
    return {
        "samples": len(records),
        "benchmark": records[0].benchmark if records else "",
        "policy": records[0].policy if records else "",
        "first_cycle": records[0].cycle if records else 0,
        "last_cycle": records[-1].cycle if records else 0,
        "temperature": _stats([r.max_temp for r in records]),
        "duty": _stats([r.duty for r in records]),
        "chip_power": _stats([r.chip_power for r in records]),
        "ipc": _stats([r.ipc for r in records]),
        "engaged_samples": engaged,
        "saturated_samples": saturated,
        "emergency_samples": sum(
            1 for r in records if _in_emergency(r, threshold)
        ),
        "emergency_episodes": len(episodes),
        "longest_episode_samples": max(
            (e.samples for e in episodes), default=0
        ),
        "events": event_kinds,
        "events_by_core": events_by_core,
        "orchestration": orchestration,
    }


def _fmt(value, spec: str = ".3f") -> str:
    if value is None:
        return "-"
    return format(value, spec)


def render_report(
    records: Sequence[TraceRecord],
    events: Sequence[TraceEvent] = (),
    threshold: float = DEFAULT_EMERGENCY_C,
    top: int = 10,
    meta: dict | None = None,
) -> str:
    """Human-readable trace report (summary, episodes, hottest samples)."""
    summary = summarize(records, events, threshold)
    lines = []
    title = "trace report"
    if summary["benchmark"] or summary["policy"]:
        title += f": {summary['benchmark']} / {summary['policy']}"
    lines.append(title)
    lines.append("=" * len(title))
    if meta:
        retained = meta.get("retained")
        emitted = meta.get("emitted")
        if retained is not None and emitted is not None:
            lines.append(
                f"retention:          {retained} of {emitted} samples "
                f"(mode={meta.get('mode', '?')}, "
                f"stride={meta.get('stride', '?')})"
            )
    lines.append(f"samples:            {summary['samples']}")
    lines.append(
        f"cycles covered:     {summary['first_cycle']:,} .. "
        f"{summary['last_cycle']:,}"
    )
    temp = summary["temperature"]
    lines.append(
        f"max temp (C):       mean {_fmt(temp['mean'])}  "
        f"min {_fmt(temp['min'])}  max {_fmt(temp['max'])}"
    )
    duty = summary["duty"]
    lines.append(
        f"duty:               mean {_fmt(duty['mean'])}  "
        f"min {_fmt(duty['min'])}  max {_fmt(duty['max'])}"
    )
    power = summary["chip_power"]
    lines.append(
        f"chip power (W):     mean {_fmt(power['mean'], '.1f')}  "
        f"max {_fmt(power['max'], '.1f')}"
    )
    lines.append(
        f"engaged samples:    {summary['engaged_samples']} "
        f"({summary['saturated_samples']} with saturated controller)"
    )
    lines.append(
        f"emergency:          {summary['emergency_samples']} samples in "
        f"{summary['emergency_episodes']} episode(s), longest "
        f"{summary['longest_episode_samples']} samples "
        f"(threshold {threshold:g} C)"
    )
    episodes = emergency_episodes(records, threshold)
    if episodes:
        lines.append("")
        lines.append("emergency episodes:")
        lines.append("  start    end     samples  peak (C)")
        for episode in episodes[:20]:
            lines.append(
                f"  {episode.start_index:<8} {episode.end_index:<7} "
                f"{episode.samples:<8} {episode.peak_temp:.3f}"
            )
        if len(episodes) > 20:
            lines.append(f"  ... and {len(episodes) - 20} more")
    hot = hottest_samples(records, top)
    if hot:
        lines.append("")
        lines.append(f"top {len(hot)} hottest samples:")
        lines.append("  index    max T (C)  duty   failsafe")
        for record in hot:
            lines.append(
                f"  {record.index:<8} {record.max_temp:<10.3f} "
                f"{_fmt(record.duty)}  {record.failsafe_state or '-'}"
            )
    if summary["events"]:
        lines.append("")
        lines.append("events:")
        for kind, count in sorted(summary["events"].items()):
            lines.append(f"  {kind}: {count}")
        if summary["events_by_core"]:
            lines.append("  per core:")
            for core in sorted(summary["events_by_core"]):
                kinds = summary["events_by_core"][core]
                detail = ", ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(kinds.items())
                )
                lines.append(f"    core {core}: {detail}")
    if summary["orchestration"]:
        labels = {
            "sweep": "orchestrator",
            "shard": "distributed coordinator",
        }
        lines.append("")
        lines.append("sweep orchestration:")
        for prefix in sorted(summary["orchestration"]):
            kinds = summary["orchestration"][prefix]
            detail = ", ".join(
                f"{kind}={count}" for kind, count in sorted(kinds.items())
            )
            lines.append(
                f"  {labels.get(prefix, prefix)}: {detail}"
            )
    return "\n".join(lines)
