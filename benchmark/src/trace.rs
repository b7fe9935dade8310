//! Spans for the traced run, kept in memory and written at exit.
//!
//! End-to-end numbers always come from untraced runs. With tracing on,
//! each driver round is followed by a replay that feeds the round's
//! inputs through the public call of each layer, on replica objects, and
//! records one span per call. A span's `parent` says how it relates to
//! the round:
//!
//! * `"round"` — the driver pays this layer inside the round;
//! * `"setup"` — the driver pays it once, in its constructor or cold
//!   first round;
//! * `"replica"` — the layer's cost on this workload's inputs, although
//!   this driver (as configured) does not call it in the round.

use crate::report::{Report, Samples};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    round: u64,
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: &'static str,
}

/// The span recorder. Disabled, it records nothing and costs nothing
/// beyond the call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Wall time of each traced driver round, keyed by round.
    rounds: BTreeMap<u64, f64>,
    /// Wall time spent in replays (for `trace.overhead_pct`).
    replay_secs: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            rounds: BTreeMap::new(),
            replay_secs: 0.0,
        }
    }

    /// Times `f` as a span named `name` under `parent` in `round`.
    pub fn span<T>(
        &mut self,
        round: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(round, name, parent, start, end);
        out
    }

    /// Records a span measured by the caller.
    pub fn record(
        &mut self,
        round: u64,
        name: &'static str,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let span = Span {
            round,
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
        };
        self.spans.push(span);
    }

    /// Records the driver's own round (the parent of its `"round"` spans).
    pub fn driver_round(&mut self, round: u64, start: Instant, end: Instant) {
        if self.on {
            self.rounds
                .insert(round, end.duration_since(start).as_secs_f64() * 1e3);
            self.record(round, "round", "", start, end);
        }
    }

    /// Runs one replay, accounting its wall time as tracing overhead.
    pub fn replay<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        self.replay_secs += start.elapsed().as_secs_f64();
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn layer(&self, name: &str) -> Samples {
        let mut s = Samples::default();
        for sp in self.spans.iter().filter(|s| s.name == name) {
            s.push((sp.end_us - sp.start_us) / 1e3);
        }
        s
    }

    /// Per-round sums (ms) of every span named `name`, over the rounds
    /// that have one.
    pub fn per_round(&self, name: &str) -> Samples {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for sp in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(sp.round).or_default() += (sp.end_us - sp.start_us) / 1e3;
        }
        let mut s = Samples::default();
        for v in sums.into_values() {
            s.push(v);
        }
        s
    }

    /// Adds the aggregate metrics every traced run reports: a median line
    /// per layer span name, `trace.unattributed_ms_p50` (driver round minus
    /// the summed `"round"` spans replayed for it) and `trace.overhead_pct`
    /// (replay wall over driver wall).
    pub fn summarize(&self, report: &mut Report) {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names.into_iter().filter(|n| *n != "round") {
            let s = self.layer(name);
            report.metric(&format!("span.{name}.ms_p50"), s.p50(), "ms", s.len());
        }
        let mut attributed: BTreeMap<u64, f64> = BTreeMap::new();
        for sp in self.spans.iter().filter(|s| s.parent == "round") {
            *attributed.entry(sp.round).or_default() += (sp.end_us - sp.start_us) / 1e3;
        }
        let mut unattributed = Samples::default();
        for (round, wall) in &self.rounds {
            unattributed.push(wall - attributed.get(round).copied().unwrap_or(0.0));
        }
        report.metric(
            "trace.unattributed_ms_p50",
            unattributed.p50(),
            "ms",
            unattributed.len(),
        );
        let driver_secs: f64 = self.rounds.values().sum::<f64>() / 1e3;
        report.metric(
            "trace.overhead_pct",
            100.0 * self.replay_secs / driver_secs,
            "%",
            self.rounds.len(),
        );
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent.is_empty() {
                "null".to_string()
            } else {
                format!("\"{}\"", s.parent)
            };
            writeln!(
                out,
                "{{\"round\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                s.round, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}
